// Command-line handling for the gdf_atpg driver: option definitions, the
// parsed configuration, and the CSV/text renderers. Kept out of main() so
// the parsing rules are unit-testable and reusable by future drivers.
#pragma once

#include <string>

#include "run/sweep.hpp"

namespace gdf::cli {

/// Everything a gdf_atpg invocation asks for: the sweep itself, plus what
/// the driver reads around it (help, listing, output layout, journal).
/// Defaults reproduce the paper's setup (robust algebra, 100/100
/// backtrack limits, fault dropping), so `gdf_atpg --circuit s27` matches
/// examples/quickstart.
struct DriverConfig {
  bool help = false;         ///< usage requested
  bool list_only = false;    ///< print catalog names and exit
  bool csv = false;          ///< CSV rows instead of the text table
  bool stage_stats = false;  ///< per-circuit Figure-4 counters
  std::string journal;       ///< --journal FILE ("" = off)
  bool resume = false;       ///< --resume (requires --journal)
  /// The declarative sweep handed to run::run_sweep: catalog circuits (or
  /// --all) first, then --bench files. parse_args defaults its fault
  /// sharding to auto (large circuits shard across idle workers; the
  /// emitted bytes never depend on it), where the library default is off.
  run::SweepSpec spec;
};

/// Parses argv (argv[0] is skipped). Throws gdf::Error with a user-facing
/// message on unknown flags, missing values, or malformed numbers.
DriverConfig parse_args(int argc, const char* const* argv);

/// The --help text.
std::string usage();

}  // namespace gdf::cli
