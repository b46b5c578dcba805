// Command-line handling for the gdf_atpg driver: option definitions, the
// parsed configuration, and the CSV/text renderers. Kept out of main() so
// the parsing rules are unit-testable and reusable by future drivers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/options.hpp"
#include "core/report.hpp"
#include "run/sweep.hpp"

namespace gdf::cli {

/// Everything a gdf_atpg invocation asks for. Defaults reproduce the
/// paper's setup (robust algebra, 100/100 backtrack limits, fault
/// dropping), so `gdf_atpg --circuit s27` matches examples/quickstart.
struct DriverConfig {
  std::vector<std::string> circuits;  ///< catalog names
  std::vector<std::string> bench_files;  ///< .bench netlists from disk
  bool all = false;                   ///< sweep the whole catalog
  bool list_only = false;             ///< print catalog names and exit
  bool csv = false;                   ///< CSV rows instead of the text table
  bool stage_stats = false;           ///< per-circuit Figure-4 counters
  bool help = false;                  ///< usage requested
  bool no_seconds = false;            ///< omit the wall-time column
  unsigned jobs = 0;                  ///< worker threads; 0 = hardware
  std::string bench_dir;              ///< --bench-dir (else GDF_BENCH_DIR)
  /// Failure containment (--on-error abort|skip|retry:N); abort is the
  /// legacy fail-fast behavior.
  run::ErrorPolicy on_error;
  std::string journal;                ///< --journal FILE ("" = off)
  bool resume = false;                ///< --resume (requires --journal)
  core::AtpgOptions atpg;             ///< flow configuration (base cell)
  /// Intra-circuit fault sharding (--shard-faults auto|N|off). Defaults
  /// to auto: large circuits shard across idle workers; the emitted bytes
  /// never depend on it.
  run::ShardConfig shard{.policy = run::ShardConfig::Policy::Auto};

  // Parameter-matrix axes (comma-separated flag values). Empty = just the
  // base configuration. Any axis with two or more values turns the run
  // into a matrix sweep, which requires --csv.
  std::vector<alg::Mode> modes;
  std::vector<run::FaultOrder> fault_orders;
  std::vector<std::uint64_t> seeds;
  std::vector<int> backtrack_limits;
  std::vector<bool> fault_dropping;
  std::vector<bool> full_sites;
};

/// Parses argv (argv[0] is skipped). Throws gdf::Error with a user-facing
/// message on unknown flags, missing values, or malformed numbers.
DriverConfig parse_args(int argc, const char* const* argv);

/// The declarative sweep the configuration describes — what the driver
/// hands to run::run_sweep, exposed so tests can assert CLI runs and
/// in-process runs produce identical bytes.
run::SweepSpec sweep_spec(const DriverConfig& config);

/// The --help text.
std::string usage();

}  // namespace gdf::cli
