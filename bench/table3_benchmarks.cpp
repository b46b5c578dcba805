// Regenerates paper Table 3: robust gate delay fault test generation for
// the ISCAS'89 benchmark set. Columns match the paper: tested faults,
// untestable faults, aborted faults, generated patterns (including
// initialization and propagation), and wall-clock seconds. Abort limits
// are the paper's (100 local / 100 sequential backtracks).
//
// Usage: table3_benchmarks [circuit ...]   (default: all twelve rows)
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "circuits/catalog.hpp"
#include "circuits/profiles.hpp"
#include "core/fogbuster.hpp"
#include "core/report.hpp"

int main(int argc, char** argv) {
  std::vector<std::string> only(argv + 1, argv + argc);
  std::printf("Table 3 — benchmark results (robust gate delay faults, "
              "non-scan)\n%s\n",
              gdf::core::table3_header().c_str());
  gdf::core::StageStats total;
  for (const auto& profile : gdf::circuits::table3_profiles()) {
    if (!only.empty() &&
        std::find(only.begin(), only.end(), profile.name) == only.end()) {
      continue;
    }
    const gdf::net::Netlist circuit =
        gdf::circuits::load_circuit(profile.name);
    const gdf::core::FogbusterResult result =
        gdf::core::Fogbuster(circuit).run();
    std::printf("%s\n",
                gdf::core::format_table3_row(
                    gdf::core::make_table3_row(profile.name, result))
                    .c_str());
    std::fflush(stdout);
    total.targeted += result.stages.targeted;
    total.dropped += result.stages.dropped;
    total.local_solutions += result.stages.local_solutions;
    total.sync_attempts += result.stages.sync_attempts;
  }
  std::printf("\n(faults targeted %ld, additionally covered by fault "
              "simulation %ld)\n",
              total.targeted, total.dropped);
  std::printf("note: circuits other than s27 are synthetic ISCAS-like "
              "substitutes (README, \"Running sweeps\", shows gdf_atpg "
              "on the real netlists); compare shapes, not absolute "
              "values.\n");
  return 0;
}
