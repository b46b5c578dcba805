// Quickstart: run robust gate delay fault ATPG on the s27 benchmark and
// print the resulting test set, exactly as a new user of the library
// would. Build and run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "circuits/embedded.hpp"
#include "core/fogbuster.hpp"
#include "core/report.hpp"

int main() {
  // 1. Get a circuit. s27 ships verbatim; load_circuit() also knows the
  //    synthetic ISCAS'89-like substitutes, and read_bench_file() parses
  //    your own .bench netlists.
  const gdf::net::Netlist circuit = gdf::circuits::make_s27();

  // 2. Run the combined TDgen + SEMILET flow with the paper's defaults
  //    (robust fault model, 100/100 backtrack limits, fault dropping).
  gdf::core::Fogbuster flow(circuit);
  const gdf::core::FogbusterResult result = flow.run();

  // 3. Summarize — the same columns as Table 3 of the paper.
  std::printf("%s\n%s\n\n", gdf::core::table3_header().c_str(),
              gdf::core::format_table3_row(
                  gdf::core::make_table3_row(circuit.name(), result))
                  .c_str());

  // 4. Inspect one generated test sequence.
  if (!result.tests.empty()) {
    const gdf::core::TestSequence& t = result.tests.front();
    // Fault line ids refer to the fanout-expanded netlist the flow works on.
    const gdf::net::Netlist& expanded = flow.working_netlist();
    std::printf("first explicit test targets %s:\n",
                gdf::tdgen::fault_name(expanded, t.target).c_str());
    const auto frames = t.all_frames();
    const auto clocks = t.clocks();
    for (std::size_t k = 0; k < frames.size(); ++k) {
      std::printf("  %s clock, PIs = ",
                  clocks[k] == gdf::core::ClockKind::Fast ? "FAST" : "slow");
      for (const gdf::sim::Lv v : frames[k]) {
        std::printf("%s", std::string(gdf::sim::lv_name(v)).c_str());
      }
      std::printf("\n");
    }
  }
  return 0;
}
