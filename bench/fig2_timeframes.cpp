// Regenerates the time frame model of paper Figure 2 on real generated
// tests: initialization frames under the slow clock, the test frame under
// the fast clock, and propagation frames under the slow clock again.
#include <cstdio>

#include "circuits/embedded.hpp"
#include "core/fogbuster.hpp"

namespace {

void print_sequence(const gdf::net::Netlist& nl,
                    const gdf::core::TestSequence& t) {
  std::printf("fault %s — %zu patterns\n",
              gdf::tdgen::fault_name(nl, t.target).c_str(),
              t.pattern_count());
  const auto frames = t.all_frames();
  const auto clocks = t.clocks();
  for (std::size_t k = 0; k < frames.size(); ++k) {
    const char* role =
        k < t.init_frames.size()
            ? "init "
            : (k == t.fast_index() - 1
                   ? "V1   "
                   : (k == t.fast_index() ? "V2   " : "prop "));
    std::printf("  frame %2zu  %s clock=%s  PIs=", k, role,
                clocks[k] == gdf::core::ClockKind::Fast ? "FAST" : "slow");
    for (const gdf::sim::Lv v : frames[k]) {
      std::printf("%s", std::string(gdf::sim::lv_name(v)).c_str());
    }
    std::printf("\n");
  }
  std::printf("  observed at %s\n\n",
              t.observed_at_po ? "a primary output (fast frame)"
                               : "a PPO, carried to a PO by the "
                                 "propagation frames");
}

}  // namespace

int main() {
  std::printf("Figure 2 — the time frame model on generated s27 tests\n"
              "(slow ... slow | slow V1 | FAST V2 | slow ...)\n\n");
  const gdf::net::Netlist nl = gdf::circuits::make_s27();
  gdf::core::Fogbuster flow(nl);
  const gdf::core::FogbusterResult result = flow.run();

  // Show one PO-observed test and one that needs propagation frames.
  bool shown_po = false, shown_ppo = false;
  const gdf::net::Netlist& expanded = flow.working_netlist();
  for (const gdf::core::TestSequence& t : result.tests) {
    if (t.observed_at_po && !shown_po) {
      print_sequence(expanded, t);
      shown_po = true;
    }
    if (!t.observed_at_po && !t.prop_frames.empty() && !shown_ppo) {
      print_sequence(expanded, t);
      shown_ppo = true;
    }
    if (shown_po && shown_ppo) {
      break;
    }
  }
  std::printf("every fault occurs only in the fast frame; all other frames "
              "run the\ngood machine (the paper's slow-clock argument).\n");
  return 0;
}
