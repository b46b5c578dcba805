// Regenerates the extended FOGBUSTER algorithm view of paper Figure 4 as
// per-stage outcome statistics: local generation, fault-effect propagation,
// propagation justification (TDgen re-entry), synchronization, and the
// final verdicts (experiment F4; the local-flow Figure 3 counters are the
// po/ppo split below).
#include <cstdio>

#include "circuits/catalog.hpp"
#include "core/fogbuster.hpp"
#include "core/report.hpp"

int main(int argc, char** argv) {
  const std::vector<std::string> circuits =
      argc > 1 ? std::vector<std::string>(argv + 1, argv + argc)
               : std::vector<std::string>{"s27", "s298", "s386", "s208"};
  std::printf("Figure 4 — extended FOGBUSTER stage outcomes\n\n");
  for (const std::string& name : circuits) {
    const gdf::net::Netlist circuit = gdf::circuits::load_circuit(name);
    const gdf::core::FogbusterResult r = gdf::core::Fogbuster(circuit).run();
    std::printf("%s: tested %d, untestable %d, aborted %d\n", name.c_str(),
                r.tested(), r.untestable(), r.aborted());
    std::printf("%s\n\n",
                gdf::core::format_stage_stats(r.stages).c_str());
    std::fflush(stdout);
  }
  return 0;
}
