// Scenario: bring your own netlist. Reads an ISCAS'89-style .bench file
// (or builds a small controller programmatically when no path is given),
// validates it, and runs the full delay-fault flow with custom limits.
//
//   ./build/examples/custom_bench_flow [path/to/circuit.bench]
#include <cstdio>

#include "base/error.hpp"
#include "core/fogbuster.hpp"
#include "core/report.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/builder.hpp"
#include "netlist/stats.hpp"
#include "netlist/validate.hpp"

namespace {

gdf::net::Netlist demo_controller() {
  using gdf::net::GateType;
  gdf::net::NetlistBuilder b("demo_ctrl");
  b.input("reset").input("go").input("sense");
  b.output("grant");
  b.dff("armed", "armed_next");
  b.dff("busy", "busy_next");
  b.gate("nreset", GateType::Not, {"reset"});
  b.gate("arm", GateType::And, {"go", "nreset"});
  b.gate("armed_next", GateType::Or, {"arm", "hold"});
  b.gate("hold", GateType::And, {"armed", "nbusy"});
  b.gate("nbusy", GateType::Not, {"busy"});
  b.gate("busy_next", GateType::And, {"armed", "sense"});
  b.gate("grant", GateType::And, {"busy", "armed"});
  return b.build();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const gdf::net::Netlist circuit =
        argc > 1 ? gdf::net::read_bench_file(argv[1]) : demo_controller();
    gdf::net::validate_or_throw(circuit);
    std::printf("%s\n",
                gdf::net::format_stats(gdf::net::compute_stats(circuit))
                    .c_str());

    gdf::core::AtpgOptions options;
    options.local.backtrack_limit = 500;       // more patient than the
    options.sequential.backtrack_limit = 500;  // paper's 100/100 default
    const gdf::core::FogbusterResult result =
        gdf::core::Fogbuster(circuit, options).run();

    std::printf("%s\n%s\n\n", gdf::core::table3_header().c_str(),
                gdf::core::format_table3_row(
                    gdf::core::make_table3_row(circuit.name(), result))
                    .c_str());
    std::printf("%s\n", gdf::core::format_stage_stats(result.stages).c_str());
    return 0;
  } catch (const gdf::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
