// Regenerates the structural view of paper Figure 1 (the finite state
// machine model): every circuit decomposed into its combinational block
// with PIs/PPIs on the input side and POs/PPOs on the output side.
#include <cstdio>

#include "circuits/catalog.hpp"
#include "netlist/fanout.hpp"
#include "netlist/stats.hpp"

int main() {
  std::printf("Figure 1 — the finite state machine model per circuit\n");
  std::printf("%-8s %4s %4s %4s %6s %6s %7s %8s\n", "circuit", "PI", "PO",
              "FF", "gates", "depth", "stems", "branches");
  for (const std::string& name : gdf::circuits::catalog_names()) {
    const gdf::net::Netlist raw = gdf::circuits::load_circuit(name);
    const gdf::net::Netlist expanded =
        gdf::net::expand_fanout_branches(raw);
    const gdf::net::NetlistStats s = gdf::net::compute_stats(expanded);
    std::printf("%-8s %4zu %4zu %4zu %6zu %6d %7zu %8zu\n", name.c_str(),
                s.primary_inputs, s.primary_outputs, s.flip_flops,
                s.logic_gates - s.branch_buffers, s.depth, s.fanout_stems,
                s.branch_buffers);
  }
  std::printf("\nPPIs = FF count (flip-flop outputs feed the combinational "
              "block);\nPPOs = FF count (each flip-flop data pin observes "
              "it). Fault sites are\nall lines: stems plus explicit fanout "
              "branches.\n");
  return 0;
}
