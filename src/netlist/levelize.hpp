// Topological analysis of the combinational block. DFF outputs and primary
// inputs are the sources (level 0); DFF data pins and primary outputs are
// the sinks. DFF gates never appear inside a combinational path, so a cycle
// through the state register is legal while a purely combinational cycle is
// a structural error.
#pragma once

#include <vector>

#include "netlist/netlist.hpp"

namespace gdf::net {

struct Levelization {
  /// Gates of the combinational block (Input/Buf/Not/And/... and also the
  /// Input and Dff source gates themselves) in topological order.
  std::vector<GateId> order;
  /// level[g]: 0 for sources, 1 + max(level of fanin) otherwise. DFF gates
  /// have level 0 (they act as sources for the next frame).
  std::vector<int> level;
  /// Maximum level over all gates (combinational depth).
  int depth = 0;
};

/// Computes topological order and levels. Throws gdf::Error if the
/// combinational block contains a cycle.
Levelization levelize(const Netlist& nl);

/// For every gate, the minimum number of combinational gates between it and
/// an observation point (PO or DFF data pin); used as the propagation
/// distance heuristic of the ATPG. Unreachable gates get a large sentinel.
std::vector<int> distance_to_observation(const Netlist& nl);

}  // namespace gdf::net
