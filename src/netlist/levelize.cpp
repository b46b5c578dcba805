#include "netlist/levelize.hpp"

#include <algorithm>
#include <deque>
#include <limits>

#include "base/error.hpp"

namespace gdf::net {

namespace {
bool is_source(const Gate& g) {
  return g.type == GateType::Input || g.type == GateType::Dff;
}
}  // namespace

Levelization levelize(const Netlist& nl) {
  Levelization out;
  const std::size_t n = nl.size();
  out.level.assign(n, 0);

  // Kahn's algorithm over combinational edges. Edges into a DFF's data pin
  // do not count (the DFF belongs to the next time frame).
  std::vector<int> pending(n, 0);
  for (GateId id = 0; id < n; ++id) {
    const Gate& g = nl.gate(id);
    pending[id] = is_source(g) ? 0 : static_cast<int>(g.fanin.size());
  }

  std::deque<GateId> ready;
  for (GateId id = 0; id < n; ++id) {
    if (pending[id] == 0) {
      ready.push_back(id);
    }
  }

  out.order.reserve(n);
  while (!ready.empty()) {
    const GateId id = ready.front();
    ready.pop_front();
    out.order.push_back(id);
    for (const GateId reader : nl.gate(id).fanout) {
      if (is_source(nl.gate(reader))) {
        continue;  // edge into a DFF: sequential, not combinational
      }
      out.level[reader] = std::max(out.level[reader], out.level[id] + 1);
      if (--pending[reader] == 0) {
        ready.push_back(reader);
      }
    }
  }

  check(out.order.size() == n,
        "netlist '" + nl.name() + "' contains a combinational cycle");
  for (GateId id = 0; id < n; ++id) {
    out.depth = std::max(out.depth, out.level[id]);
  }
  return out;
}

std::vector<int> distance_to_observation(const Netlist& nl) {
  constexpr int kUnreachable = std::numeric_limits<int>::max() / 2;
  std::vector<int> dist(nl.size(), kUnreachable);
  std::deque<GateId> work;
  for (GateId id = 0; id < nl.size(); ++id) {
    if (nl.is_observation_point(id)) {
      dist[id] = 0;
      work.push_back(id);
    }
  }
  while (!work.empty()) {
    const GateId id = work.front();
    work.pop_front();
    for (const GateId driver : nl.gate(id).fanin) {
      if (nl.gate(id).type == GateType::Dff) {
        continue;  // do not walk through the register
      }
      if (dist[driver] > dist[id] + 1) {
        dist[driver] = dist[id] + 1;
        work.push_back(driver);
      }
    }
  }
  return dist;
}

}  // namespace gdf::net
