#include "sim/flat_circuit.hpp"

#include "netlist/levelize.hpp"
#include "sim/sync_library.hpp"

namespace gdf::sim {

FlatCircuit::FlatCircuit(const net::Netlist& nl)
    : nl_(&nl), line_count_(nl.size()) {
  const net::Levelization lev = net::levelize(nl);
  std::size_t bodies = 0;
  std::size_t fanin_total = 0;
  for (const net::GateId id : lev.order) {
    const net::Gate& g = nl.gate(id);
    if (g.type == net::GateType::Input || g.type == net::GateType::Dff) {
      continue;
    }
    ++bodies;
    fanin_total += g.fanin.size();
  }
  out_.reserve(bodies);
  type_.reserve(bodies);
  fanin_begin_.reserve(bodies + 1);
  fanin_.reserve(fanin_total);
  fanin_begin_.push_back(0);
  for (const net::GateId id : lev.order) {
    const net::Gate& g = nl.gate(id);
    if (g.type == net::GateType::Input || g.type == net::GateType::Dff) {
      continue;
    }
    out_.push_back(id);
    type_.push_back(g.type);
    fanin_.insert(fanin_.end(), g.fanin.begin(), g.fanin.end());
    fanin_begin_.push_back(static_cast<std::uint32_t>(fanin_.size()));
  }
  inputs_.assign(nl.inputs().begin(), nl.inputs().end());
  outputs_.assign(nl.outputs().begin(), nl.outputs().end());
  dffs_.assign(nl.dffs().begin(), nl.dffs().end());
  dff_data_.reserve(dffs_.size());
  for (const net::GateId dff : dffs_) {
    dff_data_.push_back(nl.gate(dff).fanin[0]);
  }

  // Line → body map and the reader CSR (line → consuming body indices),
  // the incremental resettle's fanout walk.
  body_of_.assign(nl.size(), kNoBody);
  for (std::size_t b = 0; b < out_.size(); ++b) {
    body_of_[out_[b]] = static_cast<std::uint32_t>(b);
  }
  reader_begin_.assign(nl.size() + 1, 0);
  for (const net::GateId driver : fanin_) {
    ++reader_begin_[driver + 1];
  }
  for (std::size_t i = 1; i < reader_begin_.size(); ++i) {
    reader_begin_[i] += reader_begin_[i - 1];
  }
  reader_pool_.resize(fanin_.size());
  std::vector<std::uint32_t> cursor(reader_begin_.begin(),
                                    reader_begin_.end() - 1);
  for (std::size_t b = 0; b < out_.size(); ++b) {
    for (std::uint32_t i = fanin_begin_[b]; i < fanin_begin_[b + 1]; ++i) {
      reader_pool_[cursor[fanin_[i]]++] = static_cast<std::uint32_t>(b);
    }
  }

  level_ = lev.level;
  obs_distance_ = net::distance_to_observation(nl);
  pi_reachable_.assign(nl.size(), 0);
  for (const net::GateId id : lev.order) {
    const net::Gate& g = nl.gate(id);
    if (g.type == net::GateType::Input) {
      pi_reachable_[id] = 1;
      continue;
    }
    if (g.type == net::GateType::Dff) {
      continue;
    }
    for (const net::GateId driver : g.fanin) {
      if (pi_reachable_[driver] != 0) {
        pi_reachable_[id] = 1;
        break;
      }
    }
  }
}

FlatCircuit::~FlatCircuit() = default;

const SyncLibrary& FlatCircuit::sync_library() const {
  std::call_once(sync_once_, [this] {
    sync_library_ = std::make_unique<const SyncLibrary>(*this);
  });
  return *sync_library_;
}

std::shared_ptr<const FlatCircuit> FlatCircuit::build(const net::Netlist& nl) {
  return std::make_shared<const FlatCircuit>(nl);
}

}  // namespace gdf::sim
