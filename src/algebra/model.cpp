#include "algebra/model.hpp"

#include <deque>
#include <limits>

#include "base/error.hpp"

namespace gdf::alg {

namespace {
constexpr int kUnreachable = std::numeric_limits<int>::max() / 2;

NodeKind body_kind(net::GateType type) {
  using net::GateType;
  switch (type) {
    case GateType::And:
    case GateType::Nand:
      return NodeKind::And2;
    case GateType::Or:
    case GateType::Nor:
      return NodeKind::Or2;
    case GateType::Xor:
    case GateType::Xnor:
      return NodeKind::Xor2;
    default:
      GDF_ASSERT(false, "body_kind on non-foldable gate");
      return NodeKind::And2;
  }
}
}  // namespace

NodeId AtpgModel::add_node(Node n) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  GDF_ASSERT(n.in0 == kNoNode || n.in0 < id, "node ids must be topological");
  GDF_ASSERT(n.in1 == kNoNode || n.in1 < id, "node ids must be topological");
  nodes_.push_back(n);
  return id;
}

AtpgModel::AtpgModel(const net::Netlist& nl) : nl_(&nl) {
  head_.assign(nl.size(), kNoNode);
  pi_nodes_.assign(nl.inputs().size(), kNoNode);
  ppi_nodes_.assign(nl.dffs().size(), kNoNode);

  const net::Levelization lev = net::levelize(nl);
  for (const net::GateId g : lev.order) {
    const net::Gate& gate = nl.gate(g);
    using net::GateType;
    switch (gate.type) {
      case GateType::Input: {
        Node n;
        n.kind = NodeKind::Pi;
        n.origin = g;
        head_[g] = add_node(n);
        break;
      }
      case GateType::Dff: {
        Node n;
        n.kind = NodeKind::Ppi;
        n.origin = g;
        head_[g] = add_node(n);
        break;
      }
      case GateType::Buf:
      case GateType::Not: {
        Node n;
        n.kind =
            gate.type == GateType::Buf ? NodeKind::Buf : NodeKind::Not;
        n.in0 = head_[gate.fanin[0]];
        GDF_ASSERT(n.in0 != kNoNode, "driver not yet decomposed");
        n.origin = g;
        head_[g] = add_node(n);
        break;
      }
      default: {
        // Foldable body: left-deep chain of two-input nodes.
        const NodeKind kind = body_kind(gate.type);
        NodeId acc = head_[gate.fanin[0]];
        GDF_ASSERT(acc != kNoNode, "driver not yet decomposed");
        for (std::size_t i = 1; i < gate.fanin.size(); ++i) {
          Node n;
          n.kind = kind;
          n.in0 = acc;
          n.in1 = head_[gate.fanin[i]];
          GDF_ASSERT(n.in1 != kNoNode, "driver not yet decomposed");
          acc = add_node(n);
        }
        if (net::is_inverting(gate.type)) {
          Node n;
          n.kind = NodeKind::Not;
          n.in0 = acc;
          acc = add_node(n);
        } else if (gate.fanin.size() == 1) {
          // Single-input AND/OR degenerates to a buffer; the head must
          // still be a fresh node so the fault site is this gate's output,
          // not its driver's.
          Node n;
          n.kind = NodeKind::Buf;
          n.in0 = acc;
          acc = add_node(n);
        }
        nodes_[acc].origin = g;
        head_[g] = acc;
        break;
      }
    }
  }

  // Interface roles.
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
    const NodeId id = head_[nl.inputs()[i]];
    nodes_[id].pi_index = static_cast<std::int32_t>(i);
    pi_nodes_[i] = id;
  }
  for (std::size_t i = 0; i < nl.dffs().size(); ++i) {
    const NodeId id = head_[nl.dffs()[i]];
    nodes_[id].ppi_index = static_cast<std::int32_t>(i);
    ppi_nodes_[i] = id;
  }
  ppo_nodes_.reserve(nl.dffs().size());
  for (const net::GateId dff : nl.dffs()) {
    ppo_nodes_.push_back(head_[nl.gate(dff).fanin[0]]);
  }

  obs_mask_.assign(nodes_.size(), false);
  for (const net::GateId po : nl.outputs()) {
    nodes_[head_[po]].is_po = true;
    if (!obs_mask_[head_[po]]) {
      obs_mask_[head_[po]] = true;
      obs_.push_back(head_[po]);
    }
  }
  for (const NodeId ppo : ppo_nodes_) {
    if (!obs_mask_[ppo]) {
      obs_mask_[ppo] = true;
      obs_.push_back(ppo);
    }
  }

  // Flattened SoA mirrors of the node records plus the CSR fanout — the
  // form the hot loops walk. Reader lists come out sorted ascending, the
  // order incremental construction used to produce.
  kind_.reserve(nodes_.size());
  in0_.reserve(nodes_.size());
  in1_.reserve(nodes_.size());
  for (const Node& n : nodes_) {
    kind_.push_back(n.kind);
    in0_.push_back(n.in0);
    in1_.push_back(n.in1);
  }
  fanout_begin_.assign(nodes_.size() + 1, 0);
  for (const Node& n : nodes_) {
    if (n.in0 != kNoNode) {
      ++fanout_begin_[n.in0 + 1];
    }
    if (n.in1 != kNoNode) {
      ++fanout_begin_[n.in1 + 1];
    }
  }
  for (std::size_t i = 1; i < fanout_begin_.size(); ++i) {
    fanout_begin_[i] += fanout_begin_[i - 1];
  }
  fanout_pool_.resize(fanout_begin_.back());
  fanout_in_bits_.resize(fanout_begin_.back());
  std::vector<std::uint32_t> cursor(fanout_begin_.begin(),
                                    fanout_begin_.end() - 1);
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const Node& n = nodes_[id];
    if (n.in0 != kNoNode) {
      fanout_in_bits_[cursor[n.in0]] = 1;
      fanout_pool_[cursor[n.in0]++] = id;
    }
    if (n.in1 != kNoNode) {
      fanout_in_bits_[cursor[n.in1]] = 2;
      fanout_pool_[cursor[n.in1]++] = id;
    }
  }

  // Backward BFS from observation points for the distance heuristic.
  obs_distance_.assign(nodes_.size(), kUnreachable);
  std::deque<NodeId> work;
  for (const NodeId id : obs_) {
    obs_distance_[id] = 0;
    work.push_back(id);
  }
  while (!work.empty()) {
    const NodeId id = work.front();
    work.pop_front();
    const Node& n = nodes_[id];
    for (const NodeId input : {n.in0, n.in1}) {
      if (input != kNoNode && obs_distance_[input] > obs_distance_[id] + 1) {
        obs_distance_[input] = obs_distance_[id] + 1;
        work.push_back(input);
      }
    }
  }

  // Reachability mask and immediate dominators toward the observation
  // sinks, in one reverse-topological pass. The dominator relation is over
  // the fanout DAG extended with a virtual sink T fed by every observation
  // point; kNoNode plays the role of T (conveniently the largest id, so
  // the standard two-finger intersection walk works unchanged). Node ids
  // are topological, so when `id` is processed every reader has its final
  // idom.
  obs_reach_.assign(nodes_.size(), 0);
  idom_.assign(nodes_.size(), kNoNode);
  const auto intersect = [this](NodeId a, NodeId b) {
    while (a != b) {
      if (a < b) {
        a = idom_[a];
      } else {
        b = idom_[b];
      }
    }
    return a;
  };
  for (NodeId id = static_cast<NodeId>(nodes_.size()); id-- > 0;) {
    bool reach = obs_mask_[id];
    // An observation point's own edge to T pins its idom at T (kNoNode);
    // otherwise start undefined and fold the reachable readers in.
    bool have = reach;
    NodeId cand = kNoNode;
    for (const NodeId reader : fanout(id)) {
      if (!obs_reach_[reader]) {
        continue;
      }
      reach = true;
      cand = have ? intersect(cand, reader) : reader;
      have = true;
    }
    obs_reach_[id] = reach ? 1 : 0;
    idom_[id] = reach ? cand : kNoNode;
  }

  // Register-role CSR: dff indices for which a node is the PPI / PPO
  // partner.
  std::vector<std::vector<std::uint32_t>> roles(nodes_.size());
  for (std::size_t k = 0; k < ppi_nodes_.size(); ++k) {
    roles[ppi_nodes_[k]].push_back(static_cast<std::uint32_t>(k));
    roles[ppo_nodes_[k]].push_back(static_cast<std::uint32_t>(k));
  }
  role_begin_.assign(nodes_.size() + 1, 0);
  for (std::size_t id = 0; id < nodes_.size(); ++id) {
    role_begin_[id + 1] =
        role_begin_[id] + static_cast<std::uint32_t>(roles[id].size());
  }
  role_pool_.reserve(role_begin_.back());
  for (const auto& r : roles) {
    role_pool_.insert(role_pool_.end(), r.begin(), r.end());
  }
}

std::vector<NodeId> AtpgModel::carrier_cone(NodeId from) const {
  std::vector<NodeId> cone;
  std::vector<bool> seen(nodes_.size(), false);
  std::deque<NodeId> work{from};
  seen[from] = true;
  while (!work.empty()) {
    const NodeId id = work.front();
    work.pop_front();
    cone.push_back(id);
    for (const NodeId reader : fanout(id)) {
      if (!seen[reader]) {
        seen[reader] = true;
        work.push_back(reader);
      }
    }
  }
  return cone;
}

}  // namespace gdf::alg
