// Decomposed circuit model for the eight-valued engines.
//
// Every netlist gate is expanded into a chain of two-input associative
// bodies (And2/Or2/Xor2) plus explicit Not/Buf nodes, so that set-level
// implication is local and exact per node. The last node of each gate's
// chain is the gate's "head": it carries the original gate's output line,
// is the fault site for that line, and holds the PO/PPO observability
// roles. Node ids are topologically ordered by construction.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "algebra/tables.hpp"
#include "netlist/levelize.hpp"
#include "netlist/netlist.hpp"

namespace gdf::alg {

using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = 0xFFFFFFFFu;

enum class NodeKind : std::uint8_t { Pi, Ppi, And2, Or2, Xor2, Not, Buf };

struct Node {
  NodeKind kind = NodeKind::Buf;
  NodeId in0 = kNoNode;
  NodeId in1 = kNoNode;  ///< kNoNode for unary kinds
  net::GateId origin = net::kNoGate;  ///< set on head nodes only
  std::int32_t pi_index = -1;   ///< position in Netlist::inputs() (Pi only)
  std::int32_t ppi_index = -1;  ///< position in Netlist::dffs() (Ppi only)
  bool is_po = false;           ///< head of a primary-output gate

  bool unary() const { return kind == NodeKind::Not || kind == NodeKind::Buf; }
  bool source() const { return kind == NodeKind::Pi || kind == NodeKind::Ppi; }
};

class AtpgModel {
 public:
  explicit AtpgModel(const net::Netlist& nl);

  const net::Netlist& netlist() const { return *nl_; }

  std::size_t node_count() const { return nodes_.size(); }
  const Node& node(NodeId id) const { return nodes_[id]; }
  std::span<const NodeId> fanout(NodeId id) const {
    return std::span<const NodeId>(fanout_pool_.data() + fanout_begin_[id],
                                   fanout_begin_[id + 1] - fanout_begin_[id]);
  }

  // Flattened structure-of-arrays view of the node graph — what the hot
  // loops (implication fixpoint, two-frame simulation) walk instead of the
  // AoS `node()` records.
  std::span<const NodeKind> kinds() const { return kind_; }
  std::span<const NodeId> in0s() const { return in0_; }
  std::span<const NodeId> in1s() const { return in1_; }
  /// CSR fanout: readers of `id` are fanout_pool()[fanout_begin()[id] ..
  /// fanout_begin()[id+1]].
  std::span<const std::uint32_t> fanout_begin() const { return fanout_begin_; }
  std::span<const NodeId> fanout_pool() const { return fanout_pool_; }
  /// Parallel to fanout_pool(): which input pins of the reader this edge
  /// feeds (bit 0 = in0, bit 1 = in1) — precomputed so event-driven
  /// engines need one load per edge instead of re-deriving it.
  std::span<const std::uint8_t> fanout_in_bits() const {
    return fanout_in_bits_;
  }

  /// Node completing the function of netlist gate `g`.
  NodeId head_of(net::GateId g) const { return head_[g]; }

  std::span<const NodeId> pis() const { return pi_nodes_; }
  std::span<const NodeId> ppis() const { return ppi_nodes_; }

  /// Head node of the gate driving flip-flop `dff_index`'s data pin — the
  /// pseudo primary output of that flip-flop.
  NodeId ppo_node(std::size_t dff_index) const { return ppo_nodes_[dff_index]; }
  std::span<const NodeId> ppo_nodes() const { return ppo_nodes_; }

  /// PO heads followed by PPO heads, deduplicated.
  std::span<const NodeId> observation_points() const { return obs_; }
  bool is_observation(NodeId id) const { return obs_mask_[id]; }

  /// Minimum node distance to an observation point (large sentinel when
  /// unreachable) — the propagation guidance heuristic.
  int obs_distance(NodeId id) const { return obs_distance_[id]; }

  /// True when some observation point is reachable through `id`'s fanout.
  bool obs_reachable(NodeId id) const { return obs_reach_[id] != 0; }

  /// Immediate dominator of `id` toward the observation sinks: the unique
  /// nearest node (other than `id`) that every path from `id` to every
  /// reachable observation point passes through. kNoNode when `id` is
  /// dominated only by the virtual sink (its paths diverge for good, or it
  /// is itself an observation point) or when no observation point is
  /// reachable at all — disambiguate with obs_reachable(). Chains strictly
  /// increase in node id, so idom walks terminate.
  NodeId idom(NodeId id) const { return idom_[id]; }

  /// Flip-flop indices for which `id` serves as the PPI or PPO partner (a
  /// PPO node can serve several flip-flops when fanout is not expanded),
  /// as a CSR so the common no-role case is a two-load check. Shared by
  /// every implication engine built over this model.
  std::span<const std::uint32_t> register_roles(NodeId id) const {
    return std::span<const std::uint32_t>(
        role_pool_.data() + role_begin_[id],
        role_begin_[id + 1] - role_begin_[id]);
  }

  /// Nodes in the transitive fanout of `from` (including `from`): the only
  /// nodes on which a fault at `from` can place a carrier value.
  std::vector<NodeId> carrier_cone(NodeId from) const;

 private:
  NodeId add_node(Node n);

  const net::Netlist* nl_;
  std::vector<Node> nodes_;
  std::vector<NodeKind> kind_;
  std::vector<NodeId> in0_;
  std::vector<NodeId> in1_;
  std::vector<std::uint32_t> fanout_begin_;
  std::vector<NodeId> fanout_pool_;
  std::vector<std::uint8_t> fanout_in_bits_;
  std::vector<NodeId> head_;
  std::vector<NodeId> pi_nodes_;
  std::vector<NodeId> ppi_nodes_;
  std::vector<NodeId> ppo_nodes_;
  std::vector<NodeId> obs_;
  std::vector<bool> obs_mask_;
  std::vector<int> obs_distance_;
  std::vector<std::uint8_t> obs_reach_;
  std::vector<NodeId> idom_;
  std::vector<std::uint32_t> role_begin_;
  std::vector<std::uint32_t> role_pool_;
};

}  // namespace gdf::alg
