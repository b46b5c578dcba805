#include "algebra/frame_sim.hpp"

#include <algorithm>

#include "base/error.hpp"

namespace gdf::alg {

VSet vset_primary_from_frames(int initial_bit, int final_bit) {
  VSet out = 0;
  for (const V8 v : {V8::Zero, V8::One, V8::Rise, V8::Fall}) {
    const bool init_ok = initial_bit < 0 || v8_initial(v) == initial_bit;
    const bool final_ok = final_bit < 0 || v8_final(v) == final_bit;
    if (init_ok && final_ok) {
      out |= vset_of(v);
    }
  }
  return out;
}

namespace {

/// One non-source node evaluation over already-settled input sets. `b` is
/// ignored for unary kinds.
inline VSet eval_node(const DelayAlgebra& algebra, NodeKind kind, VSet a,
                      VSet b) {
  switch (kind) {
    case NodeKind::Buf:
      return a;
    case NodeKind::Not:
      return algebra.set_not(a);
    case NodeKind::And2:
      return algebra.set_fwd(Op2::And, a, b);
    case NodeKind::Or2:
      return algebra.set_fwd(Op2::Or, a, b);
    case NodeKind::Xor2:
      return algebra.set_fwd(Op2::Xor, a, b);
    case NodeKind::Pi:
    case NodeKind::Ppi:
      break;
  }
  return kEmptySet;
}

}  // namespace

void TwoFrameSim::replay_cone(NodeId from,
                              std::vector<VSet>& node_sets) const {
  const AtpgModel& m = *model_;
  const NodeKind* kinds = m.kinds().data();
  const NodeId* in0s = m.in0s().data();
  const NodeId* in1s = m.in1s().data();
  VSet* sets = node_sets.data();
  work_.begin(m.node_count());
  for (const NodeId reader : m.fanout(from)) {
    work_.push(reader);
  }
  // Scheduled ids are always readers of changed nodes — never sources —
  // and pop ascending, so every input is final when its consumer
  // evaluates. The wave dies wherever a value is unchanged.
  NodeId id;
  while (work_.pop(&id)) {
    const NodeId in0 = in0s[id];
    const NodeId in1 = in1s[id];
    const VSet out = eval_node(*algebra_, kinds[id], sets[in0],
                               in1 != kNoNode ? sets[in1] : kEmptySet);
    if (out == sets[id]) {
      continue;
    }
    sets[id] = out;
    for (const NodeId reader : m.fanout(id)) {
      work_.push(reader);
    }
  }
}

void TwoFrameSim::run_forced(const TwoFrameStimulus& stimulus, NodeId forced,
                             VSet forced_set,
                             std::vector<VSet>& node_sets) const {
  run(stimulus, nullptr, node_sets);
  // Re-evaluate the forced node's cone with the overridden value. Nodes
  // outside the cone keep their fault-free sets.
  node_sets[forced] = forced_set;
  replay_cone(forced, node_sets);
}

void TwoFrameSim::run_injected(std::span<const VSet> baseline,
                               const FaultSpec& fault,
                               std::vector<VSet>& node_sets) const {
  GDF_ASSERT(baseline.size() == model_->node_count(),
             "baseline size mismatch");
  node_sets.assign(baseline.begin(), baseline.end());
  const VSet transformed =
      DelayAlgebra::site_transform(baseline[fault.site], fault.slow_to_rise);
  if (transformed == baseline[fault.site]) {
    return;  // no activating transition at the site: the cone is unchanged
  }
  node_sets[fault.site] = transformed;
  replay_cone(fault.site, node_sets);
}

void TwoFrameSim::rerun_sources(
    std::span<const std::pair<NodeId, VSet>> changed, const FaultSpec* fault,
    std::vector<VSet>& node_sets) const {
  const AtpgModel& m = *model_;
  GDF_ASSERT(node_sets.size() == m.node_count(), "node set size mismatch");
  const NodeKind* kinds = m.kinds().data();
  const NodeId* in0s = m.in0s().data();
  const NodeId* in1s = m.in1s().data();
  VSet* sets = node_sets.data();
  const NodeId site = fault != nullptr ? fault->site : kNoNode;
  work_.begin(m.node_count());
  bool any = false;
  for (const auto& [src, raw] : changed) {
    VSet v = static_cast<VSet>(raw & kPrimaryDomain);
    if (src == site) {
      v = DelayAlgebra::site_transform(v, fault->slow_to_rise);
    }
    if (v != sets[src]) {
      sets[src] = v;
      for (const NodeId reader : m.fanout(src)) {
        work_.push(reader);
      }
      any = true;
    }
  }
  if (!any) {
    return;
  }
  NodeId id;
  while (work_.pop(&id)) {
    const NodeId in0 = in0s[id];
    const NodeId in1 = in1s[id];
    VSet out = eval_node(*algebra_, kinds[id], sets[in0],
                         in1 != kNoNode ? sets[in1] : kEmptySet);
    if (id == site) {
      out = DelayAlgebra::site_transform(out, fault->slow_to_rise);
    }
    if (out == sets[id]) {
      continue;
    }
    sets[id] = out;
    for (const NodeId reader : m.fanout(id)) {
      work_.push(reader);
    }
  }
}

std::uint64_t TwoFrameSim::forced_sweep(std::span<const VSet> baseline,
                                        std::span<const ForcedLane> lanes,
                                        std::span<VSet> stop_values) const {
  const std::size_t n_nodes = model_->node_count();
  GDF_ASSERT(lanes.size() <= kPackedLanes,
             "too many scenarios for one packed sweep");
  GDF_ASSERT(baseline.size() == n_nodes, "baseline size mismatch");

  // One byte lane per scenario, one packed 64-bit word per node;
  // lane_dirty_[id] is the lane bitmask of scenarios whose value at `id`
  // differs from the shared baseline. Clean lanes read the baseline and
  // all per-node lane state is epoch-stamped, so a sweep touches only the
  // union of the (possibly truncated) cones.
  if (packed_.size() < n_nodes) {
    packed_.resize(n_nodes, 0);
    lane_dirty_.resize(n_nodes, 0);
    lane_forced_.resize(n_nodes, 0);
    lane_stamp_.resize(n_nodes, 0);
  }
  ++lane_epoch_;
  const auto touch = [&](NodeId id) {
    if (lane_stamp_[id] != lane_epoch_) {
      lane_stamp_[id] = lane_epoch_;
      packed_[id] = 0;
      lane_dirty_[id] = 0;
      lane_forced_[id] = 0;
    }
  };
  const auto dirty_of = [&](NodeId id) -> std::uint64_t {
    return lane_stamp_[id] == lane_epoch_ ? lane_dirty_[id] : 0;
  };
  const auto packed_get = [&](NodeId id, unsigned lane) -> VSet {
    return static_cast<VSet>(packed_[id] >> (8 * lane));
  };
  const auto packed_put = [&](NodeId id, unsigned lane, VSet v) {
    std::uint64_t& word = packed_[id];
    const unsigned shift = 8 * lane;
    word = (word & ~(std::uint64_t{0xFF} << shift)) |
           (std::uint64_t{v} << shift);
  };
  work_.begin(n_nodes);
  bool any_stop = false;
  std::uint64_t stop_lanes = 0;
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    const ForcedLane& lane = lanes[i];
    GDF_ASSERT(lane.node < n_nodes, "forced node out of range");
    touch(lane.node);
    packed_put(lane.node, static_cast<unsigned>(i), lane.set);
    lane_dirty_[lane.node] |= std::uint64_t{1} << i;
    lane_forced_[lane.node] |= std::uint64_t{1} << i;
    for (const NodeId reader : model_->fanout(lane.node)) {
      work_.push(reader);
    }
    if (lane.stop != kNoNode) {
      GDF_ASSERT(i < stop_values.size(), "missing stop_values entry");
      any_stop = true;
      stop_lanes |= std::uint64_t{1} << i;
      stop_values[i] = baseline[lane.stop];
    }
  }
  const auto lane_value = [&](NodeId id, unsigned lane) -> VSet {
    if ((dirty_of(id) >> lane & 1u) != 0) {
      return packed_get(id, lane);
    }
    return baseline[id];
  };
  NodeId id;
  while (work_.pop(&id)) {
    const Node& n = model_->node(id);
    const std::uint64_t in_dirty =
        dirty_of(n.in0) | (n.in1 != kNoNode ? dirty_of(n.in1) : 0);
    if (in_dirty == 0) {
      continue;  // the inputs' waves died before reaching this reader
    }
    touch(id);
    std::uint64_t affected = in_dirty & ~lane_forced_[id];
    while (affected != 0) {
      const unsigned lane = static_cast<unsigned>(__builtin_ctzll(affected));
      affected &= affected - 1;
      const VSet out = eval_node(
          *algebra_, n.kind, lane_value(n.in0, lane),
          n.in1 != kNoNode ? lane_value(n.in1, lane) : kEmptySet);
      if (out != baseline[id]) {
        packed_put(id, lane, out);
        lane_dirty_[id] |= std::uint64_t{1} << lane;
      }
    }
    // Truncated lanes hand their value over at the stop node and go quiet:
    // every path to an observation point passes it, so nothing downstream
    // of it can matter to the caller.
    if (any_stop) {
      std::uint64_t cand = lane_dirty_[id] & stop_lanes;
      while (cand != 0) {
        const unsigned i = static_cast<unsigned>(__builtin_ctzll(cand));
        cand &= cand - 1;
        if (lanes[i].stop == id) {
          stop_values[i] = packed_get(id, i);
          lane_dirty_[id] &= ~(std::uint64_t{1} << i);
        }
      }
    }
    if (lane_dirty_[id] != 0) {
      for (const NodeId reader : model_->fanout(id)) {
        work_.push(reader);
      }
    }
  }

  // A fault-free baseline is never carrier-only, so only lanes that dirtied
  // a PO observation point can observe. Truncated lanes answer at their
  // stop node instead and are filtered out of the verdict below (when the
  // stop is a true dominator their wave cannot reach a PO anyway).
  std::uint64_t mask = 0;
  for (const NodeId obs : model_->observation_points()) {
    if (!model_->node(obs).is_po) {
      continue;
    }
    std::uint64_t d = dirty_of(obs);
    while (d != 0) {
      const unsigned lane = static_cast<unsigned>(__builtin_ctzll(d));
      d &= d - 1;
      const VSet s = packed_get(obs, lane);
      if (s != kEmptySet && (s & ~kCarrierSet) == 0) {
        mask |= std::uint64_t{1} << lane;
      }
    }
  }
  return mask & ~stop_lanes;
}

void TwoFrameSim::run(const TwoFrameStimulus& stimulus,
                      const FaultSpec* fault,
                      std::vector<VSet>& node_sets) const {
  const AtpgModel& m = *model_;
  GDF_ASSERT(stimulus.pi_sets.size() == m.pis().size(),
             "PI stimulus size mismatch");
  GDF_ASSERT(stimulus.ppi_sets.size() == m.ppis().size(),
             "PPI stimulus size mismatch");
  const std::size_t n_nodes = m.node_count();
  node_sets.assign(n_nodes, kEmptySet);
  for (std::size_t i = 0; i < m.pis().size(); ++i) {
    node_sets[m.pis()[i]] =
        static_cast<VSet>(stimulus.pi_sets[i] & kPrimaryDomain);
  }
  for (std::size_t i = 0; i < m.ppis().size(); ++i) {
    node_sets[m.ppis()[i]] =
        static_cast<VSet>(stimulus.ppi_sets[i] & kPrimaryDomain);
  }
  // Node ids are topological, so one SoA sweep settles the whole model.
  const NodeKind* kinds = m.kinds().data();
  const NodeId* in0s = m.in0s().data();
  const NodeId* in1s = m.in1s().data();
  VSet* sets = node_sets.data();
  const NodeId site = fault != nullptr ? fault->site : kNoNode;
  for (NodeId id = 0; id < n_nodes; ++id) {
    const NodeKind kind = kinds[id];
    if (kind != NodeKind::Pi && kind != NodeKind::Ppi) {
      const NodeId in1 = in1s[id];
      sets[id] = eval_node(*algebra_, kind, sets[in0s[id]],
                           in1 != kNoNode ? sets[in1] : kEmptySet);
    }
    if (id == site) {
      sets[id] = DelayAlgebra::site_transform(sets[id], fault->slow_to_rise);
    }
  }
}

bool TwoFrameSim::guaranteed_observation(const TwoFrameStimulus& stimulus,
                                         const FaultSpec& fault,
                                         std::vector<NodeId>* where) const {
  std::vector<VSet> node_sets;
  run(stimulus, &fault, node_sets);
  bool observed = false;
  for (const NodeId obs : model_->observation_points()) {
    const VSet s = node_sets[obs];
    if (s != kEmptySet && (s & ~kCarrierSet) == 0) {
      observed = true;
      if (where != nullptr) {
        where->push_back(obs);
      }
    }
  }
  return observed;
}

}  // namespace gdf::alg
