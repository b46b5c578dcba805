#include "tdgen/implication.hpp"

#include <cstdlib>

#include "base/error.hpp"

namespace gdf::tdgen {

using alg::kCarrierSet;
using alg::kCleanSet;
using alg::kEmptySet;
using alg::kFullSet;
using alg::kNoNode;
using alg::kPrimaryDomain;
using alg::Mode;
using alg::Node;
using alg::NodeId;
using alg::NodeKind;
using alg::Op2;
using alg::VSet;

// Both algebra modes keep the initial-frame component exact (the
// non-robust table is restricted to the hazard relaxation for exactly this
// reason — see tables.cpp), so the register constraint can use value
// initials directly in either mode.

bool full_fixpoint_requested() {
  static const bool requested = [] {
    const char* env = std::getenv("GDF_FULL_FIXPOINT");
    return env != nullptr && *env != '\0' && *env != '0';
  }();
  return requested;
}

ImplicationEngine::ImplicationEngine(const alg::AtpgModel& model,
                                     const alg::DelayAlgebra& algebra,
                                     bool full_fixpoint)
    : model_(&model),
      algebra_(&algebra),
      kinds_(model.kinds().data()),
      in0s_(model.in0s().data()),
      in1s_(model.in1s().data()),
      fo_begin_(model.fanout_begin().data()),
      fo_pool_(model.fanout_pool().data()),
      fo_bits_(model.fanout_in_bits().data()),
      full_fixpoint_(full_fixpoint) {
  sets_.assign(model.node_count(), kFullSet);
  pending_.assign(model.node_count(), 0);
  in_cone_.assign(model.node_count(), 0);
  mark_epoch_.assign(model.node_count(), 0);
  activity_.assign(model.node_count(), 0.0);
}

void ImplicationEngine::init(const alg::FaultSpec& fault) {
  fault_ = fault;
  trail_.clear();
  level_marks_.clear();
  clear_queue();
  conflict_ = false;
  conflict_node_ = kNoNode;
  activity_.assign(model_->node_count(), 0.0);
  act_inc_ = 1.0;

  in_cone_.assign(model_->node_count(), 0);
  site_chain_.clear();
  if (fault.site != kNoNode) {
    for (const NodeId id : model_->carrier_cone(fault.site)) {
      in_cone_[id] = 1;
    }
    // The site's dominator chain: every observation path passes each of
    // these, so a carrier-free chain node proves unobservability.
    for (NodeId d = model_->idom(fault.site); d != kNoNode;
         d = model_->idom(d)) {
      site_chain_.push_back(d);
    }
  }
  for (NodeId id = 0; id < model_->node_count(); ++id) {
    const Node& n = model_->node(id);
    VSet s = n.source() ? kPrimaryDomain : kFullSet;
    if (!in_cone_[id]) {
      s &= kCleanSet;
    } else if (id == fault.site) {
      s = alg::DelayAlgebra::site_transform(s, fault.slow_to_rise);
    }
    sets_[id] = s;
    add_pending(id, kAll);
  }
  propagate();
  save_root();
}

void ImplicationEngine::save_root() {
  GDF_ASSERT(level_marks_.empty(), "save_root inside a decision level");
  root_sets_ = sets_;
  root_conflict_ = conflict_;
  root_ready_ = true;
}

bool ImplicationEngine::init_from(const ImplicationEngine& donor,
                                  const alg::FaultSpec& fault) {
  if (!donor.root_ready_ || donor.model_ != model_ ||
      donor.algebra_ != algebra_ || donor.fault_.site != fault.site ||
      donor.fault_.slow_to_rise != fault.slow_to_rise) {
    return false;
  }
  fault_ = fault;
  trail_.clear();
  level_marks_.clear();
  clear_queue();
  sets_ = donor.root_sets_;
  conflict_ = donor.root_conflict_;
  conflict_node_ = kNoNode;
  activity_.assign(model_->node_count(), 0.0);
  act_inc_ = 1.0;
  site_chain_ = donor.site_chain_;
  root_sets_ = donor.root_sets_;
  root_conflict_ = donor.root_conflict_;
  root_ready_ = true;
  return true;
}

bool ImplicationEngine::assign(NodeId n, VSet allowed) {
  ++counters_.assigns;
  if (conflict_) {
    return false;
  }
  // The trail records the assigned constraint (in the reason slot) so
  // conflict analysis can recover the external fact "n ⊆ allowed".
  if (!narrow(n, static_cast<VSet>(sets_[n] & allowed),
              static_cast<NodeId>(allowed), Why::External)) {
    return false;
  }
  return propagate();
}

void ImplicationEngine::clear_queue() {
  // Only entries still pending carry a mask; resetting those is O(queue)
  // instead of O(nodes).
  for (std::size_t i = queue_head_; i < queue_.size(); ++i) {
    pending_[queue_[i]] = 0;
  }
  queue_.clear();
  queue_head_ = 0;
}

void ImplicationEngine::rollback(std::size_t m) {
  GDF_ASSERT(m <= trail_.size(), "rollback past trail head");
  counters_.trail_pops += static_cast<long>(trail_.size() - m);
  while (trail_.size() > m) {
    const TrailEntry& e = trail_.back();
    sets_[e.node] = e.old_set;
    trail_.pop_back();
  }
  clear_queue();
  conflict_ = false;
  conflict_node_ = kNoNode;
}

void ImplicationEngine::backtrack_level() {
  GDF_ASSERT(!level_marks_.empty(), "backtrack_level without a level");
  rollback(level_marks_.back());
}

void ImplicationEngine::pop_level() {
  GDF_ASSERT(!level_marks_.empty(), "pop_level without a level");
  rollback(level_marks_.back());
  level_marks_.pop_back();
}

bool ImplicationEngine::narrow(NodeId n, VSet next, NodeId reason, Why why) {
  const VSet current = sets_[n];
  next &= current;
  if (next == current) {
    return true;
  }
  trail_.push_back({n, reason, current, why});
  ++counters_.trail_pushes;
  sets_[n] = next;
  if (next == kEmptySet) {
    conflict_ = true;
    conflict_node_ = n;
    ++counters_.conflicts;
    return false;
  }
  mark_dirty(n);
  return true;
}

void ImplicationEngine::add_pending(NodeId n, std::uint8_t bits) {
  const std::uint8_t cur = pending_[n];
  if ((cur | bits) == cur) {
    return;
  }
  if (cur == 0) {
    queue_.push_back(n);
  }
  pending_[n] = static_cast<std::uint8_t>(cur | bits);
}

void ImplicationEngine::mark_dirty(NodeId n) {
  // The rules whose operands just changed: n's own backward prune and
  // register role (kSelf), and per reader the forward image plus the
  // sibling's backward prune (kIn0/kIn1, precomputed per edge). The
  // exhaustive debug schedule re-runs everything on every touched node
  // instead.
  const std::uint32_t lo = fo_begin_[n];
  const std::uint32_t hi = fo_begin_[n + 1];
  if (full_fixpoint_) {
    add_pending(n, kAll);
    for (std::uint32_t e = lo; e < hi; ++e) {
      add_pending(fo_pool_[e], kAll);
    }
    return;
  }
  add_pending(n, kSelf);
  for (std::uint32_t e = lo; e < hi; ++e) {
    add_pending(fo_pool_[e], fo_bits_[e]);
  }
}

alg::VSet ImplicationEngine::forward_raw(NodeId id) const {
  const NodeId in0 = in0s_[id];
  switch (kinds_[id]) {
    case NodeKind::Buf:
      return sets_[in0];
    case NodeKind::Not:
      return algebra_->set_not(sets_[in0]);
    case NodeKind::And2:
      return algebra_->set_fwd(Op2::And, sets_[in0], sets_[in1s_[id]]);
    case NodeKind::Or2:
      return algebra_->set_fwd(Op2::Or, sets_[in0], sets_[in1s_[id]]);
    case NodeKind::Xor2:
      return algebra_->set_fwd(Op2::Xor, sets_[in0], sets_[in1s_[id]]);
    case NodeKind::Pi:
    case NodeKind::Ppi:
      break;
  }
  GDF_ASSERT(false, "forward_raw on a source node");
  return kEmptySet;
}

bool ImplicationEngine::apply_register_pair(std::size_t dff_index) {
  const NodeId ppi = model_->ppis()[dff_index];
  const NodeId ppo = model_->ppo_node(dff_index);
  const unsigned allowed_fins = alg::vset_initials(sets_[ppo]);
  if (!narrow(ppi, alg::vset_with_final_in(sets_[ppi], allowed_fins), ppo,
              Why::RegPair)) {
    return false;
  }
  const unsigned allowed_inits = alg::vset_finals(sets_[ppi]);
  return narrow(ppo, alg::vset_with_initial_in(sets_[ppo], allowed_inits),
                ppi, Why::RegPair);
}

bool ImplicationEngine::process(NodeId id, std::uint8_t pend) {
  const NodeKind kind = kinds_[id];
  const bool is_site = id == fault_.site;
  if (kind != NodeKind::Pi && kind != NodeKind::Ppi) {
    if ((pend & (kIn0 | kIn1)) != 0) {
      VSet raw = forward_raw(id);
      if (is_site) {
        raw = alg::DelayAlgebra::site_transform(raw, fault_.slow_to_rise);
      }
      if (!narrow(id, raw, id, Why::Forward)) {
        return false;
      }
      // A forward narrowing re-marks this node kSelf; absorb it now so the
      // backward prunes below run against the fresh output set instead of
      // re-queuing the node.
      pend |= pending_[id];
      pending_[id] = 0;
    }
    VSet out_req = sets_[id];
    if (is_site) {
      out_req =
          alg::DelayAlgebra::site_transform_pre(out_req, fault_.slow_to_rise);
    }
    const NodeId in0 = in0s_[id];
    switch (kind) {
      case NodeKind::Buf:
        // The unary backward prune depends on the output set alone.
        if ((pend & kSelf) != 0 && !narrow(in0, out_req, id, Why::BwdIn)) {
          return false;
        }
        break;
      case NodeKind::Not:
        if ((pend & kSelf) != 0 &&
            !narrow(in0, algebra_->set_not(out_req), id, Why::BwdIn)) {
          return false;
        }
        break;
      case NodeKind::And2:
      case NodeKind::Or2:
      case NodeKind::Xor2: {
        const Op2 op = kind == NodeKind::And2
                           ? Op2::And
                           : (kind == NodeKind::Or2 ? Op2::Or : Op2::Xor);
        const NodeId in1 = in1s_[id];
        // in0's prune reads (in1, out); in1's reads (in0, out). Run each
        // only when one of its operands changed.
        if ((pend & (kSelf | kIn1)) != 0 &&
            !narrow(in0,
                    algebra_->set_bwd_first(op, sets_[in0], sets_[in1],
                                            out_req),
                    id, Why::BwdIn)) {
          return false;
        }
        if ((pend & (kSelf | kIn0)) != 0 &&
            !narrow(in1,
                    algebra_->set_bwd_first(op, sets_[in1], sets_[in0],
                                            out_req),
                    id, Why::BwdIn)) {
          return false;
        }
        break;
      }
      case NodeKind::Pi:
      case NodeKind::Ppi:
        break;
    }
  }
  if ((pend & kSelf) != 0) {
    for (const std::uint32_t role : model_->register_roles(id)) {
      if (!apply_register_pair(role)) {
        return false;
      }
    }
  }
  return true;
}

bool ImplicationEngine::analyze(Analysis* out) {
  out->lits.clear();
  out->levels.clear();
  if (!conflict_ || level_marks_.empty()) {
    return false;
  }

  ++analysis_epoch_;
  const std::uint64_t epoch = analysis_epoch_;
  marked_nodes_.clear();
  const auto mark = [&](NodeId n) {
    if (n == kNoNode || mark_epoch_[n] == epoch) {
      return;
    }
    mark_epoch_[n] = epoch;
    marked_nodes_.push_back(n);
  };
  // Replace a narrowing by the facts its rule read. The narrowed node
  // itself stays marked: its earlier entries (and ultimately its init
  // value) are conjuncts of the value the rule consumed.
  const auto resolve_rule = [&](const TrailEntry& e) {
    switch (e.why) {
      case Why::Forward:
        mark(in0s_[e.node]);
        mark(in1s_[e.node]);
        break;
      case Why::BwdIn: {
        const NodeId g = e.reason;
        mark(g);
        const NodeKind kind = kinds_[g];
        if (kind == NodeKind::And2 || kind == NodeKind::Or2 ||
            kind == NodeKind::Xor2) {
          mark(in0s_[g] == e.node ? in1s_[g] : in0s_[g]);
        }
        break;
      }
      case Why::RegPair:
        mark(e.reason);
        break;
      case Why::External:
        break;
    }
  };

  // Seed with the conflict's cause, the emptied node.
  GDF_ASSERT(conflict_node_ != kNoNode, "conflict without a cause");
  mark(conflict_node_);

  // Walk the decision-level trail segment top-down. Marked external
  // entries are the decision constraints the conflict rests on; marked
  // rule entries dissolve into their antecedents. (A linear scan beats a
  // per-node index here: segment entries stream sequentially and the
  // mark-epoch probe hits L2, where worklist variants chase pointers.)
  level_flags_.assign(level_marks_.size() + 1, 0);
  std::size_t lvl = level_marks_.size();
  const std::size_t stop = level_marks_[0];
  for (std::size_t i = trail_.size(); i-- > stop;) {
    const TrailEntry& e = trail_[i];
    while (lvl > 0 && i < level_marks_[lvl - 1]) {
      --lvl;
    }
    if (mark_epoch_[e.node] != epoch) {
      continue;
    }
    if (e.why == Why::External) {
      out->lits.push_back({e.node, static_cast<VSet>(e.reason)});
      level_flags_[lvl] = 1;
    } else {
      resolve_rule(e);
    }
  }
  for (std::size_t l = 1; l < level_flags_.size(); ++l) {
    if (level_flags_[l] != 0) {
      out->levels.push_back(static_cast<std::uint32_t>(l));
    }
  }
  // EVSIDS bump: every node on the conflict side (marked during the walk)
  // gains the current increment, then the increment grows — a geometric
  // decay of all other activities without touching them. Purely per-fault
  // state (reset by init), so decision ordering derived from it stays a
  // deterministic function of this search's own conflict history.
  for (const NodeId n : marked_nodes_) {
    activity_[n] += act_inc_;
  }
  act_inc_ *= (1.0 / 0.95);
  if (act_inc_ > 1e100) {
    for (double& a : activity_) {
      a *= 1e-100;
    }
    act_inc_ *= 1e-100;
  }
  return !out->lits.empty();
}

bool ImplicationEngine::propagate() {
  while (queue_head_ < queue_.size()) {
    const NodeId id = queue_[queue_head_++];
    const std::uint8_t pend = pending_[id];
    pending_[id] = 0;
    if (pend != 0 && !process(id, pend)) {
      clear_queue();
      return false;
    }
    if (queue_head_ == queue_.size()) {
      queue_.clear();
      queue_head_ = 0;
    }
  }
  return true;
}

}  // namespace gdf::tdgen
