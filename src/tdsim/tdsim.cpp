#include "tdsim/tdsim.hpp"

#include <algorithm>

#include "base/error.hpp"

namespace gdf::tdsim {

using alg::kCarrierSet;
using alg::kEmptySet;
using alg::Node;
using alg::NodeId;
using alg::V8;
using alg::VSet;

namespace {

/// Robust activation of the fault requires a guaranteed clean transition
/// of the right polarity at the site.
bool activated(VSet fault_free_site, bool slow_to_rise) {
  return fault_free_site ==
         alg::vset_of(slow_to_rise ? V8::Rise : V8::Fall);
}

bool carrier_only(VSet s) {
  return s != kEmptySet && (s & ~kCarrierSet) == 0;
}

}  // namespace

bool Tdsim::credited(const TdsimRequest& request,
                     std::span<const alg::VSet> fault_free,
                     std::span<const alg::VSet> injected) const {
  for (const NodeId obs : model_->observation_points()) {
    if (model_->node(obs).is_po && carrier_only(injected[obs])) {
      return true;
    }
  }
  for (std::size_t k = 0; k < model_->ppis().size(); ++k) {
    if (k >= request.observable_ppo.size() || !request.observable_ppo[k]) {
      continue;
    }
    const NodeId ppo = model_->ppo_node(k);
    if (!carrier_only(injected[ppo])) {
      continue;
    }
    // The paper's invalidation trace: the fault must leave every state bit
    // the propagation phase relies on exactly as in the good machine.
    bool invalidates = false;
    for (const std::size_t q : request.needed_ppos) {
      if (q == k) {
        continue;
      }
      const NodeId needed = model_->ppo_node(q);
      if (injected[needed] != fault_free[needed]) {
        invalidates = true;
        break;
      }
    }
    if (!invalidates) {
      return true;
    }
  }
  return false;
}

bool Tdsim::detect_one(const TdsimRequest& request,
                       std::span<const alg::VSet> fault_free,
                       const tdgen::DelayFault& fault) const {
  const NodeId site = model_->head_of(fault.line);
  if (!activated(fault_free[site], fault.slow_to_rise)) {
    return false;
  }
  const alg::FaultSpec spec{site, fault.slow_to_rise};
  std::vector<VSet> injected;
  sim_.run_injected(fault_free, spec, injected);
  return credited(request, fault_free, injected);
}

std::vector<bool> Tdsim::detect_exact(
    const TdsimRequest& request,
    std::span<const tdgen::DelayFault> faults) const {
  std::vector<VSet> fault_free;
  sim_.run(request.stimulus, nullptr, fault_free);
  std::vector<bool> detected(faults.size(), false);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    detected[i] = detect_one(request, fault_free, faults[i]);
  }
  return detected;
}

std::vector<bool> Tdsim::detect_cpt(
    const TdsimRequest& request,
    std::span<const tdgen::DelayFault> faults) const {
  std::vector<VSet> fault_free;
  sim_.run(request.stimulus, nullptr, fault_free);

  // Polarity-aware marks: mark_rc[n] (mark_fc[n]) is true when replacing
  // n's value by {Rc} ({Fc}) guarantees a carrier-only value at some PO.
  // Composed backward through single-reader chains; fanout stems fall back
  // to exact cone re-simulation — the classic CPT stem correction, made
  // dominator-aware: a stem's sweep is truncated at its immediate
  // dominator toward the observation sinks (every PO path passes it, so
  // the value arriving there together with the dominator's own marks
  // decides the stem — see the ForcedLane::stop contract) and stems that
  // cannot reach a PO at all skip their sweep outright.
  const std::size_t n_nodes = model_->node_count();
  std::vector<bool> mark_rc(n_nodes, false), mark_fc(n_nodes, false);

  const auto compose = [&](NodeId n, V8 polarity) -> bool {
    const std::span<const NodeId> readers = model_->fanout(n);
    const NodeId r = readers[0];
    const Node& rn = model_->node(r);
    VSet out;
    const VSet mine = alg::vset_of(polarity);
    switch (rn.kind) {
      case alg::NodeKind::Buf:
        out = mine;
        break;
      case alg::NodeKind::Not:
        out = algebra_->set_not(mine);
        break;
      default: {
        const alg::Op2 op = rn.kind == alg::NodeKind::And2
                                ? alg::Op2::And
                                : (rn.kind == alg::NodeKind::Or2
                                       ? alg::Op2::Or
                                       : alg::Op2::Xor);
        const VSet other =
            rn.in0 == n ? fault_free[rn.in1] : fault_free[rn.in0];
        out = algebra_->set_fwd(op, mine, other);
        break;
      }
    }
    if (!carrier_only(out)) {
      return false;
    }
    if (alg::vset_contains(out, V8::RiseC) &&
        alg::vset_contains(out, V8::FallC)) {
      // Mixed-polarity carrier sets are outside what polarity marks model
      // exactly; the caller falls back to exact injection for such faults.
      return false;
    }
    return alg::vset_contains(out, V8::RiseC) ? mark_rc[r] : mark_fc[r];
  };

  // A stem's truncated lane resolves from the value its wave leaves at the
  // dominator: a surviving non-carrier member kills the mark (non-carrier
  // members propagate to every downstream set), a single-polarity carrier
  // composes with the dominator's mark, and the rare mixed carrier is
  // decided exactly by one untruncated single-lane sweep from the
  // dominator.
  const auto resolve_stop = [&](VSet at_dom, NodeId dom) -> bool {
    if (at_dom == kEmptySet || (at_dom & ~kCarrierSet) != 0) {
      return false;
    }
    const bool has_rc = alg::vset_contains(at_dom, V8::RiseC);
    const bool has_fc = alg::vset_contains(at_dom, V8::FallC);
    if (has_rc && has_fc) {
      const alg::TwoFrameSim::ForcedLane lane{dom, at_dom, alg::kNoNode};
      return (sim_.forced_sweep(fault_free, {&lane, 1}, {}) & 1u) != 0;
    }
    return has_rc ? mark_rc[dom] : mark_fc[dom];
  };

  // One descending pass interleaves the chain composition with the stem
  // corrections: both only ever read marks of higher-id nodes. Stems batch
  // into one packed sweep (two polarities each, so four stems per sweep);
  // a batch flushes early whenever a mark it would feed is needed.
  constexpr std::size_t kStemsPerSweep = alg::TwoFrameSim::kPackedLanes / 2;
  struct PendingStem {
    NodeId stem;
    NodeId dom;
  };
  std::vector<PendingStem> pending;
  std::vector<alg::TwoFrameSim::ForcedLane> lanes;
  std::vector<VSet> stop_values;
  std::vector<bool> stem_pending(n_nodes, false);
  const auto flush = [&]() {
    if (pending.empty()) {
      return;
    }
    lanes.clear();
    for (const PendingStem& p : pending) {
      lanes.push_back({p.stem, alg::vset_of(V8::RiseC), p.dom});
      lanes.push_back({p.stem, alg::vset_of(V8::FallC), p.dom});
    }
    stop_values.assign(lanes.size(), kEmptySet);
    const std::uint64_t mask =
        sim_.forced_sweep(fault_free, lanes, stop_values);
    // Fill order is descending, so a dominator that is itself a pending
    // stem (always of higher id, hence added earlier) resolves before any
    // stem it dominates reads its marks.
    for (std::size_t i = 0; i < pending.size(); ++i) {
      const PendingStem& p = pending[i];
      if (p.dom == alg::kNoNode) {
        mark_rc[p.stem] = (mask >> (2 * i) & 1u) != 0;
        mark_fc[p.stem] = (mask >> (2 * i + 1) & 1u) != 0;
      } else {
        mark_rc[p.stem] = resolve_stop(stop_values[2 * i], p.dom);
        mark_fc[p.stem] = resolve_stop(stop_values[2 * i + 1], p.dom);
      }
      stem_pending[p.stem] = false;
    }
    pending.clear();
  };

  for (NodeId id = static_cast<NodeId>(n_nodes); id-- > 0;) {
    if (model_->node(id).is_po) {
      mark_rc[id] = true;
      mark_fc[id] = true;
      continue;
    }
    const std::span<const NodeId> readers = model_->fanout(id);
    if (readers.empty()) {
      continue;  // dead end stays false
    }
    if (readers.size() > 1) {
      if (!model_->po_reachable(id)) {
        continue;  // the sweep could only come back empty
      }
      // A dominator that is itself pending needs no early flush: fill
      // order is descending, so flush() resolves it before the stems it
      // dominates.
      pending.push_back({id, model_->idom(id)});
      stem_pending[id] = true;
      if (pending.size() == kStemsPerSweep) {
        flush();
      }
      continue;
    }
    if (stem_pending[readers[0]]) {
      flush();
    }
    mark_rc[id] = compose(id, V8::RiseC);
    mark_fc[id] = compose(id, V8::FallC);
  }
  flush();

  std::vector<bool> detected(faults.size(), false);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const tdgen::DelayFault& f = faults[i];
    const NodeId site = model_->head_of(f.line);
    if (!activated(fault_free[site], f.slow_to_rise)) {
      continue;
    }
    if (f.slow_to_rise ? mark_rc[site] : mark_fc[site]) {
      detected[i] = true;
      continue;
    }
    // Not provable at a PO by tracing: the PPO paths (and their
    // invalidation rule) need the full injected picture.
    detected[i] = detect_one(request, fault_free, f);
  }
  return detected;
}

}  // namespace gdf::tdsim
