#include "tdgen/tdgen.hpp"

#include <algorithm>
#include <array>
#include <span>

#include "base/error.hpp"

namespace gdf::tdgen {

using alg::kCarrierSet;
using alg::kEmptySet;
using alg::Node;
using alg::NodeId;
using alg::V8;
using alg::VSet;
using alg::vset_carrier_only;

TdgenSearch::TdgenSearch(const alg::AtpgModel& model,
                         const alg::DelayAlgebra& algebra, DelayFault fault,
                         TdgenOptions options)
    : model_(&model),
      fault_(fault),
      options_(options),
      engine_(model, algebra),
      sim_(model, algebra) {
  GDF_ASSERT(fault.line < model.netlist().size(), "fault line out of range");
  spec_.site = model.head_of(fault.line);
  spec_.slow_to_rise = fault.slow_to_rise;
  if (options_.learn && options_.vsids) {
    saved_phase_.assign(model.node_count(), kEmptySet);
  }
  if (options_.init_donor != nullptr) {
    const TdgenSearch& donor = *options_.init_donor;
    GDF_ASSERT(
        donor.primed_ && donor.model_ == &model && donor.fault_ == fault,
        "init_donor must be a primed search over the same fault");
    cone_ = donor.cone_;
    pins_ = donor.pins_;
    inherited_pins_ = pins_.size();
  } else {
    cone_storage_ = model.carrier_cone(spec_.site);
    // Deterministic frontier scans in observation-distance order.
    std::sort(cone_storage_.begin(), cone_storage_.end(),
              [&model](NodeId a, NodeId b) {
                if (model.obs_distance(a) != model.obs_distance(b)) {
                  return model.obs_distance(a) < model.obs_distance(b);
                }
                return a < b;
              });
    cone_ = &cone_storage_;
  }
}

TdgenSearch::~TdgenSearch() {
  if (options_.tally == nullptr) {
    return;
  }
  SearchCounters tally = probe_counters_;
  tally.implication_assigns = engine_.counters().assigns;
  tally.trail_pushes = engine_.counters().trail_pushes;
  tally.trail_pops = engine_.counters().trail_pops;
  tally.conflicts = engine_.counters().conflicts;
  tally.backjump_levels_skipped = backjump_levels_skipped_;
  options_.tally->add(tally);
}

void TdgenSearch::pin_ppo(std::size_t dff_index, VSet allowed) {
  GDF_ASSERT(!primed_, "pin_ppo after the search was primed");
  pins_.push_back({dff_index, allowed});
}

bool TdgenSearch::prime() {
  if (primed_) {
    return root_ok_;
  }
  primed_ = true;
  const TdgenSearch* donor = options_.init_donor;
  if (donor != nullptr) {
    // The donor's root already holds the activation and the inherited
    // pins; charge their pushes as if this search had made them.
    const bool seeded = engine_.init_from(donor->engine_, spec_);
    GDF_ASSERT(seeded, "init_donor's engine refused to seed this search");
    root_pushes_ = donor->root_pushes_;
    budget_charged_ = -root_pushes_;
  } else {
    engine_.init(spec_);
  }
  const long pushes_before = engine_.counters().trail_pushes;
  bool ok = !engine_.conflict();
  if (ok && donor == nullptr) {
    // Activation: the site must expose the carrier of the targeted
    // transition.
    ok = engine_.assign(spec_.site, alg::vset_of(fault_.slow_to_rise
                                                     ? V8::RiseC
                                                     : V8::FallC));
  }
  for (std::size_t i = inherited_pins_; ok && i < pins_.size(); ++i) {
    ok = engine_.assign(model_->ppo_node(pins_[i].dff_index),
                        pins_[i].allowed);
  }
  root_pushes_ += engine_.counters().trail_pushes - pushes_before;
  engine_.save_root();
  root_ok_ = ok;
  return ok;
}

TdgenSearch::Observation TdgenSearch::observation() const {
  Observation seen = Observation::None;
  for (const NodeId obs : model_->observation_points()) {
    const VSet s = engine_.get(obs);
    if (vset_carrier_only(s)) {
      return Observation::Claimed;
    }
    if ((s & kCarrierSet) != 0) {
      seen = Observation::Possible;
    }
  }
  return seen;
}

namespace {

std::string source_key(const std::vector<VSet>& pi_sets,
                       const std::vector<unsigned>& ppi_inits) {
  std::string key;
  key.reserve(pi_sets.size() + ppi_inits.size());
  for (const VSet s : pi_sets) {
    key.push_back(static_cast<char>(s));
  }
  for (const unsigned inits : ppi_inits) {
    key.push_back(static_cast<char>('0' + inits));
  }
  return key;
}

}  // namespace

TdgenSearch::Passed* TdgenSearch::check_stimulus(
    const std::vector<VSet>& pi_sets, const std::vector<unsigned>& ppi_inits,
    bool leaf) {
  std::string key = source_key(pi_sets, ppi_inits);
  if (failed_.contains(key)) {
    return nullptr;
  }
  const auto hit = passed_.find(key);
  if (hit != passed_.end()) {
    // A leaf entered before lifts exactly as it did then, to a test that
    // is by now published.
    if (leaf && hit->second.entered) {
      return nullptr;
    }
    ++probe_counters_.probe_memo_hits;
    hit->second.entered |= leaf;
    return &hit->second;
  }
  const auto fail = [&]() -> Passed* {
    failed_.insert(std::move(key));
    return nullptr;
  };
  // The PPI final-frame component is produced by the register from the PPO
  // values of the initial frame, so it is derived, never assumed: each
  // PPI's raw set allows every final under its initials, and the register
  // prune keeps the finals its PPO can take initially. The fixpoint from
  // the wide side over-approximates every real execution, which makes the
  // observation check sound for all don't-care fills.
  //
  // One prune is the fixpoint: a node's initial-frame members depend only
  // on its sources' initial members (test_tables pins this), and a prune
  // that leaves some final keeps the PPI's initials. So the probe seeds
  // each PPI with the finals the cached state's PPO allows (its raw set
  // when that is empty) and replays probe_sets_ once; the settled PPO
  // initials are exact, and only a seed they move costs a second replay.
  alg::TwoFrameStimulus stimulus;
  stimulus.pi_sets = pi_sets;
  const std::span<const NodeId> pis = model_->pis();
  const std::span<const NodeId> ppis = model_->ppis();
  // A PPI's raw set by its initials mask: every final under them.
  std::array<VSet, 4> raw_by_inits;
  for (unsigned inits = 0; inits < raw_by_inits.size(); ++inits) {
    raw_by_inits[inits] = alg::vset_with_initial_in(alg::kPrimaryDomain, inits);
  }
  const auto raw_ppi = [&](std::size_t k) {
    return raw_by_inits[ppi_inits[k] & 3u];
  };
  const auto ppo_initials = [&](std::size_t k) {
    return alg::vset_initials(probe_sets_[model_->ppo_node(k)]);
  };
  stimulus.ppi_sets.reserve(ppis.size());
  for (std::size_t k = 0; k < ppis.size(); ++k) {
    const unsigned cached = probe_ready_ ? ppo_initials(k) : 0;
    stimulus.ppi_sets.push_back(
        cached != 0 ? alg::vset_with_final_in(raw_ppi(k), cached)
                    : raw_ppi(k));
  }

  ++probe_counters_.probe_runs;
  std::vector<std::pair<NodeId, VSet>> sources;
  sources.reserve(pis.size() + ppis.size());
  const auto replay = [&] {
    sources.clear();
    for (std::size_t i = 0; i < pis.size(); ++i) {
      sources.emplace_back(pis[i], stimulus.pi_sets[i]);
    }
    for (std::size_t k = 0; k < ppis.size(); ++k) {
      sources.emplace_back(ppis[k], stimulus.ppi_sets[k]);
    }
    sim_.rerun_sources(sources, &spec_, probe_sets_);
  };
  if (!probe_ready_) {
    sim_.run(stimulus, &spec_, probe_sets_);
    probe_ready_ = true;
    ++probe_counters_.probe_full;
  } else {
    replay();
    ++probe_counters_.probe_cone;
  }

  // The register prune from the raw sets against the settled PPO
  // initials. A second round only confirms the fixpoint; a third would
  // mean the initials premise above is broken.
  for (int round = 0;; ++round) {
    bool moved = false;
    for (std::size_t k = 0; k < ppis.size(); ++k) {
      const VSet pruned =
          alg::vset_with_final_in(raw_ppi(k), ppo_initials(k));
      if (pruned == kEmptySet) {
        return fail();  // no register-consistent execution
      }
      if (pruned != stimulus.ppi_sets[k]) {
        stimulus.ppi_sets[k] = pruned;
        moved = true;
      }
    }
    if (!moved) {
      break;
    }
    GDF_ASSERT(round == 0, "register fixpoint needs a third replay");
    replay();
  }

  // Pins must hold for every completion of the unassigned inputs, i.e. in
  // the forward simulation sets, not merely in the engine's constraint
  // store (reconvergence can make the latter optimistic at inner nodes).
  for (const PpoPin& pin : pins_) {
    const VSet s = probe_sets_[model_->ppo_node(pin.dff_index)];
    if (s == kEmptySet || (s & ~pin.allowed) != 0) {
      return fail();
    }
  }

  std::vector<NodeId> observed;
  for (const NodeId obs : model_->observation_points()) {
    if (vset_carrier_only(probe_sets_[obs])) {
      observed.push_back(obs);
    }
  }
  if (observed.empty()) {
    return fail();
  }
  Passed& passed = passed_.try_emplace(std::move(key)).first->second;
  passed.stimulus = std::move(stimulus);
  passed.ppo_sets.reserve(ppis.size());
  for (std::size_t k = 0; k < ppis.size(); ++k) {
    passed.ppo_sets.push_back(probe_sets_[model_->ppo_node(k)]);
  }
  passed.observed = std::move(observed);
  passed.entered = leaf;
  return &passed;
}

bool TdgenSearch::verified_solution(LocalTest* out) {
  // When the fault sits directly on a PI/PPI line, the engine stores the
  // post-transform carrier there; the simulation wants the raw stimulus
  // (the activating transition) and applies the site transform itself.
  const auto source_set = [this](NodeId node) {
    VSet s = engine_.get(node);
    if (node == spec_.site) {
      s = alg::DelayAlgebra::site_transform_pre(s, spec_.slow_to_rise);
    }
    return s;
  };
  std::vector<VSet> pi_sets;
  pi_sets.reserve(model_->pis().size());
  for (const NodeId pi : model_->pis()) {
    pi_sets.push_back(source_set(pi));
  }
  std::vector<unsigned> ppi_inits;
  ppi_inits.reserve(model_->ppis().size());
  for (const NodeId ppi : model_->ppis()) {
    ppi_inits.push_back(alg::vset_initials(source_set(ppi)));
  }

  Passed* best = check_stimulus(pi_sets, ppi_inits, /*leaf=*/true);
  if (best == nullptr) {
    return false;
  }

  // Don't-care lifting: the search may have pinned more than the test
  // needs; try to widen every specified state bit and PI back toward X
  // while the observation stays guaranteed. This keeps the required
  // initial state small (synchronizable) and the handed-over PPO values
  // few — the paper's TDgen leaves exactly such X values behind. `best`
  // survives the probes' inserts: unordered_map nodes never move.
  for (std::size_t k = 0; k < ppi_inits.size(); ++k) {
    if (ppi_inits[k] == 0b11u) {
      continue;
    }
    const unsigned saved = ppi_inits[k];
    ppi_inits[k] = 0b11u;
    if (Passed* lifted = check_stimulus(pi_sets, ppi_inits, false)) {
      best = lifted;
    } else {
      ppi_inits[k] = saved;
    }
  }
  for (std::size_t i = 0; i < pi_sets.size(); ++i) {
    const VSet wide = model_->pis()[i] == spec_.site
                          ? pi_sets[i]
                          : alg::kPrimaryDomain;
    if (pi_sets[i] == wide) {
      continue;
    }
    const VSet saved = pi_sets[i];
    pi_sets[i] = wide;
    if (Passed* lifted = check_stimulus(pi_sets, ppi_inits, false)) {
      best = lifted;
    } else {
      pi_sets[i] = saved;
    }
  }

  // Distinct-solution guarantee for the resumable enumeration: different
  // leaves can lift to the same source vector. A vector fixes its test,
  // and a test fixes its vector (the register prune keeps a PPI's
  // initials, see test_tables), so one flag per entry tells duplicates.
  if (best->published) {
    return false;
  }
  best->published = true;

  if (out != nullptr) {
    out->pi_sets = best->stimulus.pi_sets;
    out->ppi_sets = best->stimulus.ppi_sets;
    out->ppo_sets = best->ppo_sets;
    out->observed = best->observed;
    out->observed_at_po = false;
    for (const NodeId obs : best->observed) {
      if (model_->node(obs).is_po) {
        out->observed_at_po = true;
      }
    }
  }
  return true;
}

bool TdgenSearch::push_decision(NodeId node, VSet try_set) {
  const VSet current = engine_.get(node);
  try_set &= current;
  GDF_ASSERT(try_set != kEmptySet && try_set != current,
             "decision must strictly split a set");
  if (!saved_phase_.empty()) {
    saved_phase_[node] = try_set;
  }
  engine_.push_level();
  stack_.push_back({node, static_cast<VSet>(current & ~try_set)});
  // Fresh accumulated conflict set for the new level (see backtrack).
  const std::size_t level = stack_.size();
  if (cbj_rows_.size() <= level) {
    cbj_rows_.resize(level + 1);
    cbj_poison_.resize(level + 1, 0);
  }
  cbj_rows_[level].assign(level, 0);
  cbj_poison_[level] = 0;
  engine_.assign(node, try_set);
  return true;
}

bool TdgenSearch::choose_decision() {
  const bool vsids = !saved_phase_.empty();  // learn && vsids
  // 1. Extend the fault-effect path: a node that could still become a
  // carrier, is not one yet, and has a definite-carrier input. The cone is
  // pre-sorted nearest-observation-first; under --learn the EVSIDS node
  // activity overrides that order (strictly greater activity wins, so an
  // all-zero table — e.g. before the first conflict — reproduces the
  // static order exactly).
  NodeId best = alg::kNoNode;
  double best_act = 0.0;
  for (const NodeId id : *cone_) {
    const VSet s = engine_.get(id);
    if ((s & kCarrierSet) == 0 || (s & ~kCarrierSet) == 0) {
      continue;
    }
    const Node& n = model_->node(id);
    if (n.source()) {
      continue;
    }
    const auto definite_carrier = [this](NodeId input) {
      if (input == alg::kNoNode) {
        return false;
      }
      const VSet v = engine_.get(input);
      return vset_carrier_only(v);
    };
    if (!definite_carrier(n.in0) && !definite_carrier(n.in1)) {
      continue;
    }
    if (!vsids) {
      return push_decision(id, static_cast<VSet>(s & kCarrierSet));
    }
    if (best == alg::kNoNode || engine_.activity(id) > best_act) {
      best = id;
      best_act = engine_.activity(id);
    }
  }
  if (best != alg::kNoNode) {
    return push_decision(
        best, static_cast<VSet>(engine_.get(best) & kCarrierSet));
  }
  // 2. Split a primary: singleton-first, deterministic order. Values are
  // tried steady-first (0, 1, R, F) which empirically keeps off-path
  // conditions simple; under --learn the activity order takes precedence
  // and a saved phase (the subset this node last branched to) is retried
  // before the static first-value choice.
  best = alg::kNoNode;
  best_act = 0.0;
  for (const auto& group : {model_->pis(), model_->ppis()}) {
    for (const NodeId id : group) {
      const VSet s = engine_.get(id);
      if (alg::vset_size(s) <= 1) {
        continue;
      }
      if (!vsids) {
        return push_decision(id, alg::vset_of(alg::vset_first(s)));
      }
      if (best == alg::kNoNode || engine_.activity(id) > best_act) {
        best = id;
        best_act = engine_.activity(id);
      }
    }
  }
  if (best == alg::kNoNode) {
    return false;
  }
  const VSet s = engine_.get(best);
  const VSet phase = static_cast<VSet>(saved_phase_[best] & s);
  const VSet try_set = phase != kEmptySet && phase != s
                           ? phase
                           : alg::vset_of(alg::vset_first(s));
  return push_decision(best, try_set);
}

bool TdgenSearch::backtrack(bool analyzed) {
  ++backtracks_;
  if (backtracks_ > options_.backtrack_limit) {
    aborted_ = true;
    return false;
  }
  // Conflict-directed walk (Prosser-style CBJ over set-splitting
  // decisions). The current failure is summarized as the set of decision
  // levels its derivation rests on; `poison` stands for "unknown cause"
  // (carrier-blocked, dead-leaf, resume and --learn off backtracks carry
  // no analysis) and behaves as "all levels", so a poisoned walk skips no
  // level and flips the deepest untried rest. Each level accumulates the
  // causes of every failure that bounced off it, so when the level
  // exhausts, that union becomes the failure cause handed further down
  // the stack.
  bool poison = !analyzed;
  while (!stack_.empty()) {
    const std::size_t level = stack_.size();
    Decision& d = stack_.back();
    if (!poison && (level >= cbj_cur_.size() || cbj_cur_[level] == 0)) {
      // This level's decision is not part of the failure: every subtree
      // under its untried rest keeps the failure's antecedents narrowed,
      // so the implication fixpoint re-derives it there — discard the
      // level wholesale without trying the rest.
      engine_.pop_level();
      stack_.pop_back();
      ++backjump_levels_skipped_;
      continue;
    }
    // Fold the cause into the level's accumulated conflict set before
    // flipping (the row only tracks levels *below* this one).
    if (poison) {
      cbj_poison_[level] = 1;
    } else {
      std::vector<std::uint8_t>& row = cbj_rows_[level];
      const std::size_t n = std::min(row.size(), cbj_cur_.size());
      for (std::size_t l = 0; l < n; ++l) {
        row[l] = static_cast<std::uint8_t>(row[l] | cbj_cur_[l]);
      }
    }
    engine_.backtrack_level();
    if (d.rest != kEmptySet) {
      const VSet rest = d.rest;
      d.rest = kEmptySet;
      if (!saved_phase_.empty()) {
        saved_phase_[d.node] = rest;  // the flip is the branch now taken
      }
      engine_.assign(d.node, rest);
      return true;
    }
    // Exhausted: the union of everything that failed under this level is
    // the reason the whole level failed — it becomes the cause carried to
    // the next level down.
    poison = cbj_poison_[level] != 0;
    if (!poison) {
      cbj_cur_.assign(cbj_rows_[level].begin(), cbj_rows_[level].end());
    }
    engine_.pop_level();
    stack_.pop_back();
  }
  return false;
}

TdgenStatus TdgenSearch::exhausted_status() const {
  return aborted_ ? TdgenStatus::Aborted : TdgenStatus::Untestable;
}

TdgenStatus TdgenSearch::next(LocalTest* out) {
  if (aborted_) {
    return TdgenStatus::Aborted;
  }
  if (!searching_) {
    searching_ = true;
    if (!prime()) {
      return TdgenStatus::Untestable;
    }
  } else if (!backtrack()) {
    // Resuming past the previous solution leaf found nothing left.
    return exhausted_status();
  }
  for (;;) {
    if (options_.cancel != nullptr && options_.cancel->requested()) {
      throw_cancelled();
    }
    if (options_.work_budget != nullptr) {
      // Charge this engine's assignment delta against the shared per-fault
      // budget; once some search's charge exhausts it, every sharer's
      // next iteration aborts — deterministically, because the charges
      // are pure counts of single-threaded search work.
      const long pushes = engine_.counters().trail_pushes;
      options_.work_budget->charge(pushes - budget_charged_);
      budget_charged_ = pushes;
      if (options_.work_budget->exhausted()) {
        aborted_ = true;
        return TdgenStatus::Aborted;
      }
    }
    const Observation seen =
        engine_.conflict() ? Observation::None : observation();
    if (seen == Observation::None) {
      // Only engine conflicts carry a trail to analyze, and only --learn
      // analyzes them; a merely blocked carrier path backtracks unanalyzed.
      const bool analyzed = engine_.conflict() && options_.learn &&
                            engine_.analyze(&cbj_cur_);
      if (!backtrack(analyzed)) {
        return exhausted_status();
      }
      continue;
    }
    if (seen == Observation::Claimed && verified_solution(out)) {
      return TdgenStatus::TestFound;
    }
    if (!choose_decision()) {
      // Fully decided but not a verified solution: dead leaf.
      if (!backtrack()) {
        return exhausted_status();
      }
    }
  }
}

}  // namespace gdf::tdgen
