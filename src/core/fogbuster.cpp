#include "core/fogbuster.hpp"

#include <algorithm>
#include <optional>

#include "base/error.hpp"
#include "base/rng.hpp"
#include "base/timer.hpp"
#include "core/verify.hpp"
#include "fausim/fausim.hpp"
#include "semilet/propagate.hpp"
#include "semilet/synchronize.hpp"
#include "tdgen/local_test.hpp"
#include "tdgen/tdgen.hpp"
#include "tdsim/tdsim.hpp"

namespace gdf::core {

using sim::Lv;
using sim::lv_bit;
using tdgen::DelayFault;
using tdgen::LocalTest;
using tdgen::PpoKind;

namespace {

Lv lv_from_bit(int bit) {
  if (bit == 0) {
    return Lv::Zero;
  }
  if (bit == 1) {
    return Lv::One;
  }
  return Lv::X;
}

sim::InputVec lv_vector(const std::vector<int>& bits) {
  sim::InputVec out;
  out.reserve(bits.size());
  for (const int b : bits) {
    out.push_back(lv_from_bit(b));
  }
  return out;
}

}  // namespace

int FogbusterResult::count(FaultStatus s) const {
  return static_cast<int>(std::count(status.begin(), status.end(), s));
}

void StageStats::add(const StageStats& other) {
  targeted += other.targeted;
  local_solutions += other.local_solutions;
  po_observed += other.po_observed;
  ppo_observed += other.ppo_observed;
  prop_attempts += other.prop_attempts;
  prop_failures += other.prop_failures;
  reentries += other.reentries;
  reentry_failures += other.reentry_failures;
  sync_attempts += other.sync_attempts;
  sync_failures += other.sync_failures;
  verify_rejections += other.verify_rejections;
  dropped += other.dropped;
  aborted_local += other.aborted_local;
  aborted_sequential += other.aborted_sequential;
  aborted_propagation += other.aborted_propagation;
  aborted_synchronization += other.aborted_synchronization;
  aborted_exhausted += other.aborted_exhausted;
  aborted_budget += other.aborted_budget;
  search.add(other.search);
  sim.add(other.sim);
}

namespace {

/// Twin good/faulty replay of the propagation frames with only the given
/// state bits defined: true when a PO still definitely differs, i.e. the
/// propagation does not rely on any other (Known) boundary bit. Used to
/// keep the TDgen re-entry pins minimal.
bool propagation_works_without_known(
    const sim::SeqSimulator& simulator, const sim::StateVec& boundary,
    const std::vector<std::pair<std::size_t, Lv>>& requirements,
    const std::vector<sim::InputVec>& frames) {
  sim::StateVec good(boundary.size(), Lv::X);
  sim::StateVec faulty(boundary.size(), Lv::X);
  for (std::size_t k = 0; k < boundary.size(); ++k) {
    if (boundary[k] == Lv::D) {
      good[k] = Lv::One;
      faulty[k] = Lv::Zero;
    } else if (boundary[k] == Lv::Dbar) {
      good[k] = Lv::Zero;
      faulty[k] = Lv::One;
    }
  }
  for (const auto& [ff, v] : requirements) {
    good[ff] = v;
    faulty[ff] = v;
  }
  return simulator.po_differs(std::move(good), std::move(faulty), frames);
}

}  // namespace

namespace {

std::shared_ptr<const CircuitContext> require_context(
    std::shared_ptr<const CircuitContext> ctx) {
  check(ctx != nullptr, "Fogbuster: null circuit context");
  return ctx;
}

}  // namespace

Fogbuster::Fogbuster(const net::Netlist& circuit, AtpgOptions options)
    : Fogbuster(CircuitContext::build(circuit, options), options) {}

Fogbuster::Fogbuster(std::shared_ptr<const CircuitContext> context,
                     AtpgOptions options)
    : ctx_(require_context(std::move(context))),
      options_(options),
      algebra_(&ctx_->algebra(options.mode)),
      fill_rng_(options.fill_seed),
      fausim_(ctx_->flat()),
      tdsim_(ctx_->model(), *algebra_) {
  check(ctx_->structurally_compatible(options_),
        "Fogbuster: context was built under different structural options "
        "(expand_branches / fault_sites)");
}

bool Fogbuster::try_finalize(const DelayFault& fault, const LocalTest& local,
                             const std::vector<sim::InputVec>& prop_frames,
                             const std::vector<std::size_t>& needed,
                             semilet::Budget& budget, TestSequence* out,
                             StageStats* stages) const {
  ++stages->sync_attempts;
  const std::vector<int> s0 = tdgen::required_initial_state(local);
  std::vector<std::pair<std::size_t, Lv>> requirements;
  for (std::size_t k = 0; k < s0.size(); ++k) {
    if (s0[k] >= 0) {
      requirements.emplace_back(k, lv_from_bit(s0[k]));
    }
  }
  semilet::Synchronizer synchronizer(ctx_->flat(), budget);
  semilet::SyncResult sync;
  const semilet::SeqStatus status =
      synchronizer.synchronize(std::move(requirements), &sync);
  if (status != semilet::SeqStatus::Success) {
    ++stages->sync_failures;
    return false;
  }

  TestSequence sequence;
  sequence.target = fault;
  sequence.init_frames = std::move(sync.frames);
  sequence.v1 = lv_vector(tdgen::initial_frame_pis(local));
  sequence.v2 = lv_vector(tdgen::test_frame_pis(local));
  sequence.prop_frames = prop_frames;
  sequence.required_s0 = s0;
  sequence.boundary.reserve(local.ppo_sets.size());
  for (const alg::VSet s : local.ppo_sets) {
    sequence.boundary.push_back(tdgen::classify_ppo(s));
  }
  sequence.needed_ppos = needed;
  sequence.observed_at_po = local.observed_at_po;

  const VerifyReport report =
      verify_sequence(ctx_->model(), *algebra_, sequence, ctx_->flat());
  if (!report.ok) {
    ++stages->verify_rejections;
    return false;
  }
  if (out != nullptr) {
    *out = std::move(sequence);
  }
  return true;
}

FaultStatus Fogbuster::generate_for_fault(const DelayFault& fault,
                                          TestSequence* out,
                                          StageStats* stages) const {
  const auto check_cancel = [&] {
    if (cancel_requested(options_.cancel)) {
      throw_cancelled();
    }
  };
  const auto abort_sequential = [&](long StageStats::*cause) {
    ++(stages->*cause);
    ++stages->aborted_sequential;
    return FaultStatus::Aborted;
  };

  // The deterministic work budget (--fault-budget): fresh per fault,
  // charged by the local search and every re-entry, never reset — the
  // abort point is a pure function of this fault, so it lands on the
  // same verdict at any --jobs/--shard-faults. A TDgen abort with the
  // budget exhausted is attributed to it; otherwise to the backtrack
  // limit.
  tdgen::WorkBudget work_budget(options_.fault_budget);
  const auto abort_local = [&] {
    if (options_.fault_budget > 0 && work_budget.exhausted()) {
      ++stages->aborted_budget;
    } else {
      ++stages->aborted_local;
    }
    return FaultStatus::Aborted;
  };

  // Folds the searches' counters into the per-fault stage stats whichever
  // way this function returns (the searches add to the tally on
  // destruction, which runs before this scope's).
  struct TallyScope {
    tdgen::SearchCounters tally;
    StageStats* stages;
    ~TallyScope() { stages->search.add(tally); }
  } tally_scope{{}, stages};

  semilet::Budget budget(options_.sequential);
  tdgen::TdgenOptions local_options = options_.local;
  local_options.tally = &tally_scope.tally;
  local_options.learn = options_.learn != LearnMode::Off;
  local_options.work_budget =
      options_.fault_budget > 0 ? &work_budget : nullptr;
  local_options.cancel = options_.cancel;
  tdgen::TdgenSearch local_search(ctx_->model(), *algebra_, fault,
                                  local_options);
  LocalTest local;
  bool offered_local_test = false;

  for (;;) {
    check_cancel();
    switch (local_search.next(&local)) {
      case tdgen::TdgenStatus::Untestable:
        // Untestable means TDgen proved no local test exists. Once the
        // search has offered one, exhaustion only says the sequential
        // stages rejected every offer, and those stages are incomplete
        // (first justification only, frame limits, three-valued
        // synchronization), so that proves nothing.
        return offered_local_test
                   ? abort_sequential(&StageStats::aborted_exhausted)
                   : FaultStatus::Untestable;
      case tdgen::TdgenStatus::Aborted:
        return abort_local();
      case tdgen::TdgenStatus::TestFound:
        break;
    }
    offered_local_test = true;
    ++stages->local_solutions;

    if (local.observed_at_po) {
      // Fault visible at a PO of the fast frame: no propagation phase.
      ++stages->po_observed;
      if (try_finalize(fault, local, {}, {}, budget, out, stages)) {
        return FaultStatus::Tested;
      }
      if (budget.exhausted()) {
        return abort_sequential(&StageStats::aborted_synchronization);
      }
      continue;
    }
    ++stages->ppo_observed;

    // Boundary after the fast frame: the handoff of paper §6 — steady
    // clean values are known, carriers are the fault effect, everything
    // else is fixed-but-unknown (assignable only via TDgen re-entry).
    const std::size_t n_ff = ctx_->netlist().dffs().size();
    sim::StateVec boundary(n_ff, Lv::X);
    std::vector<bool> assignable(n_ff, false);
    std::vector<std::size_t> needed;
    for (std::size_t k = 0; k < n_ff; ++k) {
      switch (tdgen::classify_ppo(local.ppo_sets[k])) {
        case PpoKind::Known0:
          boundary[k] = Lv::Zero;
          needed.push_back(k);
          break;
        case PpoKind::Known1:
          boundary[k] = Lv::One;
          needed.push_back(k);
          break;
        case PpoKind::FaultD:
          boundary[k] = Lv::D;
          break;
        case PpoKind::FaultDbar:
          boundary[k] = Lv::Dbar;
          break;
        case PpoKind::Unknown:
          assignable[k] = true;
          break;
      }
    }

    // Every re-entry of this local test pins its fault-effect PPOs, its
    // Known PPOs unless the propagation works without them, and its own
    // boundary requirements. The shared pins go into at most two donors,
    // seeded from the local search and primed on first use, so a
    // re-entry seeded from one assigns only its requirements.
    std::optional<tdgen::TdgenSearch> donors[2];  // [with Known pins]
    const auto primed_donor = [&](bool with_known) {
      std::optional<tdgen::TdgenSearch>& donor = donors[with_known ? 1 : 0];
      if (!donor) {
        tdgen::TdgenOptions donor_options = local_options;
        donor_options.init_donor = &local_search;
        donor.emplace(ctx_->model(), *algebra_, fault, donor_options);
        for (std::size_t k = 0; k < n_ff; ++k) {
          if (boundary[k] == Lv::D || boundary[k] == Lv::Dbar) {
            donor->pin_ppo(k, alg::vset_of(boundary[k] == Lv::D
                                               ? alg::V8::RiseC
                                               : alg::V8::FallC));
          } else if (with_known && boundary[k] != Lv::X) {
            donor->pin_ppo(k, alg::vset_of(boundary[k] == Lv::One
                                               ? alg::V8::One
                                               : alg::V8::Zero));
          }
        }
        donor->prime();  // a root conflict passes to every re-entry
      }
      return &*donor;
    };

    semilet::Propagator propagator(ctx_->flat(), budget);
    propagator.start(boundary, assignable);
    semilet::PropagationOutcome outcome;
    for (;;) {
      check_cancel();
      ++stages->prop_attempts;
      const semilet::SeqStatus pstatus = propagator.next(&outcome);
      if (pstatus == semilet::SeqStatus::Aborted) {
        return abort_sequential(&StageStats::aborted_propagation);
      }
      if (pstatus == semilet::SeqStatus::Exhausted) {
        ++stages->prop_failures;
        break;  // enumerate the next local solution
      }

      // Propagation justification at the fast-frame boundary: TDgen
      // re-entry with every relied-on PPO pinned. Pinning is kept minimal:
      // if a twin replay shows the propagation works from the fault effect
      // and the required bits alone, the Known bits are not pinned (and
      // not part of the invalidation set either).
      const LocalTest* effective = &local;
      LocalTest reentered;
      std::vector<std::size_t> relied = needed;
      if (!outcome.boundary_requirements.empty()) {
        ++stages->reentries;
        const sim::SeqSimulator twin_sim(ctx_->flat());
        const bool known_needed = !propagation_works_without_known(
            twin_sim, boundary, outcome.boundary_requirements,
            outcome.frames);
        if (!known_needed) {
          relied.clear();
        }
        // Seeded from the donor holding the pins this candidate shares;
        // reports into the same tally. Only the donor's root state
        // carries over: activities start at zero, so the re-entry's
        // decision order follows its own conflicts alone.
        tdgen::TdgenOptions reentry_options = local_options;
        reentry_options.init_donor = primed_donor(known_needed);
        tdgen::TdgenSearch reentry(ctx_->model(), *algebra_, fault,
                                   reentry_options);
        for (const auto& [ff, v] : outcome.boundary_requirements) {
          reentry.pin_ppo(ff, alg::vset_of(v == Lv::One ? alg::V8::One
                                                        : alg::V8::Zero));
          relied.push_back(ff);
        }
        switch (reentry.next(&reentered)) {
          case tdgen::TdgenStatus::Aborted:
            return abort_local();
          case tdgen::TdgenStatus::Untestable:
            ++stages->reentry_failures;
            continue;  // next propagation candidate
          case tdgen::TdgenStatus::TestFound:
            effective = &reentered;
            break;
        }
      }

      if (try_finalize(fault, *effective, outcome.frames, relied, budget,
                       out, stages)) {
        return FaultStatus::Tested;
      }
      if (budget.exhausted()) {
        return abort_sequential(&StageStats::aborted_synchronization);
      }
    }
    if (budget.exhausted()) {
      return abort_sequential(&StageStats::aborted_propagation);
    }
  }
}

tdsim::TdsimRequest make_tdsim_request(const net::Netlist& nl,
                                       const fausim::Fausim& fausim,
                                       const fausim::Fausim::GoodTrace& trace,
                                       std::size_t fast_index,
                                       std::vector<std::size_t> needed_ppos) {
  const std::size_t fast = fast_index;
  tdsim::TdsimRequest request;
  request.stimulus.pi_sets.reserve(nl.inputs().size());
  for (std::size_t p = 0; p < nl.inputs().size(); ++p) {
    request.stimulus.pi_sets.push_back(alg::vset_primary_from_frames(
        lv_bit(trace.filled[fast - 1][p]), lv_bit(trace.filled[fast][p])));
  }
  request.stimulus.ppi_sets.reserve(nl.dffs().size());
  for (std::size_t k = 0; k < nl.dffs().size(); ++k) {
    request.stimulus.ppi_sets.push_back(alg::vset_primary_from_frames(
        lv_bit(trace.states[fast - 1][k]), lv_bit(trace.states[fast][k])));
  }
  request.observable_ppo = fausim.ppo_observability(
      trace.states[fast + 1],
      std::span<const sim::InputVec>(trace.filled).subspan(fast + 1));
  request.needed_ppos = std::move(needed_ppos);
  return request;
}

FogbusterResult Fogbuster::run() { return run({}); }

FogbusterResult Fogbuster::make_empty_result() const {
  FogbusterResult result;
  result.faults = ctx_->faults();
  result.status.assign(result.faults.size(), FaultStatus::Untested);
  return result;
}

void Fogbuster::reset_run_state() {
  // Reentrancy: every run starts from the same X-fill stream, so repeated
  // runs on one instance are bit-identical.
  fill_rng_ = Rng(options_.fill_seed);
}

void Fogbuster::apply_test(const TestSequence& sequence,
                           FogbusterResult* result) {
  result->tests.push_back(sequence);
  result->pattern_count += sequence.pattern_count();

  if (!options_.fault_dropping) {
    return;
  }
  // Fault simulation (paper §5): random X fill, good-machine pass,
  // PPO observability over the propagation frames, then the fast-frame
  // delay fault simulation, one cone replay per activated fault. Only the
  // still untested faults are simulated — detected ones are already
  // dropped.
  const net::Netlist& nl = ctx_->netlist();
  const std::vector<sim::InputVec> frames = sequence.all_frames();
  const fausim::Fausim::GoodTrace trace =
      fausim_.simulate_good(frames, fill_rng_);
  const tdsim::TdsimRequest request = make_tdsim_request(
      nl, fausim_, trace, sequence.fast_index(), sequence.needed_ppos);
  std::vector<std::size_t> untested;
  std::vector<tdgen::DelayFault> targets;
  for (std::size_t j = 0; j < result->faults.size(); ++j) {
    if (result->status[j] == FaultStatus::Untested) {
      untested.push_back(j);
      targets.push_back(result->faults[j]);
    }
  }
  const std::vector<bool> detected = tdsim_.detect(request, targets);
  for (std::size_t t = 0; t < targets.size(); ++t) {
    if (detected[t]) {
      result->status[untested[t]] = FaultStatus::Tested;
      ++result->stages.dropped;
    }
  }
  // Attribute the dropping pass's kernel work while apply_test is still
  // the serialized step, so sequential and sharded runs accumulate the
  // same kernel counters in the same order.
  result->stages.sim.add(fausim_.take_kernel_counters());
}

void Fogbuster::merge_targeted(std::size_t i, bool inert, FaultStatus status,
                               const TestSequence& sequence,
                               const StageStats& stages,
                               FogbusterResult* result) {
  GDF_ASSERT(!inert, "merge_targeted: the inert flag must be false");
  ++result->stages.targeted;
  result->stages.add(stages);
  result->status[i] = status;
  if (status == FaultStatus::Tested) {
    apply_test(sequence, result);
  }
}

FogbusterResult Fogbuster::run(std::span<const std::size_t> target_order) {
  const Stopwatch watch;
  FogbusterResult result = make_empty_result();
  check(target_order.empty() || target_order.size() == result.faults.size(),
        "Fogbuster::run: target order size does not match the fault list");
  reset_run_state();

  // The degenerate (window size 1, inline generation) form of run/shard's
  // sliding window: every commit goes through merge_targeted.
  for (std::size_t pos = 0; pos < result.faults.size(); ++pos) {
    const std::size_t i = target_order.empty() ? pos : target_order[pos];
    if (result.status[i] != FaultStatus::Untested) {
      continue;
    }
    TestSequence sequence;
    StageStats stages;
    const FaultStatus status =
        generate_for_fault(result.faults[i], &sequence, &stages);
    merge_targeted(i, false, status, sequence, stages, &result);
  }
  result.seconds = watch.seconds();
  return result;
}

}  // namespace gdf::core
