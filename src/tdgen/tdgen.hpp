// TDgen — the local robust delay-fault test pattern generator (paper §3).
//
// A branch-and-bound search over per-line value sets: the fault site is
// pinned to its carrier value, decisions extend the fault-effect path
// toward an observation point (c-frontier, nearest-observation-first) or
// split primary input/state sets, and the implication engine prunes after
// every decision. A candidate is accepted as a solution only after an
// independent forward two-frame simulation proves a carrier-only value at
// an observation point for *every* completion of the unassigned inputs —
// tests are robust by construction.
//
// The search is resumable: next() enumerates distinct local tests so the
// sequential stages (FOGBUSTER) can reject a solution and demand another,
// which is what makes the combined algorithm complete. The paper's abort
// policy (100 local backtracks) is the default.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "algebra/frame_sim.hpp"
#include "base/cancel.hpp"
#include "tdgen/fault.hpp"
#include "tdgen/implication.hpp"
#include "tdgen/local_test.hpp"

namespace gdf::tdgen {

/// Deterministic per-fault work budget (--fault-budget), counted in
/// implication-engine assignments (trail pushes). One budget is created
/// per targeted fault and shared by the local search and every re-entry —
/// like the sequential backtrack budget it is never reset, so the abort
/// point is a pure function of (context, fault, options) and the verdict
/// bytes stay identical across --jobs and --shard-faults.
///
/// A search charges from its decision loop, so one whose root
/// assignments (activation and pins) conflict returns Untestable before
/// its first charge and costs nothing. A seeded search (see
/// TdgenOptions::init_donor) is also charged for the root work it
/// inherits: the trail pushes its donors spent on the activation and the
/// inherited pins. A re-entry thus costs what it would if it had made
/// every root assignment itself.
class WorkBudget {
 public:
  /// `limit` assignments may be spent; the first charge pushing the total
  /// *past* the limit exhausts the budget (mirrors `backtracks_ > limit`).
  explicit WorkBudget(long limit) : remaining_(limit) {}

  void charge(long work) { remaining_ -= work; }
  bool exhausted() const { return remaining_ < 0; }
  long remaining() const { return remaining_; }

 private:
  long remaining_;
};

/// Aggregated search-core tallies of one or more TdgenSearch lifetimes —
/// what the flow folds into StageStats so --stages can attribute the
/// incremental engine's work (see TdgenOptions::tally).
struct SearchCounters {
  long implication_assigns = 0;
  long trail_pushes = 0;
  long trail_pops = 0;
  long conflicts = 0;  ///< empty-set narrowings
  long backjump_levels_skipped = 0;  ///< levels discarded untried by CBJ
  long restarts = 0;  ///< always 0: the search never restarts
  // kept for perfbench; drop at the next benchmark change
  long learned = 0;  ///< always 0: the search stores no clauses
  // kept for perfbench; drop at the next benchmark change
  long clause_hits = 0;  ///< always 0: the search stores no clauses
  long probe_runs = 0;  ///< verification probes executed (not memo-skipped)
  long probe_cone = 0;  ///< … settled incrementally from the cached state
  long probe_full = 0;  ///< … requiring a full two-frame pass
  long probe_memo_hits = 0;  ///< probes answered from the success memo

  void add(const SearchCounters& other) {
    implication_assigns += other.implication_assigns;
    trail_pushes += other.trail_pushes;
    trail_pops += other.trail_pops;
    conflicts += other.conflicts;
    backjump_levels_skipped += other.backjump_levels_skipped;
    probe_runs += other.probe_runs;
    probe_cone += other.probe_cone;
    probe_full += other.probe_full;
    probe_memo_hits += other.probe_memo_hits;
  }
};

class TdgenSearch;

struct TdgenOptions {
  int backtrack_limit = 100;  ///< paper §6
  /// Conflict-driven mode: analyze every engine conflict into the
  /// decision levels it rests on, so the backtrack walk jumps past the
  /// others, and order decisions by EVSIDS (see vsids). Off leaves every
  /// backtrack unanalyzed, which walks exactly chronologically: the
  /// chronological search byte-for-byte.
  bool learn = true;
  // kept for perfbench; drop at the next benchmark change
  int learned_limit = 512;  ///< read by nothing
  /// Order decisions by EVSIDS node activity (bumped on conflict-side
  /// nodes at every analysis), tie-broken by the static order, with phase
  /// saving across backtracks. Active only when `learn` is set; all-zero
  /// activities reproduce the static order exactly.
  bool vsids = true;
  /// When set, the search adds its counters here on destruction.
  SearchCounters* tally = nullptr;
  /// Shared per-fault work budget; the decision loop charges its engine's
  /// assignment deltas against it and aborts once it is exhausted. The
  /// flow distinguishes such aborts from backtrack-limit aborts by asking
  /// the budget afterwards.
  WorkBudget* work_budget = nullptr;
  /// Cooperative cancellation: polled once per decision-loop iteration;
  /// a fired token unwinds via throw_cancelled() (Error, kind Cancelled).
  const CancelToken* cancel = nullptr;
  /// Optional donor: a primed search (TdgenSearch::prime) over the same
  /// model, algebra and fault. This search then starts from the donor's
  /// root snapshot, which already holds the init fixpoint, the activation
  /// and the donor's pins, and assigns only its own pins on top. It
  /// inherits the donor's pins (check_stimulus still verifies them) and
  /// its sorted cone, so the donor must outlive it. Donors chain: a
  /// seeded search, once primed, can seed another. Re-entries are seeded
  /// this way; only the local search starts from init().
  const TdgenSearch* init_donor = nullptr;
};

enum class TdgenStatus {
  TestFound,   ///< *out holds a verified local test; call next() to resume
  Untestable,  ///< search space exhausted: robustly untestable locally
  Aborted,     ///< a limit was hit before exhaustion
};

class TdgenSearch {
 public:
  /// `fault.line` refers to the model's netlist (use the fanout-expanded
  /// netlist so branch faults are addressable).
  TdgenSearch(const alg::AtpgModel& model, const alg::DelayAlgebra& algebra,
              DelayFault fault, TdgenOptions options = {});
  ~TdgenSearch();

  TdgenSearch(const TdgenSearch&) = delete;
  TdgenSearch& operator=(const TdgenSearch&) = delete;

  /// Constrains a PPO line to `allowed` (e.g. steady clean {1} during
  /// propagation justification re-entry). Call before prime().
  void pin_ppo(std::size_t dff_index, alg::VSet allowed);

  /// Applies the root assignments without searching: the activation
  /// (unless inherited from a donor) and this search's own pins, then
  /// retakes the engine's root snapshot so the search can serve as a
  /// donor. Returns false when they conflict; the snapshot then carries
  /// the conflict, and so does every search seeded from it. Idempotent;
  /// the first next() primes.
  bool prime();

  /// Produces the next distinct verified local test.
  TdgenStatus next(LocalTest* out);

  int backtracks() const { return backtracks_; }

 private:
  struct Decision {
    alg::NodeId node;
    alg::VSet rest;
  };

  struct PpoPin {
    std::size_t dff_index;
    alg::VSet allowed;
  };

  /// A probe that passed, as the probe table keeps it under its source
  /// key (PIs + PPI initials).
  struct Passed {
    alg::TwoFrameStimulus stimulus;
    /// Simulated PPO sets, indexed by DFF — the only simulation output a
    /// solution needs besides `observed`.
    std::vector<alg::VSet> ppo_sets;
    std::vector<alg::NodeId> observed;
    /// A search leaf settled on exactly these sources.
    bool entered = false;
    /// next() offered the test this entry holds.
    bool published = false;
  };

  /// What the engine's sets at the observation points allow: no carrier
  /// anywhere, a carrier somewhere, or a carrier-only set somewhere
  /// (Claimed implies Possible).
  enum class Observation : std::uint8_t { None, Possible, Claimed };

  /// Conflict-directed backjumping (CBJ). With `analyzed`, cbj_cur_
  /// holds the decision levels a just-analyzed conflict rests on, and
  /// levels not in the failure's cause are discarded untried (their
  /// subtrees re-derive the failure, hence are solution-free). Exhausted
  /// levels hand the union of the causes accumulated against them further
  /// down; an unanalyzed backtrack poisons the levels it crosses, pinning
  /// the walk below them to chronological — so a search that never
  /// analyzes walks exactly chronologically.
  bool backtrack(bool analyzed = false);
  bool choose_decision();
  bool push_decision(alg::NodeId node, alg::VSet try_set);
  Observation observation() const;
  /// Probes a source vector: returns its entry in passed_, or nullptr when
  /// it fails. A `leaf` probe marks the entry entered, and a leaf whose
  /// vector was entered before gets nullptr, uncounted.
  Passed* check_stimulus(const std::vector<alg::VSet>& pi_sets,
                         const std::vector<unsigned>& ppi_inits, bool leaf);
  bool verified_solution(LocalTest* out);
  TdgenStatus exhausted_status() const;

  const alg::AtpgModel* model_;
  DelayFault fault_;
  TdgenOptions options_;
  alg::FaultSpec spec_;
  ImplicationEngine engine_;
  alg::TwoFrameSim sim_;
  std::vector<alg::NodeId> cone_storage_;
  /// The sorted cone: cone_storage_, or the donor's cone.
  const std::vector<alg::NodeId>* cone_;
  /// The donor's pins first (already in the root snapshot), then this
  /// search's own (assigned by prime()); check_stimulus verifies all.
  std::vector<PpoPin> pins_;
  std::size_t inherited_pins_ = 0;
  /// Trail pushes that led from the init fixpoint to the root snapshot,
  /// the donors' included — what a search seeded from this one inherits.
  long root_pushes_ = 0;
  /// Engine trail pushes already charged to options_.work_budget — the
  /// decision loop charges deltas so shared budgets accumulate exactly
  /// one search's work once, however often next() resumes. A seeded
  /// search starts at minus its inherited root pushes (see WorkBudget).
  long budget_charged_ = 0;
  std::vector<Decision> stack_;
  /// The probe table, by source key. Verification is a pure function of
  /// the sources, so a repeated probe is answered here instead of
  /// resimulated — byte-equivalent, since rerun_sources replays exactly
  /// from any cached base. Repeats are common: decisions on internal
  /// nodes do not move the sources, and the don't-care lifting probes
  /// differ in one source. Failed keys sit in a set of their own, so they
  /// carry no outcome; one map for both read a higher peak RSS.
  std::unordered_set<std::string> failed_;
  std::unordered_map<std::string, Passed> passed_;
  /// The cone-scoped probe cache: node sets settled under the sources
  /// the last probe replayed. A new probe seeds its PPI finals from this
  /// state's PPO initials and hands its full source vector to
  /// rerun_sources, which replays only the cones of the sources that
  /// actually differ — for the don't-care lifting probes usually a single
  /// source. The seeds are the fixpoint unless that replay moves some PPO's
  /// initials, and then one more replay is (see check_stimulus). Exactly
  /// equivalent to a fresh full pass per probe.
  std::vector<alg::VSet> probe_sets_;
  bool probe_ready_ = false;
  SearchCounters probe_counters_;
  /// Per decision level: the union of the conflict sets of every failure
  /// that bounced off that level (CBJ accounting, see backtrack).
  /// cbj_rows_[k][l] != 0 marks level l < k as involved; cbj_poison_[k]
  /// means some failure there had no analysis ("involves everything").
  std::vector<std::vector<std::uint8_t>> cbj_rows_;
  std::vector<std::uint8_t> cbj_poison_;
  /// The walk's current failure cause, 1-based level flags; a conflict
  /// analysis writes it directly.
  std::vector<std::uint8_t> cbj_cur_;
  /// Last branched-to value set per node (phase saving): primary splits
  /// retry the phase that survived deepest before falling back to the
  /// static vset_first choice. 0 = no phase saved. Sized only when
  /// `learn` and `vsids` are both set, and then the activity order is on
  /// too; empty otherwise.
  std::vector<alg::VSet> saved_phase_;
  long backjump_levels_skipped_ = 0;
  bool primed_ = false;
  bool root_ok_ = false;
  bool searching_ = false;
  bool aborted_ = false;
  int backtracks_ = 0;
};

}  // namespace gdf::tdgen
