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
#include <memory>
#include <optional>
#include <set>
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
  long conflicts = 0;    ///< empty-set narrowings + clause firings
  long learned = 0;      ///< clauses learned from conflict analysis
  long clause_hits = 0;  ///< conflicts announced early by a learned clause
  long backjump_levels_skipped = 0;  ///< levels discarded untried by CBJ
  long restarts = 0;  ///< always 0: the search never restarts
  long minimized_lits = 0;  ///< literals dropped by nogood minimization
  long probe_runs = 0;  ///< verification probes executed (not memo-skipped)
  long probe_cone = 0;  ///< … settled incrementally from the cached state
  long probe_full = 0;  ///< … requiring a full two-frame pass
  long probe_memo_hits = 0;  ///< probes answered from the success memo

  void add(const SearchCounters& other) {
    implication_assigns += other.implication_assigns;
    trail_pushes += other.trail_pushes;
    trail_pops += other.trail_pops;
    conflicts += other.conflicts;
    learned += other.learned;
    clause_hits += other.clause_hits;
    backjump_levels_skipped += other.backjump_levels_skipped;
    minimized_lits += other.minimized_lits;
    probe_runs += other.probe_runs;
    probe_cone += other.probe_cone;
    probe_full += other.probe_full;
    probe_memo_hits += other.probe_memo_hits;
  }
};

struct TdgenOptions {
  int backtrack_limit = 100;     ///< paper §6
  long decision_limit = 200000;  ///< safety net against pathological cases
  /// Conflict-driven mode: learn blocking implicates from every engine
  /// conflict, backjump non-chronologically to the deepest involved level,
  /// memoize successful verification probes, and lift don't-cares cheapest
  /// cone first. Off reproduces the chronological search byte-for-byte.
  bool learn = true;
  /// Cap on the clauses one search stores; once reached, later nogoods
  /// still drive backjumping but are not kept. Every analyzed conflict
  /// spends a backtrack, so backtrack_limit bounds the count as well.
  int learned_limit = 512;
  /// Order decisions by EVSIDS node activity (bumped on conflict-side
  /// nodes at every analysis), tie-broken by the static order, with phase
  /// saving across backtracks. Active only when `learn` is set; all-zero
  /// activities reproduce the static order exactly.
  bool vsids = true;
  /// Shrink each learned nogood by replay-based self-subsumption before it
  /// is stored.
  bool minimize = true;
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
  /// Optional pre-sorted observation-distance cone for the fault site
  /// (TdgenSearch::sorted_cone() of an earlier search over the same model
  /// and fault line). Re-entries reuse the first search's cone instead of
  /// re-deriving and re-sorting it.
  const std::vector<alg::NodeId>* shared_cone = nullptr;
  /// Optional donor engine whose post-init snapshot seeds this search's
  /// engine (see ImplicationEngine::init_from) — a started search over the
  /// same model and fault. Re-entries skip the whole-circuit init fixpoint
  /// this way; an incompatible donor silently falls back to init().
  const ImplicationEngine* init_donor = nullptr;
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

  /// The fault site's carrier cone sorted nearest-observation-first — pass
  /// as TdgenOptions::shared_cone to a re-entry over the same fault line.
  const std::vector<alg::NodeId>& sorted_cone() const { return *cone_; }

  /// This search's engine — pass as TdgenOptions::init_donor to a re-entry
  /// over the same fault so it can seed from the post-init snapshot.
  const ImplicationEngine& engine() const { return engine_; }

  /// Constrains a PPO line to `allowed` (e.g. steady clean {1} during
  /// propagation justification re-entry). Call before the first next().
  void pin_ppo(std::size_t dff_index, alg::VSet allowed);

  /// Requires the fault effect to be observed at this node (e.g. the PPO
  /// the propagation phase starts from). Call before the first next().
  void require_observation(alg::NodeId obs_node);

  /// Produces the next distinct verified local test.
  TdgenStatus next(LocalTest* out);

  int backtracks() const { return backtracks_; }
  long decisions() const { return decisions_; }

 private:
  struct Decision {
    alg::NodeId node;
    alg::VSet rest;
  };

  struct PpoPin {
    std::size_t dff_index;
    alg::VSet allowed;
  };

  struct CheckOutcome {
    alg::TwoFrameStimulus stimulus;
    /// Simulated PPO sets, indexed by DFF — the only simulation output a
    /// solution needs, and compact enough to memoize per source vector.
    std::vector<alg::VSet> ppo_sets;
    std::vector<alg::NodeId> observed;
  };

  bool start();
  /// Level-0 constraints of this fault: carrier activation at the site,
  /// PPO pins, required observation. Factored out of start() so the
  /// minimization scratch engine can reproduce the root state exactly.
  bool apply_root_constraints(ImplicationEngine* engine) const;
  /// Replay-minimizes analysis_.lits on the scratch engine and recomputes
  /// involved_levels_ from the surviving literals' levels.
  void minimize_learned();
  /// Chronological backtrack, or — when `involved` names the decision
  /// levels a just-analyzed conflict rests on — conflict-directed
  /// backjumping: levels not in the failure's cause are discarded untried
  /// (their subtrees re-derive the failure, hence are solution-free).
  /// Exhausted levels hand the union of the causes accumulated against
  /// them further down; a backtrack without analysis (nullptr) poisons
  /// the levels it crosses, pinning the walk below them to chronological.
  bool backtrack(const std::vector<std::uint8_t>* involved = nullptr);
  /// Analyzes the current engine conflict, backjumps, then learns a
  /// clause while the database is under learned_limit.
  bool conflict_backtrack();
  bool choose_decision();
  bool push_decision(alg::NodeId node, alg::VSet try_set);
  bool carrier_possible_at_observation() const;
  bool engine_claims_observation() const;
  bool check_stimulus(const std::vector<alg::VSet>& pi_sets,
                      const std::vector<unsigned>& ppi_inits,
                      CheckOutcome* out) const;
  bool verified_solution(LocalTest* out);
  TdgenStatus exhausted_status() const;

  const alg::AtpgModel* model_;
  const alg::DelayAlgebra* algebra_;
  DelayFault fault_;
  TdgenOptions options_;
  alg::FaultSpec spec_;
  ImplicationEngine engine_;
  alg::TwoFrameSim sim_;
  std::vector<alg::NodeId> cone_storage_;
  const std::vector<alg::NodeId>* cone_;
  std::vector<PpoPin> pins_;
  std::optional<alg::NodeId> required_obs_;
  /// Engine trail pushes already charged to options_.work_budget — the
  /// decision loop charges deltas so shared budgets accumulate exactly
  /// one search's work once, however often next() resumes.
  long budget_charged_ = 0;
  std::vector<Decision> stack_;
  std::set<std::string> published_;
  /// Source-set vectors (PIs + PPI initials) already taken through
  /// verification. Different search leaves frequently share identical
  /// primary assignments (decisions on internal nodes do not move the
  /// sources), and verification is a pure function of the sources, so a
  /// repeat can only reproduce the earlier outcome — which by then is a
  /// duplicate. Skipping it is behavior-identical and avoids the
  /// simulation entirely.
  std::unordered_set<std::string> checked_entries_;
  /// check_stimulus inputs that already failed (the check is deterministic,
  /// so they fail forever) — mostly hit by the don't-care lifting probes.
  mutable std::unordered_set<std::string> failed_checks_;
  /// Successful probe outcomes by source key (--learn only): the check is
  /// a pure function of the sources, so a repeat returns the cached
  /// outcome instead of resimulating. Byte-equivalent either way —
  /// rerun_sources replays against any cached base state exactly.
  mutable std::unordered_map<std::string, CheckOutcome> success_checks_;
  /// The cone-scoped probe cache. probe_base_ holds node sets settled
  /// under the last probe's *raw* sources (pre register-fixpoint): a new
  /// probe hands its full source vector to rerun_sources, which replays
  /// only the cones of the sources that actually differ — for the
  /// don't-care lifting probes that is a single source. The register
  /// fixpoint then prunes on a copy (probe_sets_) so the base never
  /// churns through prune/unprune cycles. Exactly equivalent to a fresh
  /// full pass per probe.
  mutable std::vector<alg::VSet> probe_base_;
  mutable std::vector<alg::VSet> probe_sets_;
  mutable bool probe_ready_ = false;
  mutable SearchCounters probe_counters_;
  /// Conflict-analysis scratch reused across conflicts.
  Analysis analysis_;
  std::vector<std::uint8_t> involved_levels_;
  /// Per decision level: the union of the conflict sets of every failure
  /// that bounced off that level (CBJ accounting, --learn only).
  /// cbj_rows_[k][l] != 0 marks level l < k as involved; cbj_poison_[k]
  /// means some failure there had no analysis ("involves everything").
  std::vector<std::vector<std::uint8_t>> cbj_rows_;
  std::vector<std::uint8_t> cbj_poison_;
  std::vector<std::uint8_t> cbj_cur_;
  /// Last branched-to value set per node (phase saving, --learn only):
  /// primary splits retry the phase that survived deepest before falling
  /// back to the static vset_first choice. 0 = no phase saved.
  std::vector<alg::VSet> saved_phase_;
  /// Lazily built engine for replay minimization, seeded from engine_'s
  /// post-init snapshot plus the root constraints, never given clauses.
  std::unique_ptr<ImplicationEngine> minimize_engine_;
  bool minimize_engine_failed_ = false;
  long learned_ = 0;
  long backjump_levels_skipped_ = 0;
  long minimized_lits_ = 0;
  bool started_ = false;
  bool aborted_ = false;
  int backtracks_ = 0;
  long decisions_ = 0;
};

}  // namespace gdf::tdgen
