// Set-based implication engine over the decomposed two-frame model.
//
// Every node holds a byte-sized set of possible eight-valued assignments.
// Assignments narrow sets; a fixpoint queue runs forward implication
// (output ∩= image of input sets), backward implication (input ∩= members
// with support), the fault-site transform, and the state-register
// correlation (PPI.final = PPO.initial, the paper's register "truth
// table"). All narrowing is recorded on a trail with decision-level marks,
// so the search backtracks by popping deltas in O(changes).
//
// Scheduling is watched-fanin incremental: a narrowed node re-enqueues
// only the implication rules whose operands actually changed (its readers'
// forward images, the sibling-input backward prunes, its own backward
// prune and register role) instead of fully reprocessing every touched
// node. The implication rules are monotone narrowings, so any fair
// scheduling converges to the same greatest fixpoint — the engine's
// results are bit-identical to the exhaustive schedule, which is kept
// behind the GDF_FULL_FIXPOINT=1 escape hatch as a debug reference.
//
// Invariant: each set over-approximates the values the line can take in
// any real execution consistent with the constraints added so far. Forward
// implication preserves this exactly, backward pruning removes only
// support-less members, so conclusions drawn from the sets (conflict on
// empty set, guaranteed observation on carrier-only sets) are sound.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "algebra/frame_sim.hpp"
#include "algebra/model.hpp"
#include "algebra/tables.hpp"
#include "base/clause_arena.hpp"

namespace gdf::tdgen {

/// Hot-path tallies of one engine's lifetime (merged into StageStats by
/// the flow so --stages can attribute speedups).
struct ImplCounters {
  long assigns = 0;       ///< assign() calls (decisions + pins)
  long trail_pushes = 0;  ///< set narrowings recorded on the trail
  long trail_pops = 0;    ///< narrowings undone by rollback
  long conflicts = 0;     ///< empty-set narrowings + clause firings
  long clause_hits = 0;   ///< conflicts announced by a watched clause
};

/// Result of walking the trail back from a conflict: the minimal set of
/// decision constraints whose conjunction re-derives the conflict.
struct Analysis {
  /// Decision literals, deduped per node (conjunction = intersection).
  /// sets[lit.node] ⊆ lit.allowed for all lits is a nogood.
  std::vector<base::ClauseLit> lits;
  /// Sorted unique decision levels (1-based) involved in the conflict.
  std::vector<std::uint32_t> levels;
  /// Raw (node, level) of every decision-level external entry that became
  /// a literal, pre-merge — one node can appear at several levels (its set
  /// was split more than once). Lets a caller that drops literals (clause
  /// minimization) recompute `levels` for the survivors: a level stays
  /// involved iff some surviving node has an entry there.
  std::vector<std::pair<alg::NodeId, std::uint32_t>> lit_levels;
};

/// True when GDF_FULL_FIXPOINT=1 asks for the exhaustive debug schedule.
bool full_fixpoint_requested();

class ImplicationEngine {
 public:
  /// `full_fixpoint` selects the exhaustive reference schedule (defaults
  /// to the GDF_FULL_FIXPOINT environment escape hatch).
  ImplicationEngine(const alg::AtpgModel& model,
                    const alg::DelayAlgebra& algebra,
                    bool full_fixpoint = full_fixpoint_requested());

  /// Resets all sets for a fresh fault: primary domains at PI/PPI, carriers
  /// allowed only inside the fault cone, the site transform armed at the
  /// fault site. Clears the trail and the decision levels. Keeps a
  /// snapshot of the settled post-init state so sibling engines over the
  /// same fault can seed from it (init_from) instead of re-running the
  /// whole-circuit fixpoint.
  void init(const alg::FaultSpec& fault);

  /// Seeds this engine with `donor`'s post-init snapshot — valid when the
  /// donor ran init() (not init_from) over the same model and exactly
  /// `fault`. Returns false (leaving this engine untouched) when the donor
  /// cannot vouch for that, in which case the caller falls back to init().
  /// The result is bit-identical to init(fault): the snapshot is a pure
  /// function of (model, algebra, fault).
  bool init_from(const ImplicationEngine& donor,
                 const alg::FaultSpec& fault);

  /// Narrows node `n` to `allowed` and propagates to fixpoint.
  /// Returns false (and sets conflict()) if any set becomes empty.
  bool assign(alg::NodeId n, alg::VSet allowed);

  alg::VSet get(alg::NodeId n) const { return sets_[n]; }
  bool conflict() const { return conflict_; }

  // Decision levels — the search's push/pop protocol. push_level() opens a
  // level at the current trail position; backtrack_level() undoes every
  // narrowing of the current level but keeps it open (try the complement);
  // pop_level() undoes and closes it.
  void push_level() { level_marks_.push_back(trail_.size()); }
  void backtrack_level();
  void pop_level();
  std::size_t depth() const { return level_marks_.size(); }

  /// Trail position for later rollback (level-free protocol).
  std::size_t mark() const { return trail_.size(); }
  /// Restores every set changed after `m` and clears the conflict flag.
  void rollback(std::size_t m);

  /// True when a node on the fault site's dominator chain — a node every
  /// path from the site to every observation point passes through — has
  /// lost all carrier members. At fixpoint the carrier chain backing any
  /// observed carrier runs through every chain node, so a blocked chain
  /// proves no observation point can see the fault. Sound only at
  /// fixpoint, i.e. after a successful assign()/init().
  bool carrier_path_blocked() const {
    for (const alg::NodeId d : site_chain_) {
      if ((sets_[d] & alg::kCarrierSet) == 0) {
        return true;
      }
    }
    return false;
  }

  const ImplCounters& counters() const { return counters_; }

  const alg::AtpgModel& model() const { return *model_; }
  const alg::DelayAlgebra& algebra() const { return *algebra_; }
  const alg::FaultSpec& fault() const { return fault_; }

  // --- Conflict-driven learning -------------------------------------------
  //
  // Every trail entry carries a reason tag naming the implication rule that
  // produced it, so a conflict can be resolved backward: walk the trail from
  // the top, replace each narrowing of a relevant node by the facts its rule
  // read, and keep whatever bottoms out at decision assignments. The result
  // is a nogood over decision literals — valid because the rules are
  // monotone, so any state satisfying all its literals re-derives this very
  // conflict at fixpoint. That same monotonicity makes clause firing a pure
  // shortcut: a fired clause only announces a conflict the fixpoint was
  // already guaranteed to reach, so learning never changes which states
  // conflict — only how fast the engine notices.

  /// Resolves the current conflict into decision literals. Requires
  /// conflict() and at least one open decision level, with the trail still
  /// intact (call before any rollback). Returns false when there is nothing
  /// to analyze.
  bool analyze(Analysis* out);

  /// Adds a nogood clause and wires it into the watch lists at the current
  /// state. Returns the clause index, or ClauseArena::kNone when every
  /// literal already holds (the caller should treat the state as
  /// conflicted — cannot happen at a conflict-free fixpoint for a valid
  /// clause).
  std::size_t add_clause(std::span<const base::ClauseLit> lits);

  /// The clauses learned so far.
  const base::ClauseArena& clauses() const { return arena_; }

  /// EVSIDS node activity: every conflict analysis bumps the nodes on the
  /// conflict side (all marked nodes) and geometrically decays the rest by
  /// growing the increment. Drives the search's decision ordering; reset
  /// by init()/init_from() so each fault's trajectory is self-contained
  /// (and with it byte-deterministic at any worker count).
  double activity(alg::NodeId n) const { return activity_[n]; }

  /// Greedy replay-based nogood minimization: for each literal in turn,
  /// drops it when re-asserting the remaining literals on *this* engine
  /// still derives a conflict through the implication rules alone. Call on
  /// a conflict-free clause-free scratch engine settled at the nogood's
  /// root state (same fault, same level-0 externals as the learner): the
  /// rules are monotone, so a conflict under a subset of the literals
  /// proves that subset is itself a nogood there. Restores the engine's
  /// state before returning; returns the number of literals removed.
  int minimize_nogood(std::vector<base::ClauseLit>* lits);

 private:
  /// Which rule produced a trail entry (for conflict resolution).
  enum class Why : std::uint8_t {
    External,  ///< assign(): reason holds the assigned VSet, not a node
    Forward,   ///< forward image of node's own inputs
    BwdIn,     ///< backward prune of an input; reason = the gate
    RegPair,   ///< register correlation; reason = the partner node
  };

  struct TrailEntry {
    alg::NodeId node;
    /// Rule operand per Why — or the assigned set for Why::External.
    alg::NodeId reason;
    alg::VSet old_set;
    Why why;
  };

  /// Pending-rule bits per node: which operands changed since the node was
  /// last processed. kIn0/kIn1 re-run the forward image and the sibling
  /// backward prune; kSelf re-runs the backward prunes of both inputs and
  /// the register role.
  static constexpr std::uint8_t kIn0 = 1;
  static constexpr std::uint8_t kIn1 = 2;
  static constexpr std::uint8_t kSelf = 4;
  static constexpr std::uint8_t kAll = kIn0 | kIn1 | kSelf;

  bool narrow(alg::NodeId n, alg::VSet next, alg::NodeId reason, Why why);
  void mark_dirty(alg::NodeId n);
  bool check_watches(alg::NodeId n);
  bool lit_true(const base::ClauseLit& lit) const {
    return (sets_[lit.node] & ~lit.allowed) == 0;
  }
  void add_pending(alg::NodeId n, std::uint8_t bits);
  bool process(alg::NodeId n, std::uint8_t pend);
  bool propagate();
  alg::VSet forward_raw(alg::NodeId id) const;
  bool apply_register_pair(std::size_t dff_index);
  void clear_queue();

  const alg::AtpgModel* model_;
  const alg::DelayAlgebra* algebra_;
  // Raw SoA views of the model, cached at construction — the fixpoint's
  // inner loops run hundreds of millions of iterations, so even the span
  // indirection shows up.
  const alg::NodeKind* kinds_;
  const alg::NodeId* in0s_;
  const alg::NodeId* in1s_;
  const std::uint32_t* fo_begin_;
  const alg::NodeId* fo_pool_;
  const std::uint8_t* fo_bits_;
  alg::FaultSpec fault_;
  std::vector<alg::VSet> sets_;
  /// Post-init() snapshot (sets + conflict flag) for init_from donors.
  std::vector<alg::VSet> init_sets_;
  bool init_conflict_ = false;
  bool init_ready_ = false;
  std::vector<TrailEntry> trail_;
  std::vector<std::size_t> level_marks_;
  /// FIFO as a vector plus head cursor (cheaper than std::deque at the
  /// hundreds of millions of pushes an ATPG run performs). A node is
  /// queued when its pending mask becomes non-zero; entries whose mask was
  /// already consumed pop as stale no-ops.
  std::vector<alg::NodeId> queue_;
  std::size_t queue_head_ = 0;
  std::vector<std::uint8_t> pending_;
  /// The fault site's dominator chain toward the observation sinks.
  std::vector<alg::NodeId> site_chain_;
  /// Membership in the fault cone — init() scratch.
  std::vector<std::uint8_t> in_cone_;
  bool conflict_ = false;
  /// What tripped the conflict: the emptied node, or the fired clause.
  alg::NodeId conflict_node_ = alg::kNoNode;
  std::size_t conflict_clause_ = base::ClauseArena::kNone;
  bool full_fixpoint_ = false;
  ImplCounters counters_;

  // Learned clauses + two-watch lists (watches_[n] = clauses watching a
  // literal on n). Rollback needs no watch maintenance: un-narrowing only
  // turns literals false again.
  base::ClauseArena arena_;
  std::vector<std::array<std::uint32_t, 2>> watch_pos_;
  std::vector<std::vector<std::uint32_t>> watches_;
  /// False until the first clause is wired — lets narrow() skip the watch
  /// probe entirely on clause-free searches.
  bool watching_ = false;

  // EVSIDS node activities (see activity()).
  std::vector<double> activity_;
  double act_inc_ = 1.0;

  // Analysis scratch, epoch-stamped so each analyze() starts clean in O(1).
  // A mark means the node's fact is relevant to the conflict; marks are
  // never cleared while walking — earlier narrowings of a marked node stay
  // relevant (a set's current value conjoins every narrowing down to init).
  std::uint64_t analysis_epoch_ = 0;
  std::vector<std::uint64_t> mark_epoch_;
  std::vector<alg::NodeId> marked_nodes_;
  std::vector<std::uint8_t> level_flags_;
};

}  // namespace gdf::tdgen
