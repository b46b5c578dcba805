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

#include <cstddef>
#include <cstdint>
#include <vector>

#include "algebra/frame_sim.hpp"
#include "algebra/model.hpp"
#include "algebra/tables.hpp"

namespace gdf::tdgen {

/// Hot-path tallies of one engine's lifetime (merged into StageStats by
/// the flow so --stages can attribute speedups).
struct ImplCounters {
  long assigns = 0;       ///< assign() calls (decisions + pins)
  long trail_pushes = 0;  ///< set narrowings recorded on the trail
  long trail_pops = 0;    ///< narrowings undone by rollback
  long conflicts = 0;     ///< empty-set narrowings
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
  /// fault site. Clears the trail and the decision levels. The settled
  /// state becomes the root snapshot (see save_root).
  void init(const alg::FaultSpec& fault);

  /// Retakes the root snapshot (sets + conflict flag) at the current
  /// state, which must lie below every decision level. Sibling engines
  /// over the same fault seed from it (init_from) instead of re-running
  /// the whole-circuit fixpoint and every root assign() made since init().
  void save_root();

  /// Seeds this engine with `donor`'s root snapshot — valid when the donor
  /// was set up, by init() or by an earlier init_from(), over the same
  /// model and exactly `fault`. Returns false (leaving this engine
  /// untouched) when the donor cannot vouch for that. The result equals
  /// init(fault) followed by every assign() the donor's snapshot holds,
  /// node for node and conflict flag included, with an empty trail and
  /// zero activities; the snapshot also becomes this engine's own root,
  /// so it can serve as a donor in turn.
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

  const ImplCounters& counters() const { return counters_; }

  // --- Conflict analysis ---------------------------------------------------
  //
  // Every trail entry carries a reason tag naming the implication rule that
  // produced it, so a conflict can be resolved backward: walk the trail from
  // the top, replace each narrowing of a relevant node by the facts its rule
  // read, and keep whatever bottoms out at decision assignments. Each
  // decision level holds one such assignment (the decision or its flip),
  // so the walk names levels: the conflict rests on those levels'
  // assignments alone — the rules are monotone, so any state satisfying
  // them re-derives this very conflict at fixpoint. The search backjumps
  // past every other level and orders decisions by the activities the
  // walk bumps; nothing is stored.

  /// Resolves the current conflict (from the emptied node) into the
  /// decision levels it rests on: `levels` becomes depth() + 1 flags,
  /// 1-based (entry 0 is never set), nonzero for each named level.
  /// Requires conflict() and at least one open decision level, with the
  /// trail still intact (call before any rollback). Returns whether any
  /// level is named; `levels` is left untouched when there is nothing to
  /// analyze.
  bool analyze(std::vector<std::uint8_t>* levels);

  /// EVSIDS node activity: every conflict analysis bumps the nodes on the
  /// conflict side (all marked nodes) and geometrically decays the rest by
  /// growing the increment. Drives the search's decision ordering; reset
  /// by init()/init_from() so each fault's trajectory is self-contained
  /// (and with it byte-deterministic at any worker count).
  double activity(alg::NodeId n) const { return activity_[n]; }

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

  /// Restores every set changed after trail position `m` and clears the
  /// conflict flag.
  void rollback(std::size_t m);
  bool narrow(alg::NodeId n, alg::VSet next, alg::NodeId reason, Why why);
  void mark_dirty(alg::NodeId n);
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
  /// Root snapshot (sets + conflict flag) for init_from donors.
  std::vector<alg::VSet> root_sets_;
  bool root_conflict_ = false;
  bool root_ready_ = false;
  std::vector<TrailEntry> trail_;
  std::vector<std::size_t> level_marks_;
  /// FIFO as a vector plus head cursor (cheaper than std::deque at the
  /// hundreds of millions of pushes an ATPG run performs). A node is
  /// queued when its pending mask becomes non-zero; entries whose mask was
  /// already consumed pop as stale no-ops.
  std::vector<alg::NodeId> queue_;
  std::size_t queue_head_ = 0;
  std::vector<std::uint8_t> pending_;
  /// Membership in the fault cone — init() scratch.
  std::vector<std::uint8_t> in_cone_;
  bool conflict_ = false;
  /// The node whose set emptied (what analyze() resolves from).
  alg::NodeId conflict_node_ = alg::kNoNode;
  bool full_fixpoint_ = false;
  ImplCounters counters_;

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
};

}  // namespace gdf::tdgen
