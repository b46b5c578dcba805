// Forward set-valued simulation of the two local time frames over the
// decomposed model — the functional core shared by TDgen's implication
// bootstrap, TDsim's fault-injection checks, and the end-to-end verifier.
//
// Because the tables never create a carrier from carrier-free operands, a
// carrier can appear in the result only downstream of the injected fault
// site; with no fault injected the simulation is a plain two-frame hazard
// analysis.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "algebra/model.hpp"
#include "algebra/tables.hpp"
#include "algebra/value_set.hpp"
#include "sim/worklist.hpp"

namespace gdf::alg {

/// A targeted gate delay fault: slow-to-rise or slow-to-fall at one line.
struct FaultSpec {
  NodeId site = kNoNode;
  bool slow_to_rise = true;
};

/// Primary/pseudo-primary input stimulus for the two frames, as value sets
/// (callers encode known bits as singletons and unknowns as wider sets).
struct TwoFrameStimulus {
  std::vector<VSet> pi_sets;   ///< one per PI, Netlist::inputs() order
  std::vector<VSet> ppi_sets;  ///< one per FF, Netlist::dffs() order
};

/// Builds the {0,1,R,F} subset compatible with the given frame bits
/// (-1 = unknown). Used to encode concrete (V1, V2) pairs.
VSet vset_primary_from_frames(int initial_bit, int final_bit);

class TwoFrameSim {
 public:
  /// Scenario capacity of one forced_sweep call: eight VSet byte lanes
  /// packed into one 64-bit word per node.
  static constexpr unsigned kPackedLanes = 8;

  explicit TwoFrameSim(const AtpgModel& model, const DelayAlgebra& algebra)
      : model_(&model), algebra_(&algebra) {}

  /// Computes the value set of every node. `fault` may be null for a
  /// fault-free pass. Sets over-approximate reachable values, so a result
  /// set contained in {Rc,Fc} proves guaranteed fault observation.
  void run(const TwoFrameStimulus& stimulus, const FaultSpec* fault,
           std::vector<VSet>& node_sets) const;

  /// True if the fault is guaranteed observed at some observation point
  /// (PO or PPO) under the stimulus; observation points forced to a
  /// carrier are appended to `where` if non-null.
  bool guaranteed_observation(const TwoFrameStimulus& stimulus,
                              const FaultSpec& fault,
                              std::vector<NodeId>* where = nullptr) const;

  /// Like run() without a fault, but with node `forced`'s value set
  /// overridden to `forced_set` before its fanout is evaluated. Used by
  /// critical path tracing to ask "what if this line carried the fault
  /// effect".
  void run_forced(const TwoFrameStimulus& stimulus, NodeId forced,
                  VSet forced_set, std::vector<VSet>& node_sets) const;

  /// Like run() with a fault, but starting from an already-computed
  /// fault-free pass over the same stimulus: only the site's fanout cone is
  /// re-evaluated. Exactly equivalent to run(stimulus, &fault, node_sets).
  void run_injected(std::span<const VSet> baseline, const FaultSpec& fault,
                    std::vector<VSet>& node_sets) const;

  /// Incremental settle: `node_sets` holds a settled pass (under `fault`)
  /// and `changed` lists source nodes whose raw stimulus set is replaced.
  /// Re-evaluates only the affected cones (dirty worklist over the
  /// topological node order — cost is the cone, not the circuit); the
  /// result is exactly what run() with the updated stimulus would produce.
  void rerun_sources(std::span<const std::pair<NodeId, VSet>> changed,
                     const FaultSpec* fault,
                     std::vector<VSet>& node_sets) const;

  /// One what-if scenario of a batched stem sweep: `node`'s value set is
  /// replaced by `set` before its fanout is evaluated. When `stop` names a
  /// node, the scenario's propagation is truncated there and its value at
  /// `stop` is reported instead of a PO verdict — the hook for
  /// dominator-aware stem marks (every path to an observation point passes
  /// the stop node, so the value there decides the scenario).
  struct ForcedLane {
    NodeId node = kNoNode;
    VSet set = kEmptySet;
    NodeId stop = kNoNode;
  };

  /// Batched run_forced over a shared fault-free baseline: up to
  /// kPackedLanes independent scenarios evaluated in one packed cone sweep
  /// (one byte lane per scenario).
  /// For lanes without a stop node, the returned bitmask has bit i set
  /// when scenario i forces a carrier-only value at some primary output.
  /// For lanes with one, stop_values[i] (which must have one entry per
  /// lane) receives the scenario's settled value at its stop node —
  /// baseline when the wave never reaches it — and the mask bit stays
  /// clear.
  std::uint64_t forced_sweep(std::span<const VSet> baseline,
                             std::span<const ForcedLane> lanes,
                             std::span<VSet> stop_values) const;

  /// forced_sweep without truncation — every lane reports the PO verdict.
  std::uint64_t forced_po_carrier_mask(
      std::span<const VSet> baseline,
      std::span<const ForcedLane> lanes) const {
    return forced_sweep(baseline, lanes, {});
  }

 private:
  /// Re-evaluates the fanout cone of `from` inside `node_sets`, whose value
  /// at `from` has already been overridden (everything upstream holds
  /// baseline values).
  void replay_cone(NodeId from, std::vector<VSet>& node_sets) const;

  const AtpgModel* model_;
  const DelayAlgebra* algebra_;
  /// Scratch for the cone-replay paths (not thread-safe, like the engines
  /// that own this simulator). The worklist resets in O(previous wave),
  /// so replays carry no per-call O(nodes) cost.
  mutable sim::BitQueue work_;
  mutable std::vector<std::uint64_t> packed_;
  mutable std::vector<std::uint64_t> lane_dirty_;
  mutable std::vector<std::uint64_t> lane_forced_;
  mutable std::vector<std::uint64_t> lane_stamp_;
  mutable std::uint64_t lane_epoch_ = 0;
};

}  // namespace gdf::alg
