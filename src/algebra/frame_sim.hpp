// Forward set-valued simulation of the two local time frames over the
// decomposed model — the functional core shared by TDgen's implication
// bootstrap, TDsim's fault-injection checks, and the end-to-end verifier.
//
// Because the tables never create a carrier from carrier-free operands, a
// carrier can appear in the result only downstream of the injected fault
// site; with no fault injected the simulation is a plain two-frame hazard
// analysis.
#pragma once

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

 private:
  const AtpgModel* model_;
  const DelayAlgebra* algebra_;
  /// Scratch for the cone replays (not thread-safe, like the engines
  /// that own this simulator). The worklist resets in O(previous wave),
  /// so replays carry no per-call O(nodes) cost.
  mutable sim::BitQueue work_;
};

}  // namespace gdf::alg
