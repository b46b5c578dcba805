// TDsim — the delay fault simulator integrated in TDgen (paper §5,
// phase 3): given the two local frames of an applied test, determine every
// StR/StF fault the pattern detects robustly.
//
// Observation points are the primary outputs plus the PPOs that FAUSIM
// found observable through the propagation sequence. A fault observed only
// through a PPO is credited only if its effect cannot, as a side effect,
// invalidate a state bit the propagation phase relies on — the paper's
// separate invalidation trace.
//
// One engine: a fault-free pass over the stimulus, then, per requested
// fault whose site makes the clean transition, the carrier injected at the
// site and only the site's fanout cone replayed over that pass. The cost
// follows the request: a dropping pass asks about the still untested
// faults only, and that list shrinks as faults are dropped.
#pragma once

#include <span>
#include <vector>

#include "algebra/frame_sim.hpp"
#include "algebra/model.hpp"
#include "tdgen/fault.hpp"

namespace gdf::tdsim {

struct TdsimRequest {
  /// The two local frames as applied (concrete bits; X allowed — detection
  /// is only credited when it holds for every X completion).
  alg::TwoFrameStimulus stimulus;
  /// Per flip-flop: FAUSIM phase-2 observability of the PPO.
  std::vector<bool> observable_ppo;
  /// Flip-flops whose post-fast-frame value the propagation phase relies
  /// on; a credited fault must leave these exactly as the good machine.
  std::vector<std::size_t> needed_ppos;
};

class Tdsim {
 public:
  explicit Tdsim(const alg::AtpgModel& model,
                 const alg::DelayAlgebra& algebra,
                 // kept for perfbench; drop at the next benchmark change
                 unsigned = 0)
      : model_(&model), sim_(model, algebra) {}

  /// Per fault: whether the request's stimulus detects it robustly.
  std::vector<bool> detect(const TdsimRequest& request,
                           std::span<const tdgen::DelayFault> faults) const;

  // kept for perfbench; drop at the next benchmark change
  std::vector<bool> detect_cpt(
      const TdsimRequest& request,
      std::span<const tdgen::DelayFault> faults) const {
    return detect(request, faults);
  }

 private:
  bool credited(const TdsimRequest& request,
                std::span<const alg::VSet> fault_free,
                std::span<const alg::VSet> injected) const;

  const alg::AtpgModel* model_;
  alg::TwoFrameSim sim_;
};

}  // namespace gdf::tdsim
