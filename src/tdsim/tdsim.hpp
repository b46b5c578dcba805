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
// Two interchangeable engines:
//  * detect_exact — per fault: inject the carrier at the site and re-run
//    the two-frame set simulation (the reference implementation);
//  * detect_cpt — critical path tracing: polarity-aware robust-propagation
//    marks composed backward through single-reader chains, with exact cone
//    re-simulation at fanout stems (the classic CPT stem correction).
// The two agree exactly; tests assert it.
#pragma once

#include <span>
#include <vector>

#include "algebra/frame_sim.hpp"
#include "algebra/model.hpp"
#include "base/error.hpp"
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
                 unsigned stem_lanes = alg::TwoFrameSim::kPackedLanes)
      : model_(&model), algebra_(&algebra), sim_(model, algebra) {
    GDF_ASSERT(stem_lanes == alg::TwoFrameSim::kPackedLanes,
               "CPT stem sweeps pack exactly one 64-bit word");
  }

  /// Reference engine: exact injection per fault.
  std::vector<bool> detect_exact(
      const TdsimRequest& request,
      std::span<const tdgen::DelayFault> faults) const;

  /// Critical path tracing engine.
  std::vector<bool> detect_cpt(
      const TdsimRequest& request,
      std::span<const tdgen::DelayFault> faults) const;

 private:
  bool detect_one(const TdsimRequest& request,
                  std::span<const alg::VSet> fault_free,
                  const tdgen::DelayFault& fault) const;
  bool credited(const TdsimRequest& request,
                std::span<const alg::VSet> fault_free,
                std::span<const alg::VSet> injected) const;

  const alg::AtpgModel* model_;
  const alg::DelayAlgebra* algebra_;
  alg::TwoFrameSim sim_;
};

}  // namespace gdf::tdsim
