// FAUSIM — the fault simulator integrated in SEMILET (paper §5, phases 1
// and 2 of the three-phase fault simulation):
//
//  1. good-machine simulation of the complete generated sequence, with the
//     X values left by test generation "set at random to 0 or 1";
//  2. "stuck-at fault simulation" of the propagation phase: a D value is
//     injected at each pseudo primary output that is not steady, and the
//     propagation frames are simulated to find which PPOs are observable
//     at a primary output. All injections run in batched 64-lane
//     dual-rail passes (sim/parallel3): lane 0 is the good machine, the
//     other 63 each flip one captured flip-flop bit.
//
// Phase 3 (delay-fault critical path tracing inside the fast frame) lives
// in TDsim.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "base/rng.hpp"
#include "sim/flat_circuit.hpp"
#include "sim/lanes.hpp"
#include "sim/parallel3.hpp"
#include "sim/seq_sim.hpp"

namespace gdf::fausim {

class Fausim {
 public:
  explicit Fausim(const net::Netlist& nl);
  /// Shares an already-built flat circuit form.
  explicit Fausim(std::shared_ptr<const sim::FlatCircuit> fc,
                  // kept for perfbench; drop at the next benchmark change
                  sim::LaneSpec = {});

  struct GoodTrace {
    /// Input vectors with every X bit filled randomly (what the tester
    /// would apply).
    std::vector<sim::InputVec> filled;
    /// states[k] = state entering frame k (states[0] is all-X power-up);
    /// one more entry than frames (the final state).
    std::vector<sim::StateVec> states;
  };

  /// Phase 1: good-machine simulation from power-up. Deterministic in the
  /// caller's RNG.
  GoodTrace simulate_good(std::span<const sim::InputVec> frames,
                          Rng& rng) const;

  /// Phase 2: per flip-flop, whether a good/faulty difference captured at
  /// that flip-flop at the start of the propagation phase reaches a
  /// primary output. Flip-flops whose good value is X cannot carry a
  /// meaningful single-bit difference and report false.
  std::vector<bool> ppo_observability(
      const sim::StateVec& state_after_fast,
      std::span<const sim::InputVec> propagation_frames) const;

  /// Kernel work since the last harvest; resets the counters. Serialized
  /// by the caller like the simulators' scratch.
  sim::KernelCounters take_kernel_counters();

  const net::Netlist& netlist() const { return fc_->netlist(); }

 private:
  /// One 64-lane pass over the loaded PI words: lane 1 + l flips
  /// state_after_fast[flipped[l]], and every flip whose difference
  /// reaches a primary output sets observable[flipped[l]].
  void run_pass(const sim::StateVec& state_after_fast,
                std::span<const std::size_t> flipped,
                std::vector<bool>& observable) const;

  std::shared_ptr<const sim::FlatCircuit> fc_;
  sim::SeqSimulator scalar_;
  sim::ParallelSim3 packed_;
  /// Pass scratch behind the const API, like the scalar engine's buffers —
  /// never shared across threads. pi_words_ holds the propagation frames'
  /// PIs broadcast to every lane, converted once per observability call.
  mutable std::vector<std::vector<sim::Word3>> pi_words_;
  mutable std::vector<sim::Word3> state_;
  mutable std::vector<sim::Word3> lines_;
  mutable std::vector<sim::Word3> next_;
  mutable long scalar_evals_ = 0;
  mutable long lane_evals_ = 0;
};

}  // namespace gdf::fausim
