#include "core/verify.hpp"

#include <utility>

#include "base/error.hpp"
#include "sim/seq_sim.hpp"

namespace gdf::core {

using alg::NodeId;
using alg::V8;
using alg::VSet;
using alg::vset_carrier_only;
using sim::Lv;
using sim::lv_bit;

VerifyReport verify_sequence(const alg::AtpgModel& model,
                             const alg::DelayAlgebra& algebra,
                             const TestSequence& sequence,
                             std::shared_ptr<const sim::FlatCircuit> flat) {
  const net::Netlist& nl = model.netlist();
  GDF_ASSERT(&flat->netlist() == &nl,
             "verify_sequence: flat form of another netlist");
  const sim::SeqSimulator simulator(std::move(flat));

  // 1. Synchronization replay from the all-X power-up state.
  sim::StateVec s0 = simulator.unknown_state();
  std::vector<Lv> lines;
  for (const sim::InputVec& pis : sequence.init_frames) {
    simulator.eval_frame(pis, s0, lines);
    s0 = simulator.next_state(lines);
  }
  for (std::size_t k = 0; k < sequence.required_s0.size(); ++k) {
    const int need = sequence.required_s0[k];
    if (need >= 0 && lv_bit(s0[k]) != need) {
      return {false, "synchronization fails to establish S0 bit " +
                         std::to_string(k)};
    }
  }

  // 2. The two local frames.
  simulator.eval_frame(sequence.v1, s0, lines);
  const sim::StateVec s1 = simulator.next_state(lines);

  alg::TwoFrameStimulus stimulus;
  stimulus.pi_sets.reserve(nl.inputs().size());
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
    stimulus.pi_sets.push_back(alg::vset_primary_from_frames(
        lv_bit(sequence.v1[i]), lv_bit(sequence.v2[i])));
  }
  stimulus.ppi_sets.reserve(nl.dffs().size());
  for (std::size_t k = 0; k < nl.dffs().size(); ++k) {
    stimulus.ppi_sets.push_back(
        alg::vset_primary_from_frames(lv_bit(s0[k]), lv_bit(s1[k])));
  }

  const alg::FaultSpec spec{model.head_of(sequence.target.line),
                            sequence.target.slow_to_rise};
  alg::TwoFrameSim frame_sim(model, algebra);
  std::vector<VSet> injected;
  frame_sim.run(stimulus, &spec, injected);

  for (const NodeId obs : model.observation_points()) {
    if (model.node(obs).is_po && vset_carrier_only(injected[obs])) {
      return {true, {}};
    }
  }

  // 3. The fault effect must sit in the register and reach a PO through
  // the propagation frames. Build the good/faulty captured states: steady
  // clean values are definite, carriers resolve to good-final vs
  // faulty-final, everything else is an unknown capture under the fast
  // clock.
  bool any_effect = false;
  sim::StateVec good(nl.dffs().size(), Lv::X);
  sim::StateVec faulty(nl.dffs().size(), Lv::X);
  for (std::size_t k = 0; k < nl.dffs().size(); ++k) {
    const VSet s = injected[model.ppo_node(k)];
    if (s == alg::vset_of(V8::Zero)) {
      good[k] = faulty[k] = Lv::Zero;
    } else if (s == alg::vset_of(V8::One)) {
      good[k] = faulty[k] = Lv::One;
    } else if (s == alg::vset_of(V8::RiseC)) {
      good[k] = Lv::One;
      faulty[k] = Lv::Zero;
      any_effect = true;
    } else if (s == alg::vset_of(V8::FallC)) {
      good[k] = Lv::Zero;
      faulty[k] = Lv::One;
      any_effect = true;
    }
  }
  if (!any_effect) {
    return {false, "fault effect reaches neither a PO nor a definite PPO"};
  }

  if (simulator.po_differs(std::move(good), std::move(faulty),
                           sequence.prop_frames)) {
    return {true, {}};
  }
  return {false, "captured fault effect never reaches a primary output"};
}

VerifyReport verify_sequence(const alg::AtpgModel& model,
                             const alg::DelayAlgebra& algebra,
                             const TestSequence& sequence) {
  return verify_sequence(model, algebra, sequence,
                         sim::FlatCircuit::build(model.netlist()));
}

}  // namespace gdf::core
