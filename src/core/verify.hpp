// Independent end-to-end validation of a generated test sequence. Used by
// the flow (a candidate is only accepted once it verifies) and by the test
// suite. The checks mirror the paper's assumptions: the good machine meets
// the fast-clock timing, non-steady PPO captures are unknown, and a fault
// effect captured in the register must propagate to a PO through slow
// frames regardless of every remaining X.
#pragma once

#include <memory>
#include <string>

#include "algebra/frame_sim.hpp"
#include "algebra/model.hpp"
#include "core/test_sequence.hpp"
#include "netlist/netlist.hpp"
#include "sim/flat_circuit.hpp"

namespace gdf::core {

struct VerifyReport {
  bool ok = false;
  std::string reason;  ///< empty when ok
};

/// Replays the sequence three-valued from power-up and checks:
///  1. the synchronizing prefix establishes every required S0 bit;
///  2. the two local frames force a carrier-only value at a PO, or at a
///     PPO whose captured difference then provably reaches a PO through
///     the propagation frames (twin good/faulty simulation).
/// Replays on `flat`, an already-built flat form of model.netlist() — the
/// flow's shared one, so a verification builds no circuit structure.
VerifyReport verify_sequence(const alg::AtpgModel& model,
                             const alg::DelayAlgebra& algebra,
                             const TestSequence& sequence,
                             std::shared_ptr<const sim::FlatCircuit> flat);

/// The same check on a flat form built for this call.
VerifyReport verify_sequence(const alg::AtpgModel& model,
                             const alg::DelayAlgebra& algebra,
                             const TestSequence& sequence);

}  // namespace gdf::core
