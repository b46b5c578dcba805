// Forward-time fault-effect propagation with reverse-time justification —
// the propagation half of the FOGBUSTER algorithm (paper §4).
//
// Starting from the state left by the fast clock frame (fault effect D/D'
// at one or more flip-flops, steady known bits, and fixed-but-unknown U
// bits), the propagator expands time frames forward under the slow clock
// until the effect reaches a primary output. Per frame a five-valued PODEM
// chooses PI values; X state bits may be assigned where the caller permits,
// and every such assignment becomes a requirement that the reverse-time
// justification pass resolves through the earlier propagation frames. The
// requirements that reach the first boundary are returned to the caller,
// which hands them to TDgen as pinned steady PPO values ("the local test
// generation is called for performing the propagation justification task
// for the fast clock time frame").
#pragma once

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "semilet/frame_podem.hpp"
#include "semilet/options.hpp"
#include "sim/seq_sim.hpp"

namespace gdf::semilet {

enum class SeqStatus { Success, Exhausted, Aborted };

struct PropagationOutcome {
  /// Chronological PI vectors of the propagation frames (justified).
  std::vector<sim::InputVec> frames;
  /// Requirements on the fast-frame boundary: flip-flop index -> value the
  /// PPO must robustly deliver (TDgen pin requests).
  std::vector<std::pair<std::size_t, sim::Lv>> boundary_requirements;
};

class Propagator {
 public:
  /// No fault is injected in the propagation frames: under a slow clock
  /// the delay fault does not occur ("the fault location is not needed to
  /// be known by SEMILET").
  Propagator(const net::Netlist& nl, Budget& budget);

  /// Shares an already-built flat circuit form (see sim/flat_circuit) so
  /// repeated searches over one netlist do not rebuild the structure.
  Propagator(std::shared_ptr<const sim::FlatCircuit> fc, Budget& budget);

  /// Begins a new enumeration from the boundary state. `assignable`
  /// marks the X bits the search may require values for (TDgen re-entry).
  void start(sim::StateVec boundary_state, std::vector<bool> assignable);

  /// Next distinct propagation candidate with justified requirements.
  SeqStatus next(PropagationOutcome* out);

 private:
  /// Each time frame runs two searches: first a PO-directed one (solutions
  /// are detection candidates), then — once that is exhausted — an
  /// advance-only one whose solutions feed the next frame.
  struct Layer {
    std::unique_ptr<FramePodem> po_podem;
    std::unique_ptr<FramePodem> advance_podem;
    bool advancing = false;
    FrameSolution sol;
    sim::StateVec in_state;
    std::vector<bool> assignable;
  };

  bool push_layer(sim::StateVec in_state, std::vector<bool> assignable);
  bool justify(PropagationOutcome* out);

  const net::Netlist* nl_;
  sim::SeqSimulator sim_;
  Budget* budget_;
  std::vector<Layer> layers_;
  std::set<std::string> seen_;
  bool started_ = false;
};

}  // namespace gdf::semilet
