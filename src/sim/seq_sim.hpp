// Frame-by-frame simulator of the sequential circuit over the five-valued
// logic. One "frame" is one clock period: combinational settling followed by
// the register edge — the time frame model of the paper's Figure 2 (this
// simulator always models the slow clock, where every signal settles).
//
// A thin scalar instantiation of the shared flat kernel (sim/flat_circuit):
// the per-frame walk is the same levelized loop the 64-lane engine uses,
// specialized to table-driven five-valued values.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/flat_circuit.hpp"
#include "sim/logic.hpp"
#include "sim/worklist.hpp"

namespace gdf::sim {

/// State vector: one value per flip-flop, indexed by position in
/// Netlist::dffs() order.
using StateVec = std::vector<Lv>;
/// Input vector: one value per primary input, in Netlist::inputs() order.
using InputVec = std::vector<Lv>;

/// A static fault active during a frame: the named line's faulty-machine
/// value is forced to `faulty` (good-machine value computed normally), so a
/// divergence appears as D/D' and propagates through the D-calculus.
struct Injection {
  net::GateId line = net::kNoGate;
  Lv faulty = Lv::X;

  bool active() const { return line != net::kNoGate; }
};

class SeqSimulator {
 public:
  /// Builds (and owns) a fresh flat form of the netlist.
  explicit SeqSimulator(const net::Netlist& nl);
  /// Shares an already-built flat form — the engines of one flow build the
  /// circuit structure once and hand it around.
  explicit SeqSimulator(std::shared_ptr<const FlatCircuit> fc);

  const net::Netlist& netlist() const { return fc_->netlist(); }
  const std::shared_ptr<const FlatCircuit>& flat() const { return fc_; }

  /// All-X power-up state.
  StateVec unknown_state() const;

  /// Computes every line value for one settled frame. `line_values` is
  /// resized to the gate count; Input gates carry the PI value, Dff gates
  /// carry the present-state value. `injection`, if given, forces the
  /// faulty machine's value at one line (stuck-at style).
  void eval_frame(std::span<const Lv> pis, std::span<const Lv> state,
                  std::vector<Lv>& line_values,
                  const Injection* injection = nullptr) const;

  /// Incremental resettle of a settled frame after boundary changes: the
  /// caller updated some Input/Dff line values in `line_values` (already
  /// including any injection at a boundary site) and pushed the changed
  /// lines' readers() into `work`. Replays only the affected body cones;
  /// the result is exactly eval_frame() over the updated boundary. The
  /// worklist is caller-owned scratch so the simulator stays shareable.
  void resettle_frame(std::vector<Lv>& line_values, BitQueue& work,
                      const Injection* injection = nullptr) const;

  /// Next-state vector implied by settled line values (value at each DFF's
  /// data pin).
  StateVec next_state(std::span<const Lv> line_values) const;

  /// Primary output values from settled line values.
  std::vector<Lv> outputs(std::span<const Lv> line_values) const;

  /// Twin good/faulty replay: simulates `frames` from the good machine's
  /// state `good` and the faulty machine's state `faulty`, frame by frame,
  /// and returns true as soon as some PO is binary on both machines and
  /// differs between them.
  bool po_differs(StateVec good, StateVec faulty,
                  std::span<const InputVec> frames) const;

  /// Runs a whole input sequence from `state`, returning the final state;
  /// if `po_trace` is given it receives the PO vector of every frame.
  StateVec run(std::span<const InputVec> sequence, StateVec state,
               std::vector<std::vector<Lv>>* po_trace = nullptr) const;

 private:
  std::shared_ptr<const FlatCircuit> fc_;
};

}  // namespace gdf::sim
