// Dual-rail parallel three-valued simulation: 64 independent machines
// per pass. Used by FAUSIM to evaluate, in one sweep, the good machine
// together with one faulty machine per fault-effect-carrying flip-flop
// (the paper's phase-2 "stuck-at fault simulation" of the propagation
// sequence).
//
// A Word3 instantiation of the shared flat kernel (sim/flat_circuit): the
// same levelized loop as the scalar engine, one 64-lane word per step.
// Bit b of `ones` set => machine b sees 1; of `zeros` => 0; neither => X.
// Both set is a bug.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "base/error.hpp"
#include "netlist/netlist.hpp"
#include "sim/flat_circuit.hpp"
#include "sim/logic.hpp"

namespace gdf::sim {

struct Word3 {
  std::uint64_t ones = 0;
  std::uint64_t zeros = 0;
};

inline Word3 w3_not(const Word3& a) { return {a.zeros, a.ones}; }

inline Word3 w3_and(const Word3& a, const Word3& b) {
  return {a.ones & b.ones, a.zeros | b.zeros};
}

inline Word3 w3_or(const Word3& a, const Word3& b) {
  return {a.ones | b.ones, a.zeros & b.zeros};
}

inline Word3 w3_xor(const Word3& a, const Word3& b) {
  return {(a.ones & b.zeros) | (a.zeros & b.ones),
          (a.ones & b.ones) | (a.zeros & b.zeros)};
}

/// The same value in every lane (X, D and Dbar leave both rails clear —
/// only definite binary values exist lane-wise).
inline Word3 w3_broadcast(Lv v) {
  Word3 w;
  if (v == Lv::One) {
    w.ones = ~std::uint64_t{0};
  } else if (v == Lv::Zero) {
    w.zeros = ~std::uint64_t{0};
  }
  return w;
}

/// Overwrites one lane (both rails cleared first).
inline void w3_set_lane(Word3& w, unsigned lane, Lv v) {
  GDF_ASSERT(lane < 64, "lane out of range");
  const std::uint64_t bit = std::uint64_t{1} << lane;
  w.ones &= ~bit;
  w.zeros &= ~bit;
  if (v == Lv::One) {
    w.ones |= bit;
  } else if (v == Lv::Zero) {
    w.zeros |= bit;
  }
}

/// Per-lane three-valued value extraction.
inline Lv w3_lane(const Word3& w, unsigned lane) {
  GDF_ASSERT(lane < 64, "lane out of range");
  const bool one = (w.ones >> lane & 1u) != 0;
  const bool zero = (w.zeros >> lane & 1u) != 0;
  GDF_ASSERT(!(one && zero), "corrupt dual-rail word");
  if (one) {
    return Lv::One;
  }
  if (zero) {
    return Lv::Zero;
  }
  return Lv::X;
}

/// 64-lane dual-rail instantiation of the flat kernel's Ops concept.
struct Word3Ops {
  using Value = Word3;

  Value not_(const Value& a) const { return w3_not(a); }
  Value and_(const Value& a, const Value& b) const { return w3_and(a, b); }
  Value or_(const Value& a, const Value& b) const { return w3_or(a, b); }
  Value xor_(const Value& a, const Value& b) const { return w3_xor(a, b); }
};

/// Levelized full-circuit evaluation over 64-lane words.
class ParallelSim3 {
 public:
  /// Builds (and owns) a fresh flat form of the netlist.
  explicit ParallelSim3(const net::Netlist& nl)
      : fc_(FlatCircuit::build(nl)) {}
  /// Shares an already-built flat form.
  explicit ParallelSim3(std::shared_ptr<const FlatCircuit> fc)
      : fc_(std::move(fc)) {
    GDF_ASSERT(fc_ != nullptr, "null flat circuit");
  }

  const std::shared_ptr<const FlatCircuit>& flat() const { return fc_; }

  /// Evaluates one settled frame. `pis` and `state` are per-line boundary
  /// words (inputs in Netlist::inputs() order, state in dffs() order).
  /// Fills `line_values` (resized to gate count).
  void eval_frame(std::span<const Word3> pis, std::span<const Word3> state,
                  std::vector<Word3>& line_values) const {
    const FlatCircuit& fc = *fc_;
    GDF_ASSERT(pis.size() == fc.inputs().size(), "PI word count mismatch");
    GDF_ASSERT(state.size() == fc.dffs().size(), "state word count mismatch");
    line_values.assign(fc.line_count(), Word3{});
    for (std::size_t i = 0; i < pis.size(); ++i) {
      line_values[fc.inputs()[i]] = pis[i];
    }
    for (std::size_t i = 0; i < state.size(); ++i) {
      line_values[fc.dffs()[i]] = state[i];
    }
    eval_flat(fc, Word3Ops{}, line_values.data());
  }

  /// Next-state words (value at each DFF data pin).
  std::vector<Word3> next_state(std::span<const Word3> line_values) const {
    std::vector<Word3> next;
    next_state(line_values, next);
    return next;
  }

  /// In-place variant: fills `next` without allocating per frame.
  void next_state(std::span<const Word3> line_values,
                  std::vector<Word3>& next) const {
    const std::span<const net::GateId> taps = fc_->dff_data();
    next.resize(taps.size());
    for (std::size_t i = 0; i < taps.size(); ++i) {
      next[i] = line_values[taps[i]];
    }
  }

 private:
  std::shared_ptr<const FlatCircuit> fc_;
};

}  // namespace gdf::sim
