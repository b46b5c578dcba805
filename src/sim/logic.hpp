// Five-valued test logic {0, 1, X, D, D'} — the static D-calculus used by
// the sequential engines (SEMILET) and by FAUSIM.
//
// D means good-machine 1 / faulty-machine 0; D' the opposite. X is an
// unknown shared by both machines. The paper's "fixed but unknown" U values
// handed over by TDgen for non-steady PPOs are represented as X, which is
// sound (detection is only claimed when it holds for every value of X) and
// reproduces the pessimism §6 of the paper describes.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "netlist/gate_type.hpp"

namespace gdf::sim {

enum class Lv : std::uint8_t { Zero = 0, One = 1, X = 2, D = 3, Dbar = 4 };

inline constexpr int kLvCount = 5;

/// "0", "1", "X", "D", "D'".
std::string_view lv_name(Lv v);

inline bool is_binary(Lv v) { return v == Lv::Zero || v == Lv::One; }
/// 0 or 1 for a binary value, -1 otherwise.
inline int lv_bit(Lv v) {
  return v == Lv::Zero ? 0 : v == Lv::One ? 1 : -1;
}
inline bool is_fault_effect(Lv v) { return v == Lv::D || v == Lv::Dbar; }

/// Good-machine component (D -> 1, D' -> 0, else itself).
Lv good_value(Lv v);
/// Faulty-machine component (D -> 0, D' -> 1, else itself).
Lv faulty_value(Lv v);
/// Combines independent good/faulty components into one Lv (X if either
/// side is X but the sides disagree in a way X cannot express... see impl).
Lv combine(Lv good, Lv faulty);

Lv lv_not(Lv a);
Lv lv_and(Lv a, Lv b);
Lv lv_or(Lv a, Lv b);
Lv lv_xor(Lv a, Lv b);

/// Evaluates one gate over already-computed fanin values. Input and Dff
/// gates are boundary values owned by the simulator and must not be passed
/// here.
Lv eval_gate(net::GateType type, std::span<const Lv> fanin);

/// Precomputed composition tables over the five values. The flat scalar
/// kernel indexes these instead of re-deriving the good/faulty machine
/// decomposition per fanin pair.
struct LvTables {
  Lv not1[kLvCount];
  Lv and2[kLvCount][kLvCount];
  Lv or2[kLvCount][kLvCount];
  Lv xor2[kLvCount][kLvCount];
};

/// Shared immutable instance, filled from lv_not/lv_and/lv_or/lv_xor.
const LvTables& lv_tables();

/// Scalar five-valued instantiation of the flat kernel's Ops concept.
struct LvOps {
  using Value = Lv;
  const LvTables* t = &lv_tables();

  Lv not_(Lv a) const { return t->not1[static_cast<int>(a)]; }
  Lv and_(Lv a, Lv b) const {
    return t->and2[static_cast<int>(a)][static_cast<int>(b)];
  }
  Lv or_(Lv a, Lv b) const {
    return t->or2[static_cast<int>(a)][static_cast<int>(b)];
  }
  Lv xor_(Lv a, Lv b) const {
    return t->xor2[static_cast<int>(a)][static_cast<int>(b)];
  }
};

}  // namespace gdf::sim
