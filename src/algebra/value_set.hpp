// Sets of possible eight-valued assignments, one byte per line.
//
// The ATPG reasons with per-line value sets (after Rajski/Cox, the paper's
// reference [20]): forward implication unions the gate table over member
// pairs, backward implication removes unsupported members. Sets always
// over-approximate the truly reachable values, so "observation set is
// contained in {Rc, Fc}" is a sound test-found criterion and the empty set
// is a definite conflict.
#pragma once

#include <cstdint>
#include <string>

#include "algebra/value8.hpp"

namespace gdf::alg {

using VSet = std::uint8_t;

inline constexpr VSet vset_of(V8 v) {
  return static_cast<VSet>(1u << static_cast<unsigned>(v));
}

inline constexpr VSet kEmptySet = 0;
inline constexpr VSet kFullSet = 0xFF;
/// Legal waveforms at primary and pseudo primary inputs: one clean
/// transition or a steady value; never a hazard, never a carrier.
inline constexpr VSet kPrimaryDomain =
    vset_of(V8::Zero) | vset_of(V8::One) | vset_of(V8::Rise) |
    vset_of(V8::Fall);
inline constexpr VSet kCarrierSet =
    vset_of(V8::RiseC) | vset_of(V8::FallC);
/// Values without a fault effect.
inline constexpr VSet kCleanSet = static_cast<VSet>(~kCarrierSet & 0xFF);

/// The test-found criterion above: a non-empty set of carriers only, so
/// the line surely shows the fault effect.
inline constexpr bool vset_carrier_only(VSet s) {
  return s != kEmptySet && (s & ~kCarrierSet) == 0;
}

inline bool vset_contains(VSet s, V8 v) { return (s & vset_of(v)) != 0; }
inline bool vset_is_singleton(VSet s) { return s != 0 && (s & (s - 1)) == 0; }
inline int vset_size(VSet s) { return __builtin_popcount(s); }

/// The single member of a singleton set.
V8 vset_only(VSet s);

/// Lowest-indexed member of a non-empty set.
V8 vset_first(VSet s);

/// Bitmask over {0,1} of initial-frame values the set allows
/// (bit0: some member has initial 0; bit1: some member has initial 1).
unsigned vset_initials(VSet s);

/// Bitmask over {0,1} of good-machine final values the set allows.
unsigned vset_finals(VSet s);

/// Members whose initial value is in the {0,1}-bitmask `allowed`.
VSet vset_with_initial_in(VSet s, unsigned allowed);

/// Members whose good-machine final value is in the bitmask `allowed`.
VSet vset_with_final_in(VSet s, unsigned allowed);

/// "{0,R,Fc}" rendering for diagnostics.
std::string vset_to_string(VSet s);

}  // namespace gdf::alg
