// Gate truth tables over the eight-valued logic — the paper's Tables 1
// (AND) and 2 (inverter), with every other gate type derived from them by
// De Morgan composition exactly as §3 describes.
//
// Two algebra modes exist:
//  * Robust (the paper's model): a falling fault effect (Fc) propagates
//    through an AND only beside a steady hazard-free 1 or another Fc; a
//    rising one (Rc) beside any final-1 value.
//  * NonRobust (the §7 outlook): carriers track (good final, faulty final)
//    only; Fc additionally survives beside 1h and R. Used by the ablation
//    bench that quantifies the paper's closing claim.
#pragma once

#include <array>

#include "algebra/value8.hpp"
#include "algebra/value_set.hpp"

namespace gdf::alg {

enum class Mode { Robust, NonRobust };

/// Associative two-input bodies the netlist decomposes into. Inversions
/// (NAND/NOR/NOT/XNOR) become explicit Not nodes.
enum class Op2 : std::uint8_t { And, Or, Xor };

class DelayAlgebra {
 public:
  explicit DelayAlgebra(Mode mode);

  Mode mode() const { return mode_; }

  // Single-value evaluation ------------------------------------------------
  V8 v_not(V8 a) const;
  V8 v_and(V8 a, V8 b) const { return and2_[idx(a)][idx(b)]; }
  V8 v_or(V8 a, V8 b) const { return or2_[idx(a)][idx(b)]; }
  V8 v_xor(V8 a, V8 b) const { return xor2_[idx(a)][idx(b)]; }
  V8 eval2(Op2 op, V8 a, V8 b) const;

  // Set-level evaluation ---------------------------------------------------
  // The set operators are the hot path of the implication engine and the
  // two-frame simulator (hundreds of millions of calls per ATPG run), so
  // they are memoized exhaustively at construction: 2^8 x 2^8 set pairs per
  // operator, one byte each.

  /// Exact image of the Not bijection.
  VSet set_not(VSet a) const { return not_image_[a]; }

  /// Union of eval2 over all member pairs: possible outputs.
  VSet set_fwd(Op2 op, VSet a, VSet b) const {
    return fwd_[static_cast<int>(op)][a][b];
  }

  /// Members of `a` that can, with some member of `b`, produce a value in
  /// `out` — the backward pruning step of the implication engine. Whether a
  /// member survives is independent of the other members of `a`, so the
  /// support set over the full domain is memoized per (b, out) pair and the
  /// call collapses to one lookup plus an intersection.
  VSet set_bwd_first(Op2 op, VSet a, VSet b, VSet out) const {
    return static_cast<VSet>(a & bwd_[static_cast<int>(op)][b][out]);
  }

  /// Fault-site transform: replaces the activating transition by its
  /// carrier (R->Rc for slow-to-rise, F->Fc for slow-to-fall). Other values
  /// pass unchanged.
  static VSet site_transform(VSet raw, bool slow_to_rise);
  /// Preimage of site_transform.
  static VSet site_transform_pre(VSet transformed, bool slow_to_rise);

 private:
  static int idx(V8 v) { return static_cast<int>(v); }

  Mode mode_;
  std::array<std::array<V8, 8>, 8> and2_;
  std::array<std::array<V8, 8>, 8> or2_;
  std::array<std::array<V8, 8>, 8> xor2_;
  std::array<VSet, 256> not_image_;
  std::array<std::array<std::array<VSet, 256>, 256>, 3> fwd_;
  /// bwd_[op][b][out]: members of the full domain that can, with some
  /// member of b, produce a value in out.
  std::array<std::array<std::array<VSet, 256>, 256>, 3> bwd_;
};

/// The process-wide memoized tables (pure data): one immutable instance
/// per mode, built lazily and thread-safely on first request and shared
/// by every engine in the process.
const DelayAlgebra& robust_algebra();
const DelayAlgebra& nonrobust_algebra();
const DelayAlgebra& algebra_for(Mode mode);

}  // namespace gdf::alg
