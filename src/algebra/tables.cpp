#include "algebra/tables.hpp"

#include "base/error.hpp"

namespace gdf::alg {

namespace {

// The AND table of the robust algebra (paper Table 1), reconstructed from
// waveform semantics; the legible entries of the paper's OCR match, as do
// the prose rules ("Rc propagates ... with any value on the off path input
// that is 1 in its final value, but Fc propagates only with a steady one or
// Fc on the off path input").
//
// Row = first operand, column = second, order 0 1 R F 0h 1h Rc Fc.
constexpr V8 Z = V8::Zero;
constexpr V8 O = V8::One;
constexpr V8 R = V8::Rise;
constexpr V8 F = V8::Fall;
constexpr V8 Zh = V8::ZeroH;
constexpr V8 Oh = V8::OneH;
constexpr V8 Rc = V8::RiseC;
constexpr V8 Fc = V8::FallC;

constexpr std::array<std::array<V8, 8>, 8> kRobustAnd = {{
    //        0   1   R   F   0h  1h  Rc  Fc
    /* 0  */ {Z, Z, Z, Z, Z, Z, Z, Z},
    /* 1  */ {Z, O, R, F, Zh, Oh, Rc, Fc},
    /* R  */ {Z, R, R, Zh, Zh, R, Rc, Zh},
    /* F  */ {Z, F, Zh, F, Zh, F, Zh, F},
    /* 0h */ {Z, Zh, Zh, Zh, Zh, Zh, Zh, Zh},
    /* 1h */ {Z, Oh, R, F, Zh, Oh, Rc, F},
    /* Rc */ {Z, Rc, Rc, Zh, Zh, Rc, Rc, Zh},
    /* Fc */ {Z, Fc, Zh, F, Zh, F, Zh, Fc},
}};

// Non-robust (hazard-relaxed) variant: a falling fault effect also
// survives beside a steady-but-hazardous 1 (two cells differ). This is the
// strongest relaxation expressible in the six+two-valued framework: letting
// Fc survive beside a *changing* off-path (R) would make the good machine's
// waveform steady-0 while the value Fc claims a 1->0 transition, corrupting
// the initial-frame component that the state-register constraint depends
// on. A fully non-robust model needs carriers with decoupled good/faulty
// frames (ten values); the enhanced-scan transition-fault comparator in
// the ablation bench provides that upper bound instead.
constexpr std::array<std::array<V8, 8>, 8> kNonRobustAnd = {{
    //        0   1   R   F   0h  1h  Rc  Fc
    /* 0  */ {Z, Z, Z, Z, Z, Z, Z, Z},
    /* 1  */ {Z, O, R, F, Zh, Oh, Rc, Fc},
    /* R  */ {Z, R, R, Zh, Zh, R, Rc, Zh},
    /* F  */ {Z, F, Zh, F, Zh, F, Zh, F},
    /* 0h */ {Z, Zh, Zh, Zh, Zh, Zh, Zh, Zh},
    /* 1h */ {Z, Oh, R, F, Zh, Oh, Rc, Fc},
    /* Rc */ {Z, Rc, Rc, Zh, Zh, Rc, Rc, Zh},
    /* Fc */ {Z, Fc, Zh, F, Zh, Fc, Zh, Fc},
}};

// Paper Table 2: the inverter swaps polarity and keeps the fault effect.
constexpr std::array<V8, 8> kNot = {O, Z, F, R, Oh, Zh, Fc, Rc};

}  // namespace

DelayAlgebra::DelayAlgebra(Mode mode) : mode_(mode) {
  const auto& and_table =
      mode == Mode::Robust ? kRobustAnd : kNonRobustAnd;
  and2_ = and_table;
  // OR and XOR derived from AND and NOT by De Morgan composition, exactly
  // as the paper constructs the remaining primitive tables. OR must be
  // complete before XOR reads from it.
  for (int a = 0; a < 8; ++a) {
    for (int b = 0; b < 8; ++b) {
      const V8 va = static_cast<V8>(a);
      const V8 vb = static_cast<V8>(b);
      or2_[a][b] = v_not(v_and(v_not(va), v_not(vb)));
    }
  }
  for (int a = 0; a < 8; ++a) {
    for (int b = 0; b < 8; ++b) {
      const V8 va = static_cast<V8>(a);
      const V8 vb = static_cast<V8>(b);
      xor2_[a][b] = or2_[idx(v_and(va, v_not(vb)))]
                        [idx(v_and(v_not(va), vb))];
    }
  }

  // Memoize the set operators. Singleton pairs come straight from eval2;
  // wider sets decompose as unions over their lowest member, so every
  // entry is filled from two already-filled ones.
  for (int a = 0; a < 256; ++a) {
    VSet image = kEmptySet;
    for (int v = 0; v < kV8Count; ++v) {
      if (vset_contains(static_cast<VSet>(a), static_cast<V8>(v))) {
        image |= vset_of(v_not(static_cast<V8>(v)));
      }
    }
    not_image_[a] = image;
  }
  for (const Op2 op : {Op2::And, Op2::Or, Op2::Xor}) {
    auto& table = fwd_[static_cast<int>(op)];
    for (int b = 0; b < 256; ++b) {
      table[0][b] = kEmptySet;
    }
    for (int a = 1; a < 256; ++a) {
      table[a][0] = kEmptySet;
      const int a_low = a & -a;
      const int a_rest = a & (a - 1);
      for (int b = 1; b < 256; ++b) {
        if (a_rest != 0) {
          table[a][b] = table[a_low][b] | table[a_rest][b];
          continue;
        }
        const int b_low = b & -b;
        const int b_rest = b & (b - 1);
        if (b_rest != 0) {
          table[a][b] = table[a][b_low] | table[a][b_rest];
          continue;
        }
        table[a][b] = vset_of(eval2(op, vset_only(static_cast<VSet>(a)),
                                    vset_only(static_cast<VSet>(b))));
      }
    }
  }

  // Backward support sets: bwd_[op][b][out] keeps every single value that
  // can, beside some member of b, produce a member of out. Derived from
  // the forward singleton rows so the two tables can never disagree.
  for (const Op2 op : {Op2::And, Op2::Or, Op2::Xor}) {
    const auto& fwd = fwd_[static_cast<int>(op)];
    auto& bwd = bwd_[static_cast<int>(op)];
    for (int b = 0; b < 256; ++b) {
      // Per candidate member m, the outputs reachable beside b.
      std::array<VSet, kV8Count> images;
      for (int v = 0; v < kV8Count; ++v) {
        images[v] = fwd[vset_of(static_cast<V8>(v))][b];
      }
      for (int out = 0; out < 256; ++out) {
        VSet support = kEmptySet;
        for (int v = 0; v < kV8Count; ++v) {
          if ((images[v] & out) != 0) {
            support |= vset_of(static_cast<V8>(v));
          }
        }
        bwd[b][out] = support;
      }
    }
  }
}

V8 DelayAlgebra::v_not(V8 a) const { return kNot[idx(a)]; }

V8 DelayAlgebra::eval2(Op2 op, V8 a, V8 b) const {
  switch (op) {
    case Op2::And:
      return v_and(a, b);
    case Op2::Or:
      return v_or(a, b);
    case Op2::Xor:
      return v_xor(a, b);
  }
  GDF_ASSERT(false, "bad Op2");
  return V8::Zero;
}

VSet DelayAlgebra::site_transform(VSet raw, bool slow_to_rise) {
  const V8 trigger = slow_to_rise ? V8::Rise : V8::Fall;
  const V8 carrier = slow_to_rise ? V8::RiseC : V8::FallC;
  VSet out = raw;
  if (vset_contains(raw, trigger)) {
    out = static_cast<VSet>(out & ~vset_of(trigger));
    out |= vset_of(carrier);
  }
  return out;
}

VSet DelayAlgebra::site_transform_pre(VSet transformed, bool slow_to_rise) {
  const V8 trigger = slow_to_rise ? V8::Rise : V8::Fall;
  const V8 carrier = slow_to_rise ? V8::RiseC : V8::FallC;
  // Values other than the trigger map to themselves; the trigger maps to
  // the carrier and never to itself.
  VSet pre = static_cast<VSet>(transformed &
                               ~(vset_of(trigger) | vset_of(carrier)));
  if (vset_contains(transformed, carrier)) {
    pre |= vset_of(trigger);
  }
  return pre;
}

const DelayAlgebra& robust_algebra() { return algebra_for(Mode::Robust); }

const DelayAlgebra& nonrobust_algebra() {
  return algebra_for(Mode::NonRobust);
}

const DelayAlgebra& algebra_for(Mode mode) {
  // One instance per mode for the life of the process, built lazily and
  // thread-safely on first request.
  if (mode == Mode::Robust) {
    static const DelayAlgebra robust(Mode::Robust);
    return robust;
  }
  static const DelayAlgebra nonrobust(Mode::NonRobust);
  return nonrobust;
}

}  // namespace gdf::alg
