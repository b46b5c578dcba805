// Exact and property-based checks of the eight-valued algebra — the
// reproduction of the paper's Tables 1 and 2.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "algebra/tables.hpp"

namespace gdf::alg {
namespace {

constexpr V8 Z = V8::Zero;
constexpr V8 O = V8::One;
constexpr V8 R = V8::Rise;
constexpr V8 F = V8::Fall;
constexpr V8 Zh = V8::ZeroH;
constexpr V8 Oh = V8::OneH;
constexpr V8 Rc = V8::RiseC;
constexpr V8 Fc = V8::FallC;

const std::array<V8, 8> kAll = {Z, O, R, F, Zh, Oh, Rc, Fc};

TEST(Table2Inverter, ExactPerPaper) {
  const DelayAlgebra& a = robust_algebra();
  EXPECT_EQ(a.v_not(Z), O);
  EXPECT_EQ(a.v_not(O), Z);
  EXPECT_EQ(a.v_not(R), F);
  EXPECT_EQ(a.v_not(F), R);
  EXPECT_EQ(a.v_not(Zh), Oh);
  EXPECT_EQ(a.v_not(Oh), Zh);
  EXPECT_EQ(a.v_not(Rc), Fc);
  EXPECT_EQ(a.v_not(Fc), Rc);
}

TEST(Table1And, FullRobustTable) {
  // Row order 0,1,R,F,0h,1h,Rc,Fc; reconstructed from waveform semantics
  // (see the table comment in algebra/tables.cpp). The legible OCR rows of
  // the paper (Rc and Fc) are asserted verbatim below.
  const std::array<std::array<V8, 8>, 8> expected = {{
      {Z, Z, Z, Z, Z, Z, Z, Z},
      {Z, O, R, F, Zh, Oh, Rc, Fc},
      {Z, R, R, Zh, Zh, R, Rc, Zh},
      {Z, F, Zh, F, Zh, F, Zh, F},
      {Z, Zh, Zh, Zh, Zh, Zh, Zh, Zh},
      {Z, Oh, R, F, Zh, Oh, Rc, F},
      {Z, Rc, Rc, Zh, Zh, Rc, Rc, Zh},
      {Z, Fc, Zh, F, Zh, F, Zh, Fc},
  }};
  const DelayAlgebra& a = robust_algebra();
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      EXPECT_EQ(a.v_and(kAll[i], kAll[j]), expected[i][j])
          << v8_name(kAll[i]) << " AND " << v8_name(kAll[j]);
    }
  }
}

TEST(Table1And, PaperProseRules) {
  const DelayAlgebra& a = robust_algebra();
  // "Rc propagates from the on path input to the output of the gate with
  // any value on the off path input that is 1 in its final value."
  for (const V8 off : {O, Oh, R, Rc}) {
    EXPECT_EQ(a.v_and(Rc, off), Rc) << v8_name(off);
  }
  // "...but Fc propagates only with a steady one or Fc on the off path."
  EXPECT_EQ(a.v_and(Fc, O), Fc);
  EXPECT_EQ(a.v_and(Fc, Fc), Fc);
  for (const V8 off : {R, F, Zh, Oh, Rc}) {
    EXPECT_NE(a.v_and(Fc, off), Fc) << v8_name(off);
  }
}

TEST(Table1And, CarrierNeverEmergesFromCleanOperands) {
  // "Note that an Rc or Fc value never emerges at an output of a gate if
  // there wasn't already one or more of these values at the input."
  const DelayAlgebra& a = robust_algebra();
  for (const V8 x : kAll) {
    for (const V8 y : kAll) {
      if (!v8_is_carrier(x) && !v8_is_carrier(y)) {
        EXPECT_FALSE(v8_is_carrier(a.v_and(x, y)));
        EXPECT_FALSE(v8_is_carrier(a.v_or(x, y)));
        EXPECT_FALSE(v8_is_carrier(a.v_xor(x, y)));
      }
    }
  }
}

class AlgebraModeTest : public ::testing::TestWithParam<Mode> {};

TEST_P(AlgebraModeTest, AndOrCommutativeIdempotent) {
  const DelayAlgebra& a = algebra_for(GetParam());
  for (const V8 x : kAll) {
    EXPECT_EQ(a.v_and(x, x), x);
    EXPECT_EQ(a.v_or(x, x), x);
    for (const V8 y : kAll) {
      EXPECT_EQ(a.v_and(x, y), a.v_and(y, x));
      EXPECT_EQ(a.v_or(x, y), a.v_or(y, x));
      EXPECT_EQ(a.v_xor(x, y), a.v_xor(y, x));
    }
  }
}

TEST_P(AlgebraModeTest, AndOrStrictlyAssociative) {
  // Exact associativity holds in both algebras (so multi-input gates can
  // be decomposed into chains without changing any result).
  const DelayAlgebra& a = algebra_for(GetParam());
  for (const V8 x : kAll) {
    for (const V8 y : kAll) {
      for (const V8 z : kAll) {
        EXPECT_EQ(a.v_and(a.v_and(x, y), z), a.v_and(x, a.v_and(y, z)));
        EXPECT_EQ(a.v_or(a.v_or(x, y), z), a.v_or(x, a.v_or(y, z)));
      }
    }
  }
}

TEST_P(AlgebraModeTest, ZeroAndOneActAsLatticeConstants) {
  const DelayAlgebra& a = algebra_for(GetParam());
  for (const V8 x : kAll) {
    EXPECT_EQ(a.v_and(Z, x), Z);
    EXPECT_EQ(a.v_and(O, x), x);
    EXPECT_EQ(a.v_or(O, x), O);
    EXPECT_EQ(a.v_or(Z, x), x);
  }
}

TEST_P(AlgebraModeTest, DeMorganByConstruction) {
  const DelayAlgebra& a = algebra_for(GetParam());
  for (const V8 x : kAll) {
    for (const V8 y : kAll) {
      EXPECT_EQ(a.v_or(x, y), a.v_not(a.v_and(a.v_not(x), a.v_not(y))));
      EXPECT_EQ(a.v_and(x, y), a.v_not(a.v_or(a.v_not(x), a.v_not(y))));
    }
  }
}

TEST_P(AlgebraModeTest, GoodMachineFramesAreExact) {
  // Initial values and good-machine final values behave like two
  // independent Boolean frames under every operation, in both modes. This
  // exactness is what the state-register constraint relies on; it is the
  // reason the non-robust table is restricted to the hazard relaxation
  // (Fc AND R = Fc would violate it — see tables.cpp).
  const DelayAlgebra& a = algebra_for(GetParam());
  for (const V8 x : kAll) {
    for (const V8 y : kAll) {
      const V8 and_out = a.v_and(x, y);
      EXPECT_EQ(v8_initial(and_out), v8_initial(x) & v8_initial(y))
          << v8_name(x) << " AND " << v8_name(y);
      EXPECT_EQ(v8_final(and_out), v8_final(x) & v8_final(y));
      const V8 or_out = a.v_or(x, y);
      EXPECT_EQ(v8_initial(or_out), v8_initial(x) | v8_initial(y));
      EXPECT_EQ(v8_final(or_out), v8_final(x) | v8_final(y));
      const V8 xor_out = a.v_xor(x, y);
      EXPECT_EQ(v8_initial(xor_out), v8_initial(x) ^ v8_initial(y));
      EXPECT_EQ(v8_final(xor_out), v8_final(x) ^ v8_final(y));
    }
  }
}

TEST_P(AlgebraModeTest, CarrierOutputsTrackFaultyMachine) {
  // Whenever a carrier survives, its faulty final value must equal the AND
  // of the operands' faulty finals (soundness of kept fault effects).
  const DelayAlgebra& a = algebra_for(GetParam());
  for (const V8 x : kAll) {
    for (const V8 y : kAll) {
      const V8 out = a.v_and(x, y);
      if (v8_is_carrier(out)) {
        EXPECT_EQ(v8_final_faulty(out),
                  v8_final_faulty(x) & v8_final_faulty(y))
            << v8_name(x) << " AND " << v8_name(y);
      }
    }
  }
}

TEST_P(AlgebraModeTest, SetInitialsDependOnOperandInitialsOnly) {
  // TDgen's verification probe seeds each PPI's finals from a cached
  // state and still reads exact PPO initials, because a node's
  // initial-frame members depend on nothing but its sources' initial
  // members: over every set pair, each operator's initials are the
  // Boolean image of the operands' initials, set_not swaps them, and the
  // fault-site transform keeps them.
  const DelayAlgebra& a = algebra_for(GetParam());
  const auto bool_op = [](Op2 op, unsigned x, unsigned y) {
    return op == Op2::And ? x & y : op == Op2::Or ? x | y : x ^ y;
  };
  long mismatches = 0;
  for (const Op2 op : {Op2::And, Op2::Or, Op2::Xor}) {
    for (int sa = 0; sa <= 0xFF; ++sa) {
      const unsigned ia = vset_initials(static_cast<VSet>(sa));
      for (int sb = 0; sb <= 0xFF; ++sb) {
        const unsigned ib = vset_initials(static_cast<VSet>(sb));
        unsigned image = 0;
        for (unsigned x = 0; x < 2; ++x) {
          for (unsigned y = 0; y < 2; ++y) {
            if ((ia >> x & 1u) != 0 && (ib >> y & 1u) != 0) {
              image |= 1u << bool_op(op, x, y);
            }
          }
        }
        const VSet out = a.set_fwd(op, static_cast<VSet>(sa),
                                   static_cast<VSet>(sb));
        if (vset_initials(out) != image && ++mismatches <= 5) {
          ADD_FAILURE() << "op " << static_cast<int>(op) << " on "
                        << vset_to_string(static_cast<VSet>(sa)) << ", "
                        << vset_to_string(static_cast<VSet>(sb));
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
  for (int s = 0; s <= 0xFF; ++s) {
    const VSet in = static_cast<VSet>(s);
    const unsigned inits = vset_initials(in);
    EXPECT_EQ(vset_initials(a.set_not(in)), (inits & 1u) << 1 | inits >> 1)
        << vset_to_string(in);
    for (const bool str : {true, false}) {
      EXPECT_EQ(vset_initials(DelayAlgebra::site_transform(in, str)), inits)
          << vset_to_string(in);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BothModes, AlgebraModeTest,
                         ::testing::Values(Mode::Robust, Mode::NonRobust),
                         [](const ::testing::TestParamInfo<Mode>& info) {
                           return info.param == Mode::Robust ? "Robust"
                                                             : "NonRobust";
                         });

TEST(RegisterPrune, KeepsThePpiInitials) {
  // TDgen's probe keys a PPI by its initials and seeds it with the raw
  // set under them, pruned to the finals its PPO allows. A passing probe
  // leaves every PPI non-empty, so the prune must keep the initials
  // exactly: then a published stimulus fixes its source key, and the
  // search can flag duplicates per key.
  for (unsigned inits = 0; inits < 4; ++inits) {
    const VSet raw = vset_with_initial_in(kPrimaryDomain, inits);
    for (unsigned fins = 1; fins < 4; ++fins) {
      EXPECT_EQ(vset_initials(vset_with_final_in(raw, fins)), inits)
          << "initials " << inits << ", finals " << fins;
    }
  }
}

TEST(NonRobustTable, ExactlyTwoCellsRelaxed) {
  // The hazard relaxation: Fc survives beside a steady-but-hazardous 1.
  // (Relaxing changing off-paths as well would need ten values; see
  // tables.cpp.)
  const DelayAlgebra& r = robust_algebra();
  const DelayAlgebra& n = nonrobust_algebra();
  int diffs = 0;
  for (const V8 x : kAll) {
    for (const V8 y : kAll) {
      if (r.v_and(x, y) != n.v_and(x, y)) {
        ++diffs;
        EXPECT_EQ(n.v_and(x, y), Fc);  // every relaxation keeps Fc alive
        EXPECT_TRUE((x == Fc && y == Oh) || (y == Fc && x == Oh))
            << v8_name(x) << " AND " << v8_name(y);
      }
    }
  }
  EXPECT_EQ(diffs, 2);
}

TEST(NonRobustTable, HazardTolerantFallingPropagation) {
  const DelayAlgebra& r = robust_algebra();
  const DelayAlgebra& n = nonrobust_algebra();
  // Robust: a hazardous off-path 1 strips the falling fault effect;
  // relaxed: it survives. Changing off-paths strip it in both modes.
  EXPECT_EQ(r.v_and(Fc, Oh), F);
  EXPECT_EQ(n.v_and(Fc, Oh), Fc);
  EXPECT_FALSE(v8_is_carrier(n.v_and(Fc, R)));
  EXPECT_FALSE(v8_is_carrier(r.v_and(Fc, R)));
  // Rising propagation is already final-value-only in the robust model,
  // so the modes agree on every Rc row cell.
  for (const V8 y : kAll) {
    EXPECT_EQ(r.v_and(Rc, y), n.v_and(Rc, y));
  }
}

TEST(XorComposition, CarrierCases) {
  const DelayAlgebra& a = robust_algebra();
  EXPECT_EQ(a.v_xor(Rc, Z), Rc);
  EXPECT_EQ(a.v_xor(Rc, O), Fc);  // inverting side swaps polarity
  EXPECT_EQ(a.v_xor(Fc, Z), Fc);
  EXPECT_EQ(a.v_xor(Fc, O), Rc);
  // A changing off-path input invalidates robustness through XOR.
  EXPECT_FALSE(v8_is_carrier(a.v_xor(Rc, R)));
  EXPECT_FALSE(v8_is_carrier(a.v_xor(Rc, F)));
}

TEST(SetOps, ForwardIsUnionOfPairs) {
  const DelayAlgebra& a = robust_algebra();
  const VSet s1 = vset_of(R) | vset_of(O);
  const VSet s2 = vset_of(Fc) | vset_of(O);
  const VSet out = a.set_fwd(Op2::And, s1, s2);
  // Pairs: R&Fc=0h, R&1=R, 1&Fc=Fc, 1&1=1.
  EXPECT_EQ(out, static_cast<VSet>(vset_of(Zh) | vset_of(R) | vset_of(Fc) |
                                   vset_of(O)));
}

TEST(SetOps, BackwardKeepsOnlySupportedMembers) {
  const DelayAlgebra& a = robust_algebra();
  // Output must be Fc; first operand ranges over everything, second is
  // exactly Fc: only 1 and Fc survive on the first input.
  const VSet pruned =
      a.set_bwd_first(Op2::And, kFullSet, vset_of(Fc), vset_of(Fc));
  EXPECT_EQ(pruned, static_cast<VSet>(vset_of(O) | vset_of(Fc)));
}

TEST(SetOps, NotIsExactBijection) {
  const DelayAlgebra& a = robust_algebra();
  for (int s = 0; s <= 0xFF; ++s) {
    const VSet in = static_cast<VSet>(s);
    EXPECT_EQ(a.set_not(a.set_not(in)), in);
    EXPECT_EQ(vset_size(a.set_not(in)), vset_size(in));
  }
}

TEST(SetOps, ForwardMonotoneInOperands) {
  const DelayAlgebra& a = robust_algebra();
  // Adding members to an operand can only grow the output set.
  const VSet base = vset_of(R);
  const VSet wider = vset_of(R) | vset_of(Oh);
  const VSet other = vset_of(Rc) | vset_of(O);
  const VSet out_base = a.set_fwd(Op2::And, base, other);
  const VSet out_wider = a.set_fwd(Op2::And, wider, other);
  EXPECT_EQ(static_cast<VSet>(out_base & out_wider), out_base);
}

TEST(SiteTransform, ReplacesTriggerWithCarrier) {
  const VSet raw = vset_of(R) | vset_of(Z);
  const VSet str = DelayAlgebra::site_transform(raw, true);
  EXPECT_EQ(str, static_cast<VSet>(vset_of(Rc) | vset_of(Z)));
  const VSet stf = DelayAlgebra::site_transform(raw, false);
  EXPECT_EQ(stf, raw);  // no falling member to convert
}

TEST(SiteTransform, PreimageInvertsImage) {
  for (int s = 0; s <= 0xFF; ++s) {
    const VSet raw = static_cast<VSet>(s & static_cast<int>(kCleanSet));
    for (const bool str : {true, false}) {
      const VSet image = DelayAlgebra::site_transform(raw, str);
      const VSet pre = DelayAlgebra::site_transform_pre(image, str);
      // Preimage of the image must contain every clean raw value.
      EXPECT_EQ(static_cast<VSet>(pre & raw), raw);
      // And map back into the image.
      EXPECT_EQ(static_cast<VSet>(
                    DelayAlgebra::site_transform(pre, str) & ~image),
                kEmptySet);
    }
  }
}

}  // namespace
}  // namespace gdf::alg
