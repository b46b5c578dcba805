#include <gtest/gtest.h>

#include <cstdint>

#include "algebra/frame_sim.hpp"
#include "base/rng.hpp"
#include "circuits/embedded.hpp"

namespace gdf::alg {
namespace {

TEST(PrimaryEncoding, FromFrameBits) {
  EXPECT_EQ(vset_primary_from_frames(0, 0), vset_of(V8::Zero));
  EXPECT_EQ(vset_primary_from_frames(0, 1), vset_of(V8::Rise));
  EXPECT_EQ(vset_primary_from_frames(1, 0), vset_of(V8::Fall));
  EXPECT_EQ(vset_primary_from_frames(1, 1), vset_of(V8::One));
  EXPECT_EQ(vset_primary_from_frames(-1, 1),
            static_cast<VSet>(vset_of(V8::One) | vset_of(V8::Rise)));
  EXPECT_EQ(vset_primary_from_frames(0, -1),
            static_cast<VSet>(vset_of(V8::Zero) | vset_of(V8::Rise)));
  EXPECT_EQ(vset_primary_from_frames(-1, -1), kPrimaryDomain);
}

class C17FrameSim : public ::testing::Test {
 protected:
  C17FrameSim()
      : nl_(circuits::make_c17()),
        model_(nl_),
        sim_(model_, robust_algebra()) {}

  VSet pi(int init, int fin) const {
    return vset_primary_from_frames(init, fin);
  }

  TwoFrameStimulus robust_stimulus() const {
    // N1=0, N2=1, N3=1 steady; N6 falls; N7=0. Slow-to-rise at N11 is
    // robustly observed at both POs (hand analysis in the test body).
    TwoFrameStimulus s;
    s.pi_sets = {pi(0, 0), pi(1, 1), pi(1, 1), pi(1, 0), pi(0, 0)};
    return s;
  }

  net::Netlist nl_;
  AtpgModel model_;
  TwoFrameSim sim_;
};

TEST_F(C17FrameSim, FaultFreePassHasNoCarriers) {
  std::vector<VSet> sets;
  sim_.run(robust_stimulus(), nullptr, sets);
  for (NodeId id = 0; id < model_.node_count(); ++id) {
    EXPECT_EQ(static_cast<VSet>(sets[id] & kCarrierSet), kEmptySet);
  }
  // N11 = NAND(N3=1, N6=F) must rise.
  EXPECT_EQ(sets[model_.head_of(nl_.find("N11"))], vset_of(V8::Rise));
}

TEST_F(C17FrameSim, InjectedFaultObservedAtBothOutputs) {
  const FaultSpec fault{model_.head_of(nl_.find("N11")), true};
  std::vector<VSet> sets;
  sim_.run(robust_stimulus(), &fault, sets);
  EXPECT_EQ(sets[fault.site], vset_of(V8::RiseC));
  // N16 = NAND(N2=1, Rc) = Fc; N22 = NAND(N10=1, Fc) = Rc.
  EXPECT_EQ(sets[model_.head_of(nl_.find("N16"))], vset_of(V8::FallC));
  EXPECT_EQ(sets[model_.head_of(nl_.find("N22"))], vset_of(V8::RiseC));
  EXPECT_EQ(sets[model_.head_of(nl_.find("N23"))], vset_of(V8::RiseC));

  std::vector<NodeId> where;
  EXPECT_TRUE(sim_.guaranteed_observation(robust_stimulus(), fault, &where));
  EXPECT_EQ(where.size(), 2u);
}

TEST_F(C17FrameSim, CarriersOnlyInsideFaultCone) {
  const FaultSpec fault{model_.head_of(nl_.find("N11")), true};
  std::vector<VSet> sets;
  sim_.run(robust_stimulus(), &fault, sets);
  const auto cone = model_.carrier_cone(fault.site);
  std::vector<bool> in_cone(model_.node_count(), false);
  for (const NodeId id : cone) {
    in_cone[id] = true;
  }
  for (NodeId id = 0; id < model_.node_count(); ++id) {
    if (!in_cone[id]) {
      EXPECT_EQ(static_cast<VSet>(sets[id] & kCarrierSet), kEmptySet);
    }
  }
}

TEST_F(C17FrameSim, UnknownInputWidensButKeepsGuarantee) {
  TwoFrameStimulus s = robust_stimulus();
  s.pi_sets[4] = kPrimaryDomain;  // N7 fully unknown
  const FaultSpec fault{model_.head_of(nl_.find("N11")), true};
  std::vector<VSet> sets;
  sim_.run(s, &fault, sets);
  // N23 may lose the carrier (N19 can glitch), but N22 stays guaranteed.
  EXPECT_EQ(sets[model_.head_of(nl_.find("N22"))], vset_of(V8::RiseC));
  EXPECT_NE(static_cast<VSet>(sets[model_.head_of(nl_.find("N23"))] &
                              ~kCarrierSet),
            kEmptySet);
  EXPECT_TRUE(sim_.guaranteed_observation(s, fault, nullptr));
}

TEST_F(C17FrameSim, NonRobustStimulusFailsRobustCheck) {
  // Make the off-path N2 fall: N16 = NAND(F, Rc) robustly dies.
  TwoFrameStimulus s = robust_stimulus();
  s.pi_sets[1] = pi(1, 0);  // N2 falls
  s.pi_sets[4] = pi(1, 1);  // N7 = 1 so N19 = NAND(Rc,1) = Fc path exists
  const FaultSpec fault{model_.head_of(nl_.find("N11")), true};
  std::vector<VSet> sets;
  sim_.run(s, &fault, sets);
  // N16 loses the carrier under the robust algebra.
  EXPECT_EQ(static_cast<VSet>(sets[model_.head_of(nl_.find("N16"))] &
                              kCarrierSet),
            kEmptySet);
}

TEST_F(C17FrameSim, RerunSourcesMatchesFreshRunUnderRandomFlips) {
  // The cone-scoped resettle must stay exactly equivalent to a fresh full
  // pass across an arbitrary sequence of source perturbations — the
  // guarantee the cached verification probes in TDgen rest on.
  const FaultSpec fault{model_.head_of(nl_.find("N11")), true};
  TwoFrameStimulus s = robust_stimulus();
  std::vector<VSet> incremental;
  sim_.run(s, &fault, incremental);
  Rng rng(42);
  for (int step = 0; step < 100; ++step) {
    std::vector<std::pair<NodeId, VSet>> diffs;
    const std::size_t n_changes = 1 + rng.next_below(3);
    for (std::size_t c = 0; c < n_changes; ++c) {
      const std::size_t i = rng.next_below(s.pi_sets.size());
      s.pi_sets[i] = static_cast<VSet>(
          rng.next_in(1, 255) & kPrimaryDomain);
      if (s.pi_sets[i] == kEmptySet) {
        s.pi_sets[i] = kPrimaryDomain;
      }
      diffs.emplace_back(model_.pis()[i], s.pi_sets[i]);
    }
    sim_.rerun_sources(diffs, &fault, incremental);
    std::vector<VSet> fresh;
    sim_.run(s, &fault, fresh);
    ASSERT_EQ(incremental, fresh) << "step " << step;
  }
}

TEST_F(C17FrameSim, ForcedSweepStopReportsConeValue) {
  // A truncated lane must report exactly the value a full forced replay
  // leaves at the stop node, and never touch POs.
  std::vector<VSet> baseline;
  sim_.run(robust_stimulus(), nullptr, baseline);
  const NodeId stem = model_.head_of(nl_.find("N11"));
  for (const NodeId stop :
       {model_.head_of(nl_.find("N16")), model_.head_of(nl_.find("N19")),
        model_.head_of(nl_.find("N22"))}) {
    for (const V8 pol : {V8::RiseC, V8::FallC}) {
      std::vector<VSet> reference;
      sim_.run_forced(robust_stimulus(), stem, vset_of(pol), reference);
      const TwoFrameSim::ForcedLane lane{stem, vset_of(pol), stop};
      VSet stop_value = kEmptySet;
      const std::uint64_t mask =
          sim_.forced_sweep(baseline, {&lane, 1}, {&stop_value, 1});
      EXPECT_EQ(stop_value, reference[stop]);
      EXPECT_EQ(mask, 0u);  // truncated lanes never report a PO verdict
    }
  }
}

TEST_F(C17FrameSim, ForcedSweepMaskMatchesRunForced) {
  std::vector<VSet> baseline;
  sim_.run(robust_stimulus(), nullptr, baseline);
  std::vector<TwoFrameSim::ForcedLane> lanes;
  for (const char* name : {"N11", "N10", "N16", "N19"}) {
    lanes.push_back({model_.head_of(nl_.find(name)), vset_of(V8::RiseC),
                     kNoNode});
    lanes.push_back({model_.head_of(nl_.find(name)), vset_of(V8::FallC),
                     kNoNode});
  }
  const std::uint64_t mask = sim_.forced_po_carrier_mask(baseline, lanes);
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    std::vector<VSet> forced;
    sim_.run_forced(robust_stimulus(), lanes[i].node, lanes[i].set, forced);
    bool po_carrier = false;
    for (const NodeId obs : model_.observation_points()) {
      if (!model_.node(obs).is_po) {
        continue;
      }
      const VSet s = forced[obs];
      if (s != kEmptySet && (s & ~kCarrierSet) == 0) {
        po_carrier = true;
      }
    }
    EXPECT_EQ((mask >> i & 1u) != 0, po_carrier) << "lane " << i;
  }
}

TEST_F(C17FrameSim, StimulusSizeMismatchIsFatal) {
  TwoFrameStimulus s;
  s.pi_sets = {kPrimaryDomain};  // wrong size
  std::vector<VSet> sets;
  EXPECT_DEATH(sim_.run(s, nullptr, sets), "PI stimulus size mismatch");
}

}  // namespace
}  // namespace gdf::alg
