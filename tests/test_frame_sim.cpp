#include <gtest/gtest.h>

#include "algebra/frame_sim.hpp"
#include "base/rng.hpp"
#include "circuits/catalog.hpp"
#include "circuits/embedded.hpp"
#include "netlist/fanout.hpp"
#include "tdgen/fault.hpp"

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

// TDsim replays only a fault site's cone over one fault-free pass; that
// must equal a fresh faulty pass node for node. Seeded random stimuli,
// binary and with a quarter of the sources widened to random sets, on
// every fault of the fanout-expanded model whose site the stimulus
// activates (a clean transition of the fault's polarity).
TEST(CatalogFrameSim, RunInjectedMatchesFreshFaultyRun) {
  for (const char* name : {"c17", "s27", "s298", "s386"}) {
    const net::Netlist nl =
        net::expand_fanout_branches(circuits::load_circuit(name));
    const AtpgModel model(nl);
    const TwoFrameSim sim(model, robust_algebra());
    const std::vector<tdgen::DelayFault> faults = tdgen::enumerate_faults(nl);
    Rng rng(29);
    for (const bool wide : {false, true}) {
      long activated = 0;
      std::vector<VSet> baseline, injected, fresh;
      for (int pattern = 0; pattern < 8; ++pattern) {
        TwoFrameStimulus s;
        s.pi_sets.resize(model.pis().size());
        s.ppi_sets.resize(model.ppis().size());
        for (auto* sets : {&s.pi_sets, &s.ppi_sets}) {
          for (VSet& v : *sets) {
            v = vset_primary_from_frames(static_cast<int>(rng.next_below(2)),
                                         static_cast<int>(rng.next_below(2)));
            if (wide && rng.next_below(4) == 0) {
              v = static_cast<VSet>(rng.next_in(1, 255) & kPrimaryDomain);
              v = v == kEmptySet ? kPrimaryDomain : v;
            }
          }
        }
        sim.run(s, nullptr, baseline);
        for (const tdgen::DelayFault& f : faults) {
          const FaultSpec spec{model.head_of(f.line), f.slow_to_rise};
          if (baseline[spec.site] !=
              vset_of(f.slow_to_rise ? V8::Rise : V8::Fall)) {
            continue;
          }
          ++activated;
          sim.run_injected(baseline, spec, injected);
          sim.run(s, &spec, fresh);
          ASSERT_EQ(injected, fresh)
              << name << (wide ? " wide" : " binary") << " pattern "
              << pattern << " fault " << tdgen::fault_name(nl, f);
        }
      }
      EXPECT_GT(activated, 0) << name << (wide ? " wide" : " binary");
    }
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
