// Direct tests of the set-based implication engine — the invariants the
// TDgen search correctness rests on.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "base/rng.hpp"
#include "circuits/embedded.hpp"
#include "netlist/builder.hpp"
#include "netlist/fanout.hpp"
#include "tdgen/implication.hpp"

namespace gdf::tdgen {
namespace {

using alg::AtpgModel;
using alg::kCarrierSet;
using alg::kPrimaryDomain;
using alg::NodeId;
using alg::robust_algebra;
using alg::V8;
using alg::VSet;

class C17Engine : public ::testing::Test {
 protected:
  C17Engine()
      : nl_(net::expand_fanout_branches(circuits::make_c17())),
        model_(nl_),
        engine_(model_, robust_algebra()) {
    fault_.site = model_.head_of(nl_.find("N11"));
    fault_.slow_to_rise = true;
    engine_.init(fault_);
  }

  net::Netlist nl_;
  AtpgModel model_;
  ImplicationEngine engine_;
  alg::FaultSpec fault_;
};

TEST_F(C17Engine, InitRestrictsDomains) {
  EXPECT_FALSE(engine_.conflict());
  // Primary inputs stay within the primary domain.
  for (const NodeId pi : model_.pis()) {
    EXPECT_EQ(static_cast<VSet>(engine_.get(pi) & ~kPrimaryDomain), 0);
  }
  // Carriers are possible only in the fault cone.
  std::vector<bool> in_cone(model_.node_count(), false);
  for (const NodeId id : model_.carrier_cone(fault_.site)) {
    in_cone[id] = true;
  }
  for (NodeId id = 0; id < model_.node_count(); ++id) {
    if (!in_cone[id]) {
      EXPECT_EQ(static_cast<VSet>(engine_.get(id) & kCarrierSet), 0)
          << "node " << id;
    }
  }
}

TEST_F(C17Engine, ActivationImpliesBackward) {
  // Pinning the site to Rc forces N11 = NAND(N3,N6) to rise: its And2
  // body must fall, which excludes steady-one combinations of N3/N6.
  ASSERT_TRUE(engine_.assign(fault_.site, alg::vset_of(V8::RiseC)));
  const VSet n3 = engine_.get(model_.head_of(nl_.find("N3")));
  const VSet n6 = engine_.get(model_.head_of(nl_.find("N6")));
  // The conjunction N3&N6 must have initial value 1 (so N11 starts 0):
  // both initial values must include 1.
  EXPECT_NE(alg::vset_initials(n3) & 0b10u, 0u);
  EXPECT_NE(alg::vset_initials(n6) & 0b10u, 0u);
}

TEST_F(C17Engine, RollbackRestoresExactState) {
  std::vector<VSet> before(model_.node_count());
  for (NodeId id = 0; id < model_.node_count(); ++id) {
    before[id] = engine_.get(id);
  }
  engine_.push_level();
  ASSERT_TRUE(engine_.assign(fault_.site, alg::vset_of(V8::RiseC)));
  ASSERT_TRUE(engine_.assign(model_.pis()[0], alg::vset_of(V8::Zero)));
  engine_.pop_level();
  EXPECT_FALSE(engine_.conflict());
  for (NodeId id = 0; id < model_.node_count(); ++id) {
    EXPECT_EQ(engine_.get(id), before[id]) << "node " << id;
  }
}

TEST_F(C17Engine, ConflictOnContradictoryAssignments) {
  ASSERT_TRUE(engine_.assign(fault_.site, alg::vset_of(V8::RiseC)));
  // N11 must rise, so forcing its driver N3 and N6 steady-0 (NAND output
  // steady 1) contradicts.
  const NodeId n3 = model_.head_of(nl_.find("N3"));
  const NodeId n6 = model_.head_of(nl_.find("N6"));
  engine_.assign(n3, alg::vset_of(V8::Zero));
  const bool ok = engine_.assign(n6, alg::vset_of(V8::Zero));
  EXPECT_FALSE(ok);
  EXPECT_TRUE(engine_.conflict());
}

TEST_F(C17Engine, ConflictClearsOnRollback) {
  engine_.push_level();
  engine_.assign(model_.head_of(nl_.find("N3")), alg::vset_of(V8::Zero));
  engine_.assign(model_.head_of(nl_.find("N6")), alg::vset_of(V8::Zero));
  engine_.assign(fault_.site, alg::vset_of(V8::RiseC));
  EXPECT_TRUE(engine_.conflict());
  engine_.pop_level();
  EXPECT_FALSE(engine_.conflict());
  EXPECT_TRUE(engine_.assign(fault_.site, alg::vset_of(V8::RiseC)));
}

TEST(RegisterConstraint, CouplesPpiFinalsToPpoInitials) {
  // q = DFF(d); d = NOT(q): the PPI's final value must equal the PPO's
  // initial value, which is the inverse of the PPI's initial value.
  net::NetlistBuilder b("inv_ff");
  b.input("a");
  b.output("y");
  b.dff("q", "d");
  b.gate("d", net::GateType::Not, {"q"});
  b.gate("y", net::GateType::And, {"a", "q"});
  const net::Netlist nl = b.build();
  const AtpgModel model(nl);
  ImplicationEngine engine(model, robust_algebra());
  engine.init({model.head_of(nl.find("y")), true});
  // Pin the PPI to initial 0: since d = NOT(q), the PPO starts at 1, so
  // the PPI's final must be 1 → the PPI set collapses to {R}.
  const NodeId ppi = model.ppis()[0];
  ASSERT_TRUE(engine.assign(
      ppi, alg::vset_with_initial_in(kPrimaryDomain, 0b01)));
  EXPECT_EQ(engine.get(ppi), alg::vset_of(V8::Rise));
}

TEST(RegisterConstraint, ToggleFlopSteadySubsetIsAbstractionLimit) {
  // Same circuit: a toggle flop can never hold its value, yet the
  // *set-level* register filter keeps {0,1} alive because each member has
  // pairwise support (0 is compatible with the PPO-init of the q=1 member
  // and vice versa). This documents why the search only trusts solutions
  // after the register-aware fixpoint simulation: pinning either single
  // steady value does conflict.
  net::NetlistBuilder b("inv_ff2");
  b.input("a");
  b.output("y");
  b.dff("q", "d");
  b.gate("d", net::GateType::Not, {"q"});
  b.gate("y", net::GateType::And, {"a", "q"});
  const net::Netlist nl = b.build();
  const AtpgModel model(nl);
  for (const V8 steady : {V8::Zero, V8::One}) {
    ImplicationEngine engine(model, robust_algebra());
    engine.init({model.head_of(nl.find("y")), true});
    EXPECT_FALSE(engine.assign(model.ppis()[0], alg::vset_of(steady)))
        << v8_name(steady);
    EXPECT_TRUE(engine.conflict());
  }
}

TEST_F(C17Engine, DecisionLevelRoundTrip) {
  std::vector<VSet> before(model_.node_count());
  for (NodeId id = 0; id < model_.node_count(); ++id) {
    before[id] = engine_.get(id);
  }
  engine_.push_level();
  EXPECT_EQ(engine_.depth(), 1u);
  ASSERT_TRUE(engine_.assign(fault_.site, alg::vset_of(V8::RiseC)));
  engine_.push_level();
  ASSERT_TRUE(engine_.assign(model_.pis()[0], alg::vset_of(V8::Zero)));
  std::vector<VSet> at_level1(model_.node_count());
  for (NodeId id = 0; id < model_.node_count(); ++id) {
    at_level1[id] = engine_.get(id);
  }
  // backtrack_level undoes the level's deltas but keeps it open.
  engine_.backtrack_level();
  EXPECT_EQ(engine_.depth(), 2u);
  ASSERT_TRUE(engine_.assign(model_.pis()[0], alg::vset_of(V8::Zero)));
  for (NodeId id = 0; id < model_.node_count(); ++id) {
    EXPECT_EQ(engine_.get(id), at_level1[id]) << "node " << id;
  }
  engine_.pop_level();
  engine_.pop_level();
  EXPECT_EQ(engine_.depth(), 0u);
  for (NodeId id = 0; id < model_.node_count(); ++id) {
    EXPECT_EQ(engine_.get(id), before[id]) << "node " << id;
  }
}

TEST_F(C17Engine, CountersTrackTrail) {
  const long pushes0 = engine_.counters().trail_pushes;
  engine_.push_level();
  ASSERT_TRUE(engine_.assign(fault_.site, alg::vset_of(V8::RiseC)));
  const long delta = engine_.counters().trail_pushes - pushes0;
  EXPECT_GT(delta, 0);
  const long pops0 = engine_.counters().trail_pops;
  engine_.pop_level();
  EXPECT_EQ(engine_.counters().trail_pops - pops0, delta);
  EXPECT_GE(engine_.counters().assigns, 1);
}

/// The watched-fanin incremental schedule and the exhaustive
/// GDF_FULL_FIXPOINT reference must agree on every set after every
/// operation of a randomized decision/backtrack script — on hand-built
/// reconvergent cones and on c17.
TEST(WatchedFanin, MatchesFullFixpointUnderRandomScript) {
  std::vector<net::Netlist> circuits;
  circuits.push_back(net::expand_fanout_branches(circuits::make_c17()));
  {
    // Reconvergent diamond with a register loop — exercises sibling
    // backward prunes and the register-pair rule.
    net::NetlistBuilder b("diamond_ff");
    b.input("a");
    b.input("c");
    b.output("y");
    b.dff("q", "d");
    b.gate("s", net::GateType::Nand, {"a", "q"});
    b.gate("p", net::GateType::Not, {"s"});
    b.gate("r", net::GateType::Xor, {"s", "c"});
    b.gate("d", net::GateType::Or, {"p", "r"});
    b.gate("y", net::GateType::And, {"d", "q"});
    const net::Netlist nl = b.build();
    circuits.push_back(net::expand_fanout_branches(nl));
  }
  for (const net::Netlist& nl : circuits) {
    const AtpgModel model(nl);
    for (NodeId site = 0; site < model.node_count(); site += 3) {
      ImplicationEngine watched(model, robust_algebra(), false);
      ImplicationEngine full(model, robust_algebra(), true);
      const alg::FaultSpec spec{site, (site & 1u) == 0};
      watched.init(spec);
      full.init(spec);
      Rng rng(1995 + site);
      const auto expect_equal = [&](const char* what) {
        ASSERT_EQ(watched.conflict(), full.conflict()) << what;
        if (!watched.conflict()) {
          for (NodeId id = 0; id < model.node_count(); ++id) {
            ASSERT_EQ(watched.get(id), full.get(id))
                << what << " node " << id;
          }
        }
      };
      expect_equal("init");
      for (int step = 0; step < 40; ++step) {
        const NodeId n =
            static_cast<NodeId>(rng.next_in(0, model.node_count() - 1));
        const VSet allowed = static_cast<VSet>(rng.next_in(1, 255));
        if (rng.next_in(0, 4) == 0 && watched.depth() > 0) {
          watched.pop_level();
          full.pop_level();
        } else {
          watched.push_level();
          full.push_level();
          const bool ok_w = watched.assign(n, allowed);
          const bool ok_f = full.assign(n, allowed);
          ASSERT_EQ(ok_w, ok_f) << "assign step " << step;
          if (!ok_w) {
            watched.backtrack_level();
            full.backtrack_level();
            watched.pop_level();
            full.pop_level();
          }
        }
        expect_equal("step");
      }
    }
  }
}

TEST_F(C17Engine, InitFromDonorMatchesFreshInit) {
  const auto expect_same = [&](const ImplicationEngine& a,
                               const ImplicationEngine& b, const char* what) {
    ASSERT_EQ(a.conflict(), b.conflict()) << what;
    for (NodeId id = 0; id < model_.node_count(); ++id) {
      EXPECT_EQ(a.get(id), b.get(id)) << what << " node " << id;
    }
  };
  const NodeId site = fault_.site;
  const NodeId n3 = model_.head_of(nl_.find("N3"));

  // The snapshot init() takes: a sibling seeded from the (now mid-search)
  // donor equals a fresh init.
  engine_.push_level();
  ASSERT_TRUE(engine_.assign(site, alg::vset_of(V8::RiseC)));
  ImplicationEngine fresh(model_, robust_algebra());
  fresh.init(fault_);
  {
    ImplicationEngine seeded(model_, robust_algebra());
    ASSERT_TRUE(seeded.init_from(engine_, fault_));
    expect_same(seeded, fresh, "init snapshot");
  }

  // A root snapshot retaken after root assigns: the seeded engine equals
  // a fresh init plus the same assigns, node by node, and is at its root.
  engine_.pop_level();
  ASSERT_TRUE(engine_.assign(site, alg::vset_of(V8::RiseC)));
  ASSERT_TRUE(engine_.assign(n3, alg::vset_of(V8::One)));
  engine_.save_root();
  engine_.push_level();
  ASSERT_TRUE(engine_.assign(model_.pis()[0], alg::vset_of(V8::Zero)));
  ASSERT_TRUE(fresh.assign(site, alg::vset_of(V8::RiseC)));
  ASSERT_TRUE(fresh.assign(n3, alg::vset_of(V8::One)));
  ImplicationEngine seeded(model_, robust_algebra());
  ASSERT_TRUE(seeded.init_from(engine_, fault_));
  expect_same(seeded, fresh, "root snapshot");
  EXPECT_EQ(seeded.depth(), 0u);

  // The seeded engine serves as a donor in turn: at once (its root is
  // the donor's), and after root assigns of its own and save_root().
  {
    ImplicationEngine second(model_, robust_algebra());
    ASSERT_TRUE(second.init_from(seeded, fault_));
    expect_same(second, fresh, "seeded engine as donor");
  }
  ASSERT_TRUE(seeded.assign(model_.pis()[1], alg::vset_of(V8::Rise)));
  seeded.save_root();
  ASSERT_TRUE(fresh.assign(model_.pis()[1], alg::vset_of(V8::Rise)));
  {
    ImplicationEngine second(model_, robust_algebra());
    ASSERT_TRUE(second.init_from(seeded, fault_));
    expect_same(second, fresh, "chained root snapshot");
  }

  // A root whose assigns conflict hands the conflict flag on: N11 =
  // NAND(N3, N6) must rise, which a steady-0 N3 rules out.
  ImplicationEngine conflicted(model_, robust_algebra());
  conflicted.init(fault_);
  ASSERT_TRUE(conflicted.assign(site, alg::vset_of(V8::RiseC)));
  ASSERT_FALSE(conflicted.assign(n3, alg::vset_of(V8::Zero)));
  conflicted.save_root();
  {
    ImplicationEngine heir(model_, robust_algebra());
    ASSERT_TRUE(heir.init_from(conflicted, fault_));
    EXPECT_TRUE(heir.conflict());
    EXPECT_FALSE(heir.assign(model_.pis()[0], alg::vset_of(V8::Zero)));
  }

  // A donor over a different fault, or one never initialized, refuses
  // and leaves the engine untouched.
  const alg::FaultSpec other{fault_.site, !fault_.slow_to_rise};
  EXPECT_FALSE(seeded.init_from(engine_, other));
  const ImplicationEngine blank(model_, robust_algebra());
  EXPECT_FALSE(seeded.init_from(blank, fault_));
  expect_same(seeded, fresh, "after refusals");
}

TEST(SiteOnBranch, BranchFaultIndependentOfStem) {
  // The stem N11 fans out to two branches; pinning the branch toward N16
  // to Rc must not force the sibling branch to a carrier.
  const net::Netlist nl =
      net::expand_fanout_branches(circuits::make_c17());
  const AtpgModel model(nl);
  const net::GateId b0 = nl.find("N11$b0");
  const net::GateId b1 = nl.find("N11$b1");
  ASSERT_NE(b0, net::kNoGate);
  ImplicationEngine engine(model, robust_algebra());
  engine.init({model.head_of(b0), true});
  ASSERT_TRUE(engine.assign(model.head_of(b0), alg::vset_of(V8::RiseC)));
  EXPECT_EQ(static_cast<VSet>(engine.get(model.head_of(b1)) & kCarrierSet),
            0);
  // But the shared stem must rise for the branch to rise.
  const VSet stem = engine.get(model.head_of(nl.find("N11")));
  EXPECT_EQ(stem, alg::vset_of(V8::Rise));
}

TEST(ConflictAnalysis, AnalyzedLevelsReplayToConflictUnderFullFixpoint) {
  // Soundness of analyze(): the decision levels it names carry a nogood —
  // replaying just those levels' assignments on a fresh engine running
  // the exhaustive reference schedule (GDF_FULL_FIXPOINT's code path)
  // must re-derive a conflict at fixpoint. Random decision scripts over
  // c17 faults provide the conflicts; each level holds one script step.
  const net::Netlist nl = net::expand_fanout_branches(circuits::make_c17());
  const AtpgModel model(nl);
  int analyzed = 0;
  for (NodeId site = 0; site < model.node_count(); site += 2) {
    const alg::FaultSpec spec{site, (site & 1u) == 0};
    Rng rng(42 + site);
    for (int trial = 0; trial < 30; ++trial) {
      ImplicationEngine engine(model, robust_algebra());
      engine.init(spec);
      if (engine.conflict()) {
        continue;
      }
      std::vector<std::pair<NodeId, VSet>> steps;  // steps[l - 1] = level l
      std::vector<std::uint8_t> levels;
      for (int step = 0; step < 10; ++step) {
        const NodeId n =
            static_cast<NodeId>(rng.next_in(0, model.node_count() - 1));
        const VSet allowed = static_cast<VSet>(rng.next_in(1, 255));
        steps.emplace_back(n, allowed);
        engine.push_level();
        if (engine.assign(n, allowed)) {
          continue;
        }
        if (!engine.analyze(&levels)) {
          break;
        }
        ++analyzed;
        ASSERT_EQ(levels.size(), steps.size() + 1);
        EXPECT_EQ(levels[0], 0);
        // Replay the named levels' steps alone on the exhaustive schedule.
        ImplicationEngine replay(model, robust_algebra(), true);
        replay.init(spec);
        ASSERT_FALSE(replay.conflict());
        replay.push_level();
        for (std::size_t l = 1; l < levels.size(); ++l) {
          if (levels[l] != 0 &&
              !replay.assign(steps[l - 1].first, steps[l - 1].second)) {
            break;
          }
        }
        EXPECT_TRUE(replay.conflict())
            << "levels named from site " << site << " trial " << trial
            << " do not re-derive their conflict";
        break;
      }
    }
  }
  // The scripts must actually exercise the analyzer.
  EXPECT_GT(analyzed, 20);
}

}  // namespace
}  // namespace gdf::tdgen
