#include <gtest/gtest.h>

#include "algebra/model.hpp"
#include "circuits/embedded.hpp"
#include "netlist/builder.hpp"
#include "netlist/fanout.hpp"

namespace gdf::alg {
namespace {

TEST(ModelTest, S27Decomposition) {
  const net::Netlist nl = circuits::make_s27();
  const AtpgModel m(nl);
  // 4 Pi + 3 Ppi + 2 NOT (1 node) + 1 AND2 (1) + 2 OR2 (1) +
  // 1 NAND (2) + 4 NOR (2 each) = 4+3+2+1+2+2+8 = 22 nodes.
  EXPECT_EQ(m.node_count(), 22u);
  EXPECT_EQ(m.pis().size(), 4u);
  EXPECT_EQ(m.ppis().size(), 3u);
  // Observation points: PO G17 plus PPOs G10, G11, G13.
  EXPECT_EQ(m.observation_points().size(), 4u);
  EXPECT_TRUE(m.node(m.head_of(nl.find("G17"))).is_po);
  EXPECT_EQ(m.ppo_node(0), m.head_of(nl.find("G10")));
  EXPECT_EQ(m.ppo_node(1), m.head_of(nl.find("G11")));
  EXPECT_EQ(m.ppo_node(2), m.head_of(nl.find("G13")));
}

TEST(ModelTest, IdsAreTopological) {
  const net::Netlist nl = circuits::make_s27();
  const AtpgModel m(nl);
  for (NodeId id = 0; id < m.node_count(); ++id) {
    const Node& n = m.node(id);
    if (n.in0 != kNoNode) {
      EXPECT_LT(n.in0, id);
    }
    if (n.in1 != kNoNode) {
      EXPECT_LT(n.in1, id);
    }
  }
}

TEST(ModelTest, HeadsCarryOrigin) {
  const net::Netlist nl = circuits::make_s27();
  const AtpgModel m(nl);
  for (net::GateId g = 0; g < nl.size(); ++g) {
    const NodeId head = m.head_of(g);
    ASSERT_NE(head, kNoNode);
    EXPECT_EQ(m.node(head).origin, g);
  }
}

TEST(ModelTest, NandBecomesAndPlusNot) {
  net::NetlistBuilder b("nand3");
  b.input("a").input("b").input("c");
  b.output("y");
  b.gate("y", net::GateType::Nand, {"a", "b", "c"});
  const AtpgModel m(b.build());
  // 3 Pi + 2 And2 + 1 Not = 6 nodes.
  EXPECT_EQ(m.node_count(), 6u);
  const Node& head = m.node(m.node_count() - 1);
  EXPECT_EQ(head.kind, NodeKind::Not);
  EXPECT_TRUE(head.is_po);
}

TEST(ModelTest, SingleInputAndGetsFreshBufHead) {
  net::NetlistBuilder b("and1");
  b.input("a");
  b.output("y");
  b.gate("y", net::GateType::And, {"a"});
  const net::Netlist nl = b.build();
  const AtpgModel m(nl);
  EXPECT_EQ(m.node_count(), 2u);
  EXPECT_NE(m.head_of(nl.find("y")), m.head_of(nl.find("a")));
  EXPECT_EQ(m.node(m.head_of(nl.find("y"))).kind, NodeKind::Buf);
}

TEST(ModelTest, ObsDistanceDecreasesTowardOutputs) {
  const net::Netlist nl = circuits::make_c17();
  const AtpgModel m(nl);
  const NodeId po_head = m.head_of(nl.find("N22"));
  EXPECT_EQ(m.obs_distance(po_head), 0);
  const NodeId n10_head = m.head_of(nl.find("N10"));
  EXPECT_GT(m.obs_distance(n10_head), 0);
}

TEST(ModelTest, CarrierConeCoversFanout) {
  const net::Netlist nl = circuits::make_c17();
  const AtpgModel m(nl);
  const auto cone = m.carrier_cone(m.head_of(nl.find("N11")));
  // N11 reaches N16, N19, N22, N23 (heads and their internal nodes).
  const auto contains = [&cone](NodeId id) {
    return std::find(cone.begin(), cone.end(), id) != cone.end();
  };
  EXPECT_TRUE(contains(m.head_of(nl.find("N16"))));
  EXPECT_TRUE(contains(m.head_of(nl.find("N19"))));
  EXPECT_TRUE(contains(m.head_of(nl.find("N22"))));
  EXPECT_TRUE(contains(m.head_of(nl.find("N23"))));
  EXPECT_FALSE(contains(m.head_of(nl.find("N10"))));
}

TEST(ModelTest, BranchBuffersAreDistinctSites) {
  const net::Netlist ex =
      net::expand_fanout_branches(circuits::make_c17());
  const AtpgModel m(ex);
  // N11 feeds N16 and N19 through two branch buffers with distinct heads.
  const net::GateId b0 = ex.find("N11$b0");
  const net::GateId b1 = ex.find("N11$b1");
  ASSERT_NE(b0, net::kNoGate);
  ASSERT_NE(b1, net::kNoGate);
  EXPECT_NE(m.head_of(b0), m.head_of(b1));
  EXPECT_EQ(m.node(m.head_of(b0)).kind, NodeKind::Buf);
}

TEST(DominatorTest, DiamondReconvergesAtDominator) {
  // s fans out into two paths that reconverge at d before the only PO:
  // d is the immediate dominator of s (and of both path gates).
  net::NetlistBuilder b("diamond");
  b.input("a");
  b.output("y");
  b.gate("s", net::GateType::Buf, {"a"});
  b.gate("p", net::GateType::Not, {"s"});
  b.gate("q", net::GateType::Buf, {"s"});
  b.gate("d", net::GateType::And, {"p", "q"});
  b.gate("y", net::GateType::Buf, {"d"});
  const net::Netlist nl = b.build();
  const AtpgModel m(nl);
  const NodeId d = m.head_of(nl.find("d"));
  EXPECT_EQ(m.idom(m.head_of(nl.find("s"))), d);
  EXPECT_EQ(m.idom(m.head_of(nl.find("p"))), d);
  EXPECT_EQ(m.idom(m.head_of(nl.find("q"))), d);
  EXPECT_EQ(m.idom(d), m.head_of(nl.find("y")));
  // The PO itself is dominated only by the virtual sink.
  EXPECT_EQ(m.idom(m.head_of(nl.find("y"))), kNoNode);
  EXPECT_TRUE(m.obs_reachable(m.head_of(nl.find("s"))));
}

TEST(DominatorTest, DivergingPathsHaveNoProperDominator) {
  // s feeds two separate POs: no single node sits on every path.
  net::NetlistBuilder b("diverge");
  b.input("a");
  b.output("y1");
  b.output("y2");
  b.gate("s", net::GateType::Buf, {"a"});
  b.gate("y1", net::GateType::Buf, {"s"});
  b.gate("y2", net::GateType::Not, {"s"});
  const net::Netlist nl = b.build();
  const AtpgModel m(nl);
  EXPECT_EQ(m.idom(m.head_of(nl.find("s"))), kNoNode);
  EXPECT_TRUE(m.obs_reachable(m.head_of(nl.find("s"))));
}

TEST(DominatorTest, PpoOnlyPathIsObsReachable) {
  net::NetlistBuilder b("ppo_only");
  b.input("a");
  b.output("y");
  b.dff("q", "d");
  b.gate("d", net::GateType::Not, {"a"});
  b.gate("y", net::GateType::Buf, {"q"});
  const net::Netlist nl = b.build();
  const AtpgModel m(nl);
  const NodeId d_head = m.head_of(nl.find("d"));
  EXPECT_TRUE(m.obs_reachable(d_head));  // no PO path; the PPO observes it
  // The PPI side reaches the PO.
  EXPECT_TRUE(m.obs_reachable(m.head_of(nl.find("q"))));
}

/// Brute-force dominator property on real circuits: idom(n) must cut every
/// fanout path from n to an observation point, and be the nearest (lowest
/// id) node that does.
TEST(DominatorTest, MatchesBruteForceOnC17AndS27) {
  for (const bool expand : {false, true}) {
    for (const net::Netlist& base :
         {circuits::make_c17(), circuits::make_s27()}) {
      const net::Netlist nl =
          expand ? net::expand_fanout_branches(base) : base;
      const AtpgModel m(nl);
      const auto reaches_obs_avoiding = [&m](NodeId from, NodeId cut) {
        std::vector<NodeId> work{from};
        std::vector<bool> seen(m.node_count(), false);
        seen[from] = true;
        while (!work.empty()) {
          const NodeId id = work.back();
          work.pop_back();
          if (m.is_observation(id)) {
            return true;
          }
          for (const NodeId r : m.fanout(id)) {
            if (r != cut && !seen[r]) {
              seen[r] = true;
              work.push_back(r);
            }
          }
        }
        return false;
      };
      for (NodeId n = 0; n < m.node_count(); ++n) {
        if (!m.obs_reachable(n)) {
          EXPECT_EQ(m.idom(n), kNoNode);
          continue;
        }
        // All dominators lie on every path, so the immediate one is the
        // lowest-id cone node whose removal disconnects n from every
        // observation point.
        NodeId expected = kNoNode;
        if (!m.is_observation(n)) {
          for (const NodeId c : m.carrier_cone(n)) {
            if (c != n && !reaches_obs_avoiding(n, c)) {
              expected = std::min(expected, c);
            }
          }
        }
        EXPECT_EQ(m.idom(n), expected) << "node " << n;
      }
    }
  }
}

}  // namespace
}  // namespace gdf::alg
