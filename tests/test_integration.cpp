// Cross-module integration properties on the synthetic benchmark circuits:
// whatever the flow claims, an independent replay must confirm.
#include <gtest/gtest.h>

#include "circuits/catalog.hpp"
#include "core/fogbuster.hpp"
#include "core/verify.hpp"
#include "netlist/fanout.hpp"
#include "semilet/semilet.hpp"

namespace gdf::core {
namespace {

class GeneratedCircuitFlow : public ::testing::TestWithParam<std::string> {};

TEST_P(GeneratedCircuitFlow, FirstFortyFaultsResolveAndVerify) {
  const net::Netlist circuit = circuits::load_circuit(GetParam());
  Fogbuster flow(circuit);
  const alg::AtpgModel& model = flow.model();
  const auto faults = tdgen::enumerate_faults(flow.working_netlist());
  StageStats stages;
  int resolved = 0;
  for (std::size_t i = 0; i < faults.size() && i < 40; ++i) {
    TestSequence sequence;
    const FaultStatus status =
        flow.generate_for_fault(faults[i], &sequence, &stages);
    ++resolved;
    if (status != FaultStatus::Tested) {
      continue;
    }
    // Independent end-to-end replay of the claimed test.
    const VerifyReport report =
        verify_sequence(model, alg::robust_algebra(), sequence);
    EXPECT_TRUE(report.ok)
        << tdgen::fault_name(flow.working_netlist(), faults[i]) << ": "
        << report.reason;
    // The sequence shape is sane: one fast frame, clocks annotated.
    EXPECT_EQ(sequence.clocks()[sequence.fast_index()], ClockKind::Fast);
    EXPECT_EQ(sequence.pattern_count(), sequence.all_frames().size());
    // Every required S0 bit is binary.
    for (const int bit : sequence.required_s0) {
      EXPECT_GE(bit, -1);
      EXPECT_LE(bit, 1);
    }
  }
  EXPECT_EQ(resolved, std::min<std::size_t>(faults.size(), 40));
}

INSTANTIATE_TEST_SUITE_P(Circuits, GeneratedCircuitFlow,
                         ::testing::Values("s208", "s298", "s386"),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           return i.param;
                         });

TEST(GeneratedCircuitSync, SynchronizerResultsReplayOnAllCircuits) {
  // For every circuit: synchronize a couple of single-bit requirements and
  // replay the sequence from all-X; established bits must hold.
  for (const char* name : {"s208", "s298", "s386", "s420"}) {
    const net::Netlist nl = circuits::load_circuit(name);
    semilet::SemiletOptions options;
    sim::SeqSimulator simulator(nl);
    for (const std::size_t ff : {std::size_t{0}, nl.dffs().size() - 1}) {
      for (const sim::Lv v : {sim::Lv::Zero, sim::Lv::One}) {
        semilet::Budget budget(options);
        semilet::Synchronizer synchronizer(nl, budget);
        semilet::SyncResult result;
        const semilet::SeqStatus status =
            synchronizer.synchronize({{ff, v}}, &result);
        if (status != semilet::SeqStatus::Success) {
          continue;  // some bits are genuinely hard within paper budgets
        }
        sim::StateVec state = simulator.unknown_state();
        std::vector<sim::Lv> lines;
        for (const sim::InputVec& pis : result.frames) {
          simulator.eval_frame(pis, state, lines);
          state = simulator.next_state(lines);
        }
        EXPECT_EQ(state[ff], v) << name << " ff " << ff;
      }
    }
  }
}

TEST(GeneratedCircuitDropping, DroppedFaultsNeverContradictUntestable) {
  // With dropping on and off, a fault proven untestable by the exhaustive
  // search must never be claimed tested by dropping (soundness of TDsim
  // crediting) — and vice versa, dropping may rescue aborted faults only.
  for (const char* name : {"s298", "s386"}) {
    const net::Netlist circuit = circuits::load_circuit(name);
    Fogbuster flow(circuit);
    const FogbusterResult with = flow.run();
    AtpgOptions off;
    off.fault_dropping = false;
    const FogbusterResult without = Fogbuster(circuit, off).run();
    ASSERT_EQ(with.faults.size(), without.faults.size());
    for (std::size_t i = 0; i < with.faults.size(); ++i) {
      if (without.status[i] == FaultStatus::Untestable) {
        EXPECT_NE(with.status[i], FaultStatus::Tested)
            << name << " "
            << tdgen::fault_name(flow.working_netlist(), with.faults[i]);
      }
    }
  }
}

}  // namespace
}  // namespace gdf::core
