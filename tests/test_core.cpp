#include <gtest/gtest.h>

#include "circuits/catalog.hpp"
#include "circuits/embedded.hpp"
#include "core/delay_atpg.hpp"
#include "netlist/fanout.hpp"

namespace gdf::core {
namespace {

using sim::Lv;

TEST(TestSequenceTest, FrameAssemblyAndClocks) {
  TestSequence seq;
  seq.init_frames = {{Lv::One}, {Lv::Zero}};
  seq.v1 = {Lv::X};
  seq.v2 = {Lv::One};
  seq.prop_frames = {{Lv::Zero}};
  EXPECT_EQ(seq.pattern_count(), 5u);
  EXPECT_EQ(seq.fast_index(), 3u);
  const auto frames = seq.all_frames();
  ASSERT_EQ(frames.size(), 5u);
  EXPECT_EQ(frames[2], seq.v1);
  EXPECT_EQ(frames[3], seq.v2);
  const auto clocks = seq.clocks();
  EXPECT_EQ(clocks[3], ClockKind::Fast);
  EXPECT_EQ(clocks[2], ClockKind::Slow);
  EXPECT_EQ(clocks[4], ClockKind::Slow);
}

TEST(FogbusterC17, FullyCombinationalCircuitAllTested) {
  const net::Netlist nl = circuits::make_c17();
  const FogbusterResult result = run_delay_atpg(nl);
  EXPECT_EQ(result.faults.size(), 34u);
  EXPECT_EQ(result.tested(), 34);
  EXPECT_EQ(result.untestable(), 0);
  EXPECT_EQ(result.aborted(), 0);
  // Every explicitly generated sequence observes at a PO (no registers).
  for (const TestSequence& t : result.tests) {
    EXPECT_TRUE(t.observed_at_po);
    EXPECT_TRUE(t.init_frames.empty());
    EXPECT_TRUE(t.prop_frames.empty());
  }
}

class FogbusterS27 : public ::testing::Test {
 protected:
  static const FogbusterResult& result() {
    static const FogbusterResult r = [] {
      return run_delay_atpg(circuits::make_s27());
    }();
    return r;
  }
};

TEST_F(FogbusterS27, StatusPartitionConsistent) {
  const FogbusterResult& r = result();
  EXPECT_EQ(r.faults.size(), 52u);
  EXPECT_EQ(r.tested() + r.untestable() + r.aborted(),
            static_cast<int>(r.faults.size()));
  EXPECT_EQ(r.count(FaultStatus::Untested), 0);
  // s27 is small and synchronizable: a healthy majority must be tested.
  EXPECT_GT(r.tested(), 25);
}

TEST_F(FogbusterS27, EverySequenceVerifiesIndependently) {
  const net::Netlist nl =
      net::expand_fanout_branches(circuits::make_s27());
  const alg::AtpgModel model(nl);
  for (const TestSequence& t : result().tests) {
    const VerifyReport report =
        verify_sequence(model, alg::robust_algebra(), t);
    EXPECT_TRUE(report.ok) << report.reason;
  }
}

TEST_F(FogbusterS27, PatternCountMatchesSequences) {
  std::size_t total = 0;
  for (const TestSequence& t : result().tests) {
    total += t.pattern_count();
  }
  EXPECT_EQ(total, result().pattern_count);
}

TEST_F(FogbusterS27, DroppingReducesTargetedWork) {
  const FogbusterResult& r = result();
  EXPECT_EQ(r.stages.targeted + r.stages.dropped,
            static_cast<long>(r.faults.size()));
  EXPECT_GT(r.stages.dropped, 0);

  AtpgOptions no_drop;
  no_drop.fault_dropping = false;
  const FogbusterResult full = run_delay_atpg(circuits::make_s27(), no_drop);
  EXPECT_EQ(full.stages.targeted, static_cast<long>(full.faults.size()));
  EXPECT_GT(full.stages.targeted, r.stages.targeted);
  // Dropping never changes which faults are testable, only who finds them.
  EXPECT_EQ(full.tested(), r.tested());
}

TEST_F(FogbusterS27, Deterministic) {
  const FogbusterResult again = run_delay_atpg(circuits::make_s27());
  EXPECT_EQ(again.tested(), result().tested());
  EXPECT_EQ(again.untestable(), result().untestable());
  EXPECT_EQ(again.aborted(), result().aborted());
  EXPECT_EQ(again.pattern_count, result().pattern_count);
}

TEST(FogbusterVerifyRejects, CorruptedSequenceFails) {
  const FogbusterResult r = run_delay_atpg(circuits::make_s27());
  ASSERT_FALSE(r.tests.empty());
  const net::Netlist nl =
      net::expand_fanout_branches(circuits::make_s27());
  const alg::AtpgModel model(nl);

  // Find a sequence that relies on propagation and amputate it.
  bool exercised = false;
  for (const TestSequence& t : r.tests) {
    if (t.observed_at_po || t.prop_frames.empty()) {
      continue;
    }
    TestSequence broken = t;
    broken.prop_frames.clear();
    const VerifyReport report =
        verify_sequence(model, alg::robust_algebra(), broken);
    EXPECT_FALSE(report.ok);
    exercised = true;
    break;
  }
  // Also corrupt a launch vector of some sequence.
  TestSequence mangled = r.tests.front();
  for (Lv& v : mangled.v2) {
    v = v == Lv::One ? Lv::Zero : Lv::One;
  }
  const VerifyReport report =
      verify_sequence(model, alg::robust_algebra(), mangled);
  EXPECT_FALSE(report.ok);
  (void)exercised;
}

TEST(FogbusterSingleFault, KnownPpoFaultNeedsPropagation) {
  // G13 feeds only DFF G7, so its faults must use the propagation phase.
  const net::Netlist nl = circuits::make_s27();
  Fogbuster flow(nl);
  const net::GateId g13 = flow.working_netlist().find("G13");
  ASSERT_NE(g13, net::kNoGate);
  TestSequence seq;
  StageStats stages;
  const FaultStatus status =
      flow.generate_for_fault({g13, true}, &seq, &stages);
  ASSERT_EQ(status, FaultStatus::Tested);
  EXPECT_FALSE(seq.observed_at_po);
  EXPECT_FALSE(seq.prop_frames.empty());
  EXPECT_GT(stages.prop_attempts, 0);
}

TEST(FogbusterNonRobust, RelaxedModeTestsAtLeastAsManyFaults) {
  const net::Netlist nl = circuits::make_s27();
  const FogbusterResult robust = run_delay_atpg(nl);
  AtpgOptions opts;
  opts.mode = alg::Mode::NonRobust;
  const FogbusterResult relaxed = run_delay_atpg(nl, opts);
  EXPECT_GE(relaxed.tested(), robust.tested());
  EXPECT_LE(relaxed.untestable(), robust.untestable());
}

TEST(FogbusterOptions, StemOnlyFaultListIsSmaller) {
  AtpgOptions opts;
  opts.fault_sites.include_branches = false;
  const FogbusterResult r = run_delay_atpg(circuits::make_s27(), opts);
  EXPECT_EQ(r.faults.size(), 34u);
}

// A Tested verdict carries an end-to-end verified sequence, so no search
// option may call that fault Untestable. With dropping off every fault
// gets its own search, and the configurations run one after another on
// one shared context per circuit. The vacuity guards check that the
// budget really cut searches short and that both verdicts occur, so the
// comparison had something to contradict.
void expect_verdicts_agree(std::initializer_list<const char*> names) {
  std::vector<AtpgOptions> configs(4);
  configs[1].learn = LearnMode::Off;
  configs[2].fault_budget = 2000;
  configs[3].learned_limit = 16;
  for (AtpgOptions& options : configs) {
    options.fault_dropping = false;
  }

  long budget_aborts = 0;
  bool any_tested = false;
  bool any_untestable = false;
  for (const char* name : names) {
    const auto ctx =
        CircuitContext::build(circuits::load_circuit(name), configs[0]);
    std::vector<FogbusterResult> results;
    for (const AtpgOptions& options : configs) {
      results.push_back(Fogbuster(ctx, options).run());
    }
    budget_aborts += results[2].stages.aborted_budget;
    int contradictions = 0;
    for (std::size_t f = 0; f < ctx->faults().size(); ++f) {
      bool tested = false;
      bool untestable = false;
      for (const FogbusterResult& r : results) {
        tested = tested || r.status[f] == FaultStatus::Tested;
        untestable = untestable || r.status[f] == FaultStatus::Untestable;
      }
      contradictions += tested && untestable ? 1 : 0;
      any_tested = any_tested || tested;
      any_untestable = any_untestable || untestable;
    }
    EXPECT_EQ(contradictions, 0)
        << name << ": faults Tested in one configuration and Untestable "
        << "in another";
  }
  EXPECT_GT(budget_aborts, 0);
  EXPECT_TRUE(any_tested);
  EXPECT_TRUE(any_untestable);
}

TEST(FogbusterOptions, VerdictsAgreeAcrossSearchOptions) {
  expect_verdicts_agree({"c17", "s27", "s208", "s298", "s386"});
}

// The larger catalog circuits take most of the time, so tests/CMakeLists
// runs this suite as its own ctest (test_core_verdicts_large) instead of
// inside test_core's timeout.
TEST(FogbusterOptionsLarge, VerdictsAgreeAcrossSearchOptions) {
  expect_verdicts_agree({"s344", "s420", "s641"});
}

TEST(ReportTest, Table3Formatting) {
  Table3Row row{"s27", 39, 11, 0, 163, 0.4};
  const std::string header = table3_header();
  const std::string line = format_table3_row(row);
  EXPECT_NE(header.find("circuit"), std::string::npos);
  EXPECT_NE(header.find("untstbl"), std::string::npos);
  EXPECT_NE(line.find("s27"), std::string::npos);
  EXPECT_NE(line.find("39"), std::string::npos);
  EXPECT_NE(line.find("<1"), std::string::npos);
  row.seconds = 12.4;
  EXPECT_NE(format_table3_row(row).find("12"), std::string::npos);
}

TEST(ReportTest, StageStatsMentionEveryStage) {
  StageStats s;
  s.targeted = 7;
  const std::string text = format_stage_stats(s);
  for (const char* key :
       {"targeted", "local", "propagation", "re-entries",
        "synchronizations", "verify", "dropped"}) {
    EXPECT_NE(text.find(key), std::string::npos) << key;
  }
}

}  // namespace
}  // namespace gdf::core
