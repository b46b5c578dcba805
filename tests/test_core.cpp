#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "algebra/frame_sim.hpp"
#include "base/rng.hpp"
#include "circuits/catalog.hpp"
#include "circuits/embedded.hpp"
#include "core/fogbuster.hpp"
#include "core/report.hpp"
#include "core/verify.hpp"
#include "netlist/fanout.hpp"
#include "sim/seq_sim.hpp"
#include "tdsim/tdsim.hpp"

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
  const FogbusterResult result = Fogbuster(nl).run();
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
      return Fogbuster(circuits::make_s27()).run();
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
  const FogbusterResult full =
      Fogbuster(circuits::make_s27(), no_drop).run();
  EXPECT_EQ(full.stages.targeted, static_cast<long>(full.faults.size()));
  EXPECT_GT(full.stages.targeted, r.stages.targeted);
  // Dropping never changes which faults are testable, only who finds them.
  EXPECT_EQ(full.tested(), r.tested());
}

TEST_F(FogbusterS27, Deterministic) {
  const FogbusterResult again = Fogbuster(circuits::make_s27()).run();
  EXPECT_EQ(again.tested(), result().tested());
  EXPECT_EQ(again.untestable(), result().untestable());
  EXPECT_EQ(again.aborted(), result().aborted());
  EXPECT_EQ(again.pattern_count, result().pattern_count);
}

TEST(FogbusterVerifyRejects, CorruptedSequenceFails) {
  const FogbusterResult r = Fogbuster(circuits::make_s27()).run();
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
  const FogbusterResult robust = Fogbuster(nl).run();
  AtpgOptions opts;
  opts.mode = alg::Mode::NonRobust;
  const FogbusterResult relaxed = Fogbuster(nl, opts).run();
  EXPECT_GE(relaxed.tested(), robust.tested());
  EXPECT_LE(relaxed.untestable(), robust.untestable());
}

TEST(FogbusterOptions, StemOnlyFaultListIsSmaller) {
  AtpgOptions opts;
  opts.fault_sites.include_branches = false;
  const FogbusterResult r = Fogbuster(circuits::make_s27(), opts).run();
  EXPECT_EQ(r.faults.size(), 34u);
}

// The local oracle: a plain two-frame fault simulation judges the
// search. A binary stimulus (V1, S0, V2) with S1 = next-state(S0, V1) is
// a real execution of the two local frames; when TDsim sees a fault under
// it at a PO or at any PPO, a robust local test exists and TDgen cannot
// have proved the fault Untestable. Circuits with at most 12 stimulus
// bits enumerate every stimulus, the others draw a fixed-seed sample.
// Returns, per canonical fault, whether some stimulus detects it.
std::vector<bool> local_oracle(const CircuitContext& ctx) {
  constexpr std::uint64_t kSamples = 4000;
  const std::size_t n_pi = ctx.netlist().inputs().size();
  const std::size_t n_ff = ctx.netlist().dffs().size();
  const std::size_t n_bits = 2 * n_pi + n_ff;
  const bool exhaustive = n_bits <= 12;
  const std::uint64_t count = exhaustive ? 1ULL << n_bits : kSamples;
  const std::vector<tdgen::DelayFault>& faults = ctx.faults();
  const sim::SeqSimulator seq(ctx.flat());
  const tdsim::Tdsim tdsim(ctx.model(), ctx.algebra(alg::Mode::Robust));

  std::vector<bool> detected(faults.size(), false);
  Rng rng(1995);
  std::vector<int> bits(n_bits);
  std::vector<Lv> v1(n_pi), s0(n_ff), lines;
  tdsim::TdsimRequest request;
  request.observable_ppo.assign(n_ff, true);
  for (std::uint64_t s = 0; s < count; ++s) {
    for (std::size_t i = 0; i < n_bits; ++i) {
      bits[i] = exhaustive ? static_cast<int>((s >> i) & 1u)
                           : (rng.next_bool() ? 1 : 0);
    }
    // Bits [0, n_pi) are V1, [n_pi, 2 n_pi) are V2, the rest are S0.
    for (std::size_t p = 0; p < n_pi; ++p) {
      v1[p] = bits[p] != 0 ? Lv::One : Lv::Zero;
    }
    for (std::size_t k = 0; k < n_ff; ++k) {
      s0[k] = bits[2 * n_pi + k] != 0 ? Lv::One : Lv::Zero;
    }
    seq.eval_frame(v1, s0, lines);
    const sim::StateVec s1 = seq.next_state(lines);
    request.stimulus.pi_sets.clear();
    for (std::size_t p = 0; p < n_pi; ++p) {
      request.stimulus.pi_sets.push_back(
          alg::vset_primary_from_frames(bits[p], bits[n_pi + p]));
    }
    request.stimulus.ppi_sets.clear();
    for (std::size_t k = 0; k < n_ff; ++k) {
      request.stimulus.ppi_sets.push_back(alg::vset_primary_from_frames(
          bits[2 * n_pi + k], s1[k] == Lv::One ? 1 : 0));
    }
    const std::vector<bool> hits = tdsim.detect(request, faults);
    for (std::size_t f = 0; f < faults.size(); ++f) {
      detected[f] = detected[f] || hits[f];
    }
  }
  return detected;
}

// A Tested verdict carries an end-to-end verified sequence, and an
// Untestable one claims that TDgen proved no local test exists. So no
// search option may call a fault Untestable that another option tests,
// or that the local oracle detects. With dropping off every fault gets
// its own search, and the configurations run one after another on one
// shared context per circuit. The vacuity guards check that the budget
// really cut searches short, that both verdicts occur, and that the
// oracle's stimuli detect some Tested fault, so each comparison had
// something to contradict.
void expect_verdicts_agree(std::initializer_list<const char*> names) {
  std::vector<AtpgOptions> configs(3);
  configs[1].learn = LearnMode::Off;
  configs[2].fault_budget = 2000;
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
    const std::size_t n_faults = ctx->faults().size();
    int contradictions = 0;
    std::vector<bool> tested(n_faults, false);
    std::vector<bool> untestable(n_faults, false);
    for (std::size_t f = 0; f < n_faults; ++f) {
      for (const FogbusterResult& r : results) {
        tested[f] = tested[f] || r.status[f] == FaultStatus::Tested;
        untestable[f] =
            untestable[f] || r.status[f] == FaultStatus::Untestable;
      }
      contradictions += tested[f] && untestable[f] ? 1 : 0;
      any_tested = any_tested || tested[f];
      any_untestable = any_untestable || untestable[f];
    }
    EXPECT_EQ(contradictions, 0)
        << name << ": faults Tested in one configuration and Untestable "
        << "in another";

    const std::vector<bool> detected = local_oracle(*ctx);
    bool oracle_saw_tested = false;
    for (std::size_t f = 0; f < n_faults; ++f) {
      oracle_saw_tested = oracle_saw_tested || (tested[f] && detected[f]);
    }
    EXPECT_TRUE(oracle_saw_tested) << name;
    for (std::size_t c = 0; c < results.size(); ++c) {
      int refuted = 0;
      std::string examples;
      for (std::size_t f = 0; f < n_faults; ++f) {
        if (results[c].status[f] != FaultStatus::Untestable ||
            !detected[f]) {
          continue;
        }
        if (++refuted <= 5) {
          examples +=
              " " + tdgen::fault_name(ctx->netlist(), ctx->faults()[f]) + ";";
        }
      }
      EXPECT_EQ(refuted, 0)
          << name << ", configuration " << c << ": Untestable faults a "
          << "two-frame stimulus detects, e.g." << examples;
    }
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

// Every sequential abort is attributed to exactly one cause.
TEST(FogbusterStages, SequentialAbortCausesSumUp) {
  for (const char* name : {"s298", "s344"}) {
    const FogbusterResult r = Fogbuster(circuits::load_circuit(name)).run();
    const StageStats& s = r.stages;
    EXPECT_GT(s.aborted_sequential, 0) << name;
    EXPECT_EQ(s.aborted_propagation + s.aborted_synchronization +
                  s.aborted_exhausted,
              s.aborted_sequential)
        << name;
  }
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
        "synchronizations", "verify", "dropped", "sequential aborts"}) {
    EXPECT_NE(text.find(key), std::string::npos) << key;
  }
}

}  // namespace
}  // namespace gdf::core
