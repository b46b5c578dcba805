#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "algebra/frame_sim.hpp"
#include "circuits/catalog.hpp"
#include "circuits/embedded.hpp"
#include "netlist/builder.hpp"
#include "netlist/fanout.hpp"
#include "tdgen/fault.hpp"
#include "tdgen/local_test.hpp"
#include "tdgen/tdgen.hpp"

namespace gdf::tdgen {
namespace {

using alg::AtpgModel;
using alg::kCarrierSet;
using alg::robust_algebra;
using alg::V8;
using alg::VSet;

TEST(FaultListTest, S27ExpandedCounts) {
  const net::Netlist nl =
      net::expand_fanout_branches(circuits::make_s27());
  // 17 stems (4 PI + 3 FF + 10 gates) + 9 branches = 26 lines, 52 faults.
  const auto faults = enumerate_faults(nl);
  EXPECT_EQ(faults.size(), 52u);
  // StR before StF per line, line order ascending.
  EXPECT_TRUE(faults[0].slow_to_rise);
  EXPECT_FALSE(faults[1].slow_to_rise);
  EXPECT_EQ(faults[0].line, faults[1].line);
}

TEST(FaultListTest, OptionsFilterSites) {
  const net::Netlist nl =
      net::expand_fanout_branches(circuits::make_s27());
  FaultListOptions no_branches;
  no_branches.include_branches = false;
  EXPECT_EQ(enumerate_faults(nl, no_branches).size(), 34u);  // 17 stems
}

TEST(FaultListTest, Names) {
  const net::Netlist nl = circuits::make_s27();
  EXPECT_EQ(fault_name(nl, {nl.find("G11"), true}), "G11 StR");
  EXPECT_EQ(fault_name(nl, {nl.find("G8"), false}), "G8 StF");
}

class C17Tdgen : public ::testing::Test {
 protected:
  C17Tdgen()
      : nl_(net::expand_fanout_branches(circuits::make_c17())),
        model_(nl_) {}

  net::Netlist nl_;
  AtpgModel model_;
};

TEST_F(C17Tdgen, FindsTestForKnownFault) {
  // Slow-to-rise at N11 — the worked example of the frame-sim tests.
  TdgenSearch search(model_, robust_algebra(), {nl_.find("N11"), true});
  LocalTest test;
  ASSERT_EQ(search.next(&test), TdgenStatus::TestFound);
  EXPECT_FALSE(test.observed.empty());
  EXPECT_TRUE(test.observed_at_po);  // c17 has no flip-flops

  // Independent verification: inject the fault and simulate.
  alg::TwoFrameSim sim(model_, robust_algebra());
  alg::TwoFrameStimulus stim{test.pi_sets, test.ppi_sets};
  const alg::FaultSpec spec{model_.head_of(nl_.find("N11")), true};
  EXPECT_TRUE(sim.guaranteed_observation(stim, spec, nullptr));
}

TEST_F(C17Tdgen, EveryFaultGetsVerifiedTestOrProof) {
  // c17 is fully robustly testable for stem and branch delay faults; every
  // search must end in a verified test, and none may abort.
  alg::TwoFrameSim sim(model_, robust_algebra());
  int found = 0;
  for (const DelayFault& f : enumerate_faults(nl_)) {
    TdgenSearch search(model_, robust_algebra(), f);
    LocalTest test;
    const TdgenStatus status = search.next(&test);
    ASSERT_NE(status, TdgenStatus::Aborted) << fault_name(nl_, f);
    if (status == TdgenStatus::TestFound) {
      ++found;
      alg::TwoFrameStimulus stim{test.pi_sets, test.ppi_sets};
      const alg::FaultSpec spec{model_.head_of(f.line), f.slow_to_rise};
      EXPECT_TRUE(sim.guaranteed_observation(stim, spec, nullptr))
          << fault_name(nl_, f);
    }
  }
  // All 34 c17 delay faults are robustly testable.
  EXPECT_EQ(found, 34);
}

TEST_F(C17Tdgen, EnumerationYieldsDistinctVerifiedTests) {
  TdgenSearch search(model_, robust_algebra(), {nl_.find("N22"), false});
  LocalTest first, second;
  ASSERT_EQ(search.next(&first), TdgenStatus::TestFound);
  const TdgenStatus status = search.next(&second);
  if (status == TdgenStatus::TestFound) {
    EXPECT_TRUE(first.pi_sets != second.pi_sets ||
                first.ppi_sets != second.ppi_sets);
  } else {
    EXPECT_EQ(status, TdgenStatus::Untestable);  // enumeration may just end
  }
}

TEST(TdgenRedundant, UntestableFaultProven) {
  // y = AND(a, NOT a) is constant 0: its output can never rise, so StR at
  // y has no activating transition and must be proven untestable.
  net::NetlistBuilder b("const0");
  b.input("a");
  b.output("y");
  b.gate("an", net::GateType::Not, {"a"});
  b.gate("y", net::GateType::And, {"a", "an"});
  const net::Netlist nl = net::expand_fanout_branches(b.build());
  const AtpgModel model(nl);
  TdgenSearch search(model, robust_algebra(), {nl.find("y"), true});
  LocalTest test;
  EXPECT_EQ(search.next(&test), TdgenStatus::Untestable);
}

TEST(TdgenRedundant, RobustlyUntestableBySideInput) {
  // y = AND(a, b) where b = AND(a, c): a falling fault effect on b's path
  // needs a steady 1 on the other AND input... with a shared driver `a`
  // the off-path cannot be steady while the on-path falls through `a`.
  // StF at line `a` observed through y is still testable via b? This case
  // documents that the engine proves *something* (found or untestable)
  // without aborting on tiny circuits.
  net::NetlistBuilder b("recon");
  b.input("a");
  b.input("c");
  b.output("y");
  b.gate("b", net::GateType::And, {"a", "c"});
  b.gate("y", net::GateType::And, {"a", "b"});
  const net::Netlist nl = net::expand_fanout_branches(b.build());
  const AtpgModel model(nl);
  for (const DelayFault& f : enumerate_faults(nl)) {
    TdgenSearch search(model, robust_algebra(), f);
    LocalTest test;
    EXPECT_NE(search.next(&test), TdgenStatus::Aborted)
        << fault_name(nl, f);
  }
}

class S27Tdgen : public ::testing::Test {
 protected:
  S27Tdgen()
      : nl_(net::expand_fanout_branches(circuits::make_s27())),
        model_(nl_) {}

  net::Netlist nl_;
  AtpgModel model_;
};

TEST_F(S27Tdgen, LocalSearchTerminatesForAllFaults) {
  alg::TwoFrameSim sim(model_, robust_algebra());
  int found = 0, untestable = 0, aborted = 0;
  for (const DelayFault& f : enumerate_faults(nl_)) {
    TdgenSearch search(model_, robust_algebra(), f);
    LocalTest test;
    switch (search.next(&test)) {
      case TdgenStatus::TestFound: {
        ++found;
        alg::TwoFrameStimulus stim{test.pi_sets, test.ppi_sets};
        const alg::FaultSpec spec{model_.head_of(f.line), f.slow_to_rise};
        EXPECT_TRUE(sim.guaranteed_observation(stim, spec, nullptr))
            << fault_name(nl_, f);
        break;
      }
      case TdgenStatus::Untestable:
        ++untestable;
        break;
      case TdgenStatus::Aborted:
        ++aborted;
        break;
    }
  }
  // The local (combinational) pass finds tests for most s27 faults.
  EXPECT_GT(found, 30);
  EXPECT_EQ(found + untestable + aborted, 52);
  EXPECT_EQ(aborted, 0);
}

TEST_F(S27Tdgen, RegisterCorrelationRespected) {
  // For every found local test, the required S1 (PPI finals) must be
  // producible by the PPO initials — the register truth-table constraint.
  for (const DelayFault& f : enumerate_faults(nl_)) {
    TdgenSearch search(model_, robust_algebra(), f);
    LocalTest test;
    if (search.next(&test) != TdgenStatus::TestFound) {
      continue;
    }
    for (std::size_t k = 0; k < test.ppi_sets.size(); ++k) {
      const unsigned fins = alg::vset_finals(test.ppi_sets[k]);
      const unsigned inits = alg::vset_initials(test.ppo_sets[k]);
      EXPECT_NE(fins & inits, 0u)
          << fault_name(nl_, f) << " ff " << k;
    }
  }
}

TEST_F(S27Tdgen, PinForcesSteadyPpo) {
  // Find a fault whose unpinned solution leaves PPO 0 non-steady, then pin
  // it and require the solution to deliver a steady clean value.
  const DelayFault f{nl_.find("G13"), true};
  TdgenSearch pinned(model_, robust_algebra(), f);
  pinned.pin_ppo(1, alg::vset_of(V8::Zero));  // G11's flip-flop
  LocalTest test;
  const TdgenStatus status = pinned.next(&test);
  if (status == TdgenStatus::TestFound) {
    EXPECT_EQ(classify_ppo(test.ppo_sets[1]), PpoKind::Known0);
  } else {
    EXPECT_NE(status, TdgenStatus::Aborted);
  }
}

TEST(LocalTestHelpers, VectorsAndState) {
  LocalTest t;
  t.pi_sets = {alg::vset_of(V8::Rise), alg::vset_of(V8::Zero),
               alg::kPrimaryDomain};
  t.ppi_sets = {alg::vset_of(V8::One),
                static_cast<VSet>(alg::vset_of(V8::Zero) |
                                  alg::vset_of(V8::Rise))};
  const auto v1 = initial_frame_pis(t);
  EXPECT_EQ(v1, (std::vector<int>{0, 0, -1}));
  const auto v2 = test_frame_pis(t);
  EXPECT_EQ(v2, (std::vector<int>{1, 0, -1}));
  const auto s0 = required_initial_state(t);
  EXPECT_EQ(s0, (std::vector<int>{1, 0}));
}

TEST(LocalTestHelpers, ClassifyPpo) {
  EXPECT_EQ(classify_ppo(alg::vset_of(V8::Zero)), PpoKind::Known0);
  EXPECT_EQ(classify_ppo(alg::vset_of(V8::One)), PpoKind::Known1);
  EXPECT_EQ(classify_ppo(alg::vset_of(V8::RiseC)), PpoKind::FaultD);
  EXPECT_EQ(classify_ppo(alg::vset_of(V8::FallC)), PpoKind::FaultDbar);
  EXPECT_EQ(classify_ppo(alg::vset_of(V8::Rise)), PpoKind::Unknown);
  EXPECT_EQ(classify_ppo(alg::vset_of(V8::ZeroH)), PpoKind::Unknown);
  EXPECT_EQ(classify_ppo(static_cast<VSet>(alg::vset_of(V8::Zero) |
                                           alg::vset_of(V8::One))),
            PpoKind::Unknown);
}

TEST(ConflictDrivenSearch, BackjumpOnlyConvertsAborts) {
  // Conflict-directed backjumping discards only subtrees an analyzed
  // conflict proves solution-free — so against the chronological search
  // (--learn off) a learn-enabled search may convert an abort into a
  // verdict but never flip one, and when both find a test it is the
  // *same* test (identical depth-first order elsewhere). The identity
  // argument needs the learn-on search to keep the static decision order,
  // so activity ordering is pinned off and CBJ alone differs. s298 holds
  // g0$b1 StF, whose test lies under a level that a backjump set smaller
  // than the analyzed one skips.
  long levels_skipped = 0;
  for (const char* name : {"s27", "s208", "s298", "s386"}) {
    const net::Netlist nl =
        net::expand_fanout_branches(circuits::load_circuit(name));
    const AtpgModel model(nl);
    SearchCounters tally;
    for (const DelayFault& f : enumerate_faults(nl)) {
      TdgenOptions off;
      off.learn = false;
      TdgenSearch chrono(model, robust_algebra(), f, off);
      LocalTest t_off;
      const TdgenStatus s_off = chrono.next(&t_off);

      TdgenOptions on;  // learn defaults to true
      on.vsids = false;
      on.tally = &tally;
      TdgenSearch cbj(model, robust_algebra(), f, on);
      LocalTest t_on;
      const TdgenStatus s_on = cbj.next(&t_on);

      switch (s_off) {
        case TdgenStatus::TestFound:
          ASSERT_EQ(s_on, TdgenStatus::TestFound) << fault_name(nl, f);
          EXPECT_EQ(t_on.pi_sets, t_off.pi_sets) << fault_name(nl, f);
          EXPECT_EQ(t_on.ppi_sets, t_off.ppi_sets) << fault_name(nl, f);
          break;
        case TdgenStatus::Untestable:
          EXPECT_EQ(s_on, TdgenStatus::Untestable) << fault_name(nl, f);
          break;
        case TdgenStatus::Aborted:
          break;  // backjumping may turn an abort into either verdict
      }
    }
    // The sweep must actually exercise the machinery it validates: every
    // circuit conflicts, and backjumps skip levels somewhere (s27 is too
    // small to skip any).
    EXPECT_GT(tally.conflicts, 0) << name;
    levels_skipped += tally.backjump_levels_skipped;
  }
  EXPECT_GT(levels_skipped, 0);
}

TEST(ConflictDrivenSearch, ProbeMemoMatchesResimulation) {
  // Enumerating several tests per fault revisits leaves whose source
  // vectors repeat, so both modes answer some verification probes from
  // the probe table. Every enumerated test must still be exactly what a
  // fresh two-frame simulation of its own stimulus yields, no fault may
  // get the same test twice (s208's flip-flops put PPI initials in the
  // table's keys), and the CBJ search (static decision order, see above)
  // must still enumerate the chronological search's tests.
  const net::Netlist nl =
      net::expand_fanout_branches(circuits::load_circuit("s208"));
  const AtpgModel model(nl);
  const alg::TwoFrameSim sim(model, robust_algebra());
  const auto expect_resimulates = [&](const DelayFault& f,
                                      const LocalTest& t, int round) {
    const alg::FaultSpec spec{model.head_of(f.line), f.slow_to_rise};
    std::vector<VSet> sets;
    sim.run({t.pi_sets, t.ppi_sets}, &spec, sets);
    std::vector<VSet> ppo_sets;
    for (std::size_t k = 0; k < model.ppis().size(); ++k) {
      ppo_sets.push_back(sets[model.ppo_node(k)]);
    }
    std::vector<alg::NodeId> observed;
    for (const alg::NodeId obs : model.observation_points()) {
      if (sets[obs] != alg::kEmptySet && (sets[obs] & ~kCarrierSet) == 0) {
        observed.push_back(obs);
      }
    }
    EXPECT_EQ(t.ppo_sets, ppo_sets) << fault_name(nl, f) << " round " << round;
    EXPECT_EQ(t.observed, observed) << fault_name(nl, f) << " round " << round;
  };
  const auto expect_new = [&](std::vector<LocalTest>& seen,
                              const DelayFault& f, const LocalTest& t,
                              int round) {
    for (const LocalTest& earlier : seen) {
      EXPECT_FALSE(earlier.pi_sets == t.pi_sets &&
                   earlier.ppi_sets == t.ppi_sets)
          << fault_name(nl, f) << " round " << round << " repeats a test";
    }
    seen.push_back(t);
  };
  SearchCounters tally_off;
  SearchCounters tally_on;
  for (const DelayFault& f : enumerate_faults(nl)) {
    TdgenOptions off;
    off.learn = false;
    off.tally = &tally_off;
    TdgenSearch chrono(model, robust_algebra(), f, off);
    TdgenOptions on;
    on.vsids = false;  // keep the chronological decision order (see above)
    on.tally = &tally_on;
    TdgenSearch cbj(model, robust_algebra(), f, on);
    std::vector<LocalTest> seen_off, seen_on;
    for (int round = 0; round < 4; ++round) {
      LocalTest t_off, t_on;
      const TdgenStatus s_off = chrono.next(&t_off);
      const TdgenStatus s_on = cbj.next(&t_on);
      if (s_off == TdgenStatus::TestFound) {
        expect_resimulates(f, t_off, round);
        expect_new(seen_off, f, t_off, round);
      }
      if (s_on == TdgenStatus::TestFound) {
        expect_resimulates(f, t_on, round);
        expect_new(seen_on, f, t_on, round);
      }
      if (s_off == TdgenStatus::Aborted) {
        break;  // beyond an abort the searches may diverge
      }
      ASSERT_EQ(s_on, s_off) << fault_name(nl, f) << " round " << round;
      if (s_off != TdgenStatus::TestFound) {
        break;
      }
      EXPECT_EQ(t_on.pi_sets, t_off.pi_sets)
          << fault_name(nl, f) << " round " << round;
      EXPECT_EQ(t_on.ppi_sets, t_off.ppi_sets)
          << fault_name(nl, f) << " round " << round;
    }
  }
  // Both searches must actually have answered probes from the memo.
  EXPECT_GT(tally_off.probe_memo_hits, 0);
  EXPECT_GT(tally_on.probe_memo_hits, 0);
}

TEST(ConflictDrivenSearch, LocalVerdictsAgreeAtLargeLimit) {
  // Flow verdicts can hide a local disagreement behind Aborted, so this
  // compares the searches themselves: at a large backtrack limit, the
  // chronological search and the default (learning, activity-ordered)
  // search must never split Found against Untestable on a fault's first
  // verdict.
  int found = 0;
  int untestable = 0;
  bool saw_pinned_fault = false;
  for (const char* name : {"c17", "s27", "s208", "s298", "s386"}) {
    const net::Netlist nl =
        net::expand_fanout_branches(circuits::load_circuit(name));
    const AtpgModel model(nl);
    for (const DelayFault& f : enumerate_faults(nl)) {
      TdgenOptions off;
      off.learn = false;
      off.backtrack_limit = 10000;
      TdgenSearch chrono(model, robust_algebra(), f, off);
      LocalTest t_off;
      const TdgenStatus s_off = chrono.next(&t_off);

      TdgenOptions on;
      on.backtrack_limit = 10000;
      TdgenSearch learning(model, robust_algebra(), f, on);
      LocalTest t_on;
      const TdgenStatus s_on = learning.next(&t_on);

      const std::string fault = std::string(name) + " " + fault_name(nl, f);
      if (s_off != TdgenStatus::Aborted && s_on != TdgenStatus::Aborted) {
        EXPECT_EQ(s_on, s_off) << fault;
      }
      if (fault == "s298 g0$b1 StF") {
        // Its test lies under a level that a backjump set smaller than
        // the analyzed one skips.
        saw_pinned_fault = true;
        EXPECT_EQ(s_off, TdgenStatus::TestFound);
        EXPECT_EQ(s_on, TdgenStatus::TestFound);
      }
      found += s_on == TdgenStatus::TestFound ? 1 : 0;
      untestable += s_on == TdgenStatus::Untestable ? 1 : 0;
    }
  }
  // Both verdicts must occur, or there was nothing to disagree on.
  EXPECT_TRUE(saw_pinned_fault);
  EXPECT_GT(found, 0);
  EXPECT_GT(untestable, 0);
}

using PinList = std::vector<std::pair<std::size_t, VSet>>;

constexpr long kRunBudget = 1'000'000'000;

/// What a caller sees of one seeded search: up to two enumerated tests,
/// the backtrack count after each next(), what it left of a shared
/// --fault-budget, and its counters.
struct SeededRun {
  std::vector<TdgenStatus> status;
  std::vector<LocalTest> tests;
  std::vector<int> backtracks;
  long budget_left = 0;
  SearchCounters tally;
};

SeededRun run_seeded(const AtpgModel& model, const DelayFault& f,
                     const TdgenSearch& donor, const PinList& pins) {
  SeededRun run;
  WorkBudget budget(kRunBudget);
  {
    TdgenOptions options;
    options.init_donor = &donor;
    options.work_budget = &budget;
    options.tally = &run.tally;
    TdgenSearch search(model, robust_algebra(), f, options);
    for (const auto& [k, allowed] : pins) {
      search.pin_ppo(k, allowed);
    }
    for (int round = 0; round < 2; ++round) {
      LocalTest t;
      run.status.push_back(search.next(&t));
      run.backtracks.push_back(search.backtracks());
      if (run.status.back() != TdgenStatus::TestFound) {
        break;
      }
      run.tests.push_back(std::move(t));
    }
  }
  run.budget_left = budget.remaining();
  return run;
}

TEST(SeededSearch, PrimedDonorMatchesUnsharedPins) {
  // The flow's re-entry chain, local search → primed donor → re-entry:
  // the donor holds a PPO-observed local test's fault-effect pins (and
  // its Known pins), the re-entry assigns only its requirement pins. It
  // must behave exactly like a search seeded straight from the local
  // search with every pin its own — same verdicts, tests, backtracks and
  // --fault-budget charge. Only the root work it inherits is not redone.
  int local_tests = 0;
  int root_conflicts = 0;
  int found = 0;
  for (const auto& [name, stride] : {std::pair{"s27", 1}, {"s298", 8}}) {
    const net::Netlist nl =
        net::expand_fanout_branches(circuits::load_circuit(name));
    const AtpgModel model(nl);
    const std::vector<DelayFault> faults = enumerate_faults(nl);
    for (std::size_t i = 0; i < faults.size(); i += stride) {
      const DelayFault& f = faults[i];
      TdgenSearch local(model, robust_algebra(), f);
      LocalTest lt;
      if (local.next(&lt) != TdgenStatus::TestFound || lt.observed_at_po) {
        continue;
      }
      ++local_tests;
      PinList effect;  // the fault-effect pins
      PinList known;   // the Known pins
      std::vector<std::size_t> unknown;
      for (std::size_t k = 0; k < lt.ppo_sets.size(); ++k) {
        switch (classify_ppo(lt.ppo_sets[k])) {
          case PpoKind::Known0:
            known.emplace_back(k, alg::vset_of(V8::Zero));
            break;
          case PpoKind::Known1:
            known.emplace_back(k, alg::vset_of(V8::One));
            break;
          case PpoKind::FaultD:
            effect.emplace_back(k, alg::vset_of(V8::RiseC));
            break;
          case PpoKind::FaultDbar:
            effect.emplace_back(k, alg::vset_of(V8::FallC));
            break;
          case PpoKind::Unknown:
            unknown.push_back(k);
            break;
        }
      }
      for (const bool with_known : {true, false}) {
        PinList shared = effect;
        if (with_known) {
          shared.insert(shared.end(), known.begin(), known.end());
        }
        // Requirement sets: the first two Unknown PPOs at 0 and at 1, both
        // at once, and the complement of a shared pin, which conflicts at
        // the root.
        std::vector<PinList> requirements;
        for (std::size_t u = 0; u < unknown.size() && u < 2; ++u) {
          requirements.push_back({{unknown[u], alg::vset_of(V8::Zero)}});
          requirements.push_back({{unknown[u], alg::vset_of(V8::One)}});
        }
        if (unknown.size() >= 2) {
          requirements.push_back({{unknown[0], alg::vset_of(V8::One)},
                                  {unknown[1], alg::vset_of(V8::Zero)}});
        }
        if (!shared.empty()) {
          const auto& [k, allowed] = shared.front();
          requirements.push_back(
              {{k, alg::vset_of(allowed == alg::vset_of(V8::Zero)
                                    ? V8::One
                                    : V8::Zero)}});
        }

        TdgenOptions donor_options;
        donor_options.init_donor = &local;
        TdgenSearch donor(model, robust_algebra(), f, donor_options);
        for (const auto& [k, allowed] : shared) {
          donor.pin_ppo(k, allowed);
        }
        ASSERT_TRUE(donor.prime()) << name << " " << fault_name(nl, f);
        for (const PinList& req : requirements) {
          PinList all = shared;
          all.insert(all.end(), req.begin(), req.end());
          const SeededRun seeded = run_seeded(model, f, donor, req);
          const SeededRun unshared = run_seeded(model, f, local, all);
          const std::string what = std::string(name) + " " +
                                   fault_name(nl, f) +
                                   (with_known ? " with Known" : "");
          ASSERT_EQ(seeded.status, unshared.status) << what;
          EXPECT_EQ(seeded.backtracks, unshared.backtracks) << what;
          EXPECT_EQ(seeded.budget_left, unshared.budget_left) << what;
          for (std::size_t t = 0; t < seeded.tests.size(); ++t) {
            const LocalTest& a = seeded.tests[t];
            const LocalTest& b = unshared.tests[t];
            EXPECT_EQ(a.pi_sets, b.pi_sets) << what;
            EXPECT_EQ(a.ppi_sets, b.ppi_sets) << what;
            EXPECT_EQ(a.ppo_sets, b.ppo_sets) << what;
            EXPECT_EQ(a.observed, b.observed) << what;
            EXPECT_EQ(a.observed_at_po, b.observed_at_po) << what;
          }
          // Search work is identical; the seeded search skips the shared
          // pins' root pushes.
          EXPECT_EQ(seeded.tally.trail_pops, unshared.tally.trail_pops)
              << what;
          EXPECT_EQ(seeded.tally.conflicts, unshared.tally.conflicts)
              << what;
          EXPECT_LE(seeded.tally.trail_pushes, unshared.tally.trail_pushes)
              << what;
          if (seeded.backtracks.front() == 0 &&
              seeded.status.front() == TdgenStatus::Untestable) {
            ++root_conflicts;
            EXPECT_EQ(seeded.budget_left, kRunBudget) << what;
          }
          found += seeded.status.front() == TdgenStatus::TestFound ? 1 : 0;
        }
      }
    }
  }
  // Both outcomes of a re-entry must occur, or nothing was compared.
  EXPECT_GT(local_tests, 10);
  EXPECT_GT(root_conflicts, 0);
  EXPECT_GT(found, 0);
}

TEST(TdgenNonRobust, RelaxedModeFindsAtLeastAsMany) {
  const net::Netlist nl =
      net::expand_fanout_branches(circuits::make_s27());
  const AtpgModel model(nl);
  int robust_found = 0, nonrobust_found = 0;
  for (const DelayFault& f : enumerate_faults(nl)) {
    LocalTest test;
    TdgenSearch r(model, robust_algebra(), f);
    if (r.next(&test) == TdgenStatus::TestFound) {
      ++robust_found;
    }
    TdgenSearch n(model, alg::nonrobust_algebra(), f);
    if (n.next(&test) == TdgenStatus::TestFound) {
      ++nonrobust_found;
    }
  }
  EXPECT_GE(nonrobust_found, robust_found);
}

}  // namespace
}  // namespace gdf::tdgen
