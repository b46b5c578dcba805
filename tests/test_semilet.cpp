#include <gtest/gtest.h>

#include <latch>
#include <numeric>
#include <span>
#include <thread>

#include "base/rng.hpp"
#include "circuits/catalog.hpp"
#include "circuits/embedded.hpp"
#include "netlist/builder.hpp"
#include "semilet/semilet.hpp"
#include "sim/sync_library.hpp"

namespace gdf::semilet {
namespace {

using sim::InputVec;
using sim::Lv;
using sim::StateVec;

SemiletOptions roomy() {
  SemiletOptions o;
  o.backtrack_limit = 1000;
  return o;
}

TEST(FramePodemJustify, CombinationalObjective) {
  // c17: justify N22 = 0, which needs N10 = N16 = 1.
  const net::Netlist nl = circuits::make_c17();
  sim::SeqSimulator simulator(nl);
  Budget budget(roomy());
  PodemRequest request;
  request.mode = PodemMode::JustifyValues;
  request.in_state = {};
  request.assignable_ppi = {};
  request.objectives = {{nl.find("N22"), Lv::Zero}};
  FramePodem podem(simulator, budget, std::move(request));
  FrameSolution sol;
  ASSERT_EQ(podem.next(&sol), PodemStatus::Solution);
  EXPECT_EQ(sol.line_values[nl.find("N22")], Lv::Zero);
}

TEST(FramePodemJustify, ImpossibleObjectiveExhausts) {
  net::NetlistBuilder b("const0");
  b.input("a");
  b.output("y");
  b.gate("an", net::GateType::Not, {"a"});
  b.gate("y", net::GateType::And, {"a", "an"});
  const net::Netlist nl = b.build();
  sim::SeqSimulator simulator(nl);
  Budget budget(roomy());
  PodemRequest request;
  request.mode = PodemMode::JustifyValues;
  request.objectives = {{nl.find("y"), Lv::One}};
  FramePodem podem(simulator, budget, std::move(request));
  EXPECT_EQ(podem.next(nullptr), PodemStatus::Exhausted);
}

TEST(FramePodemJustify, EnumeratesMultipleSolutions) {
  // y = OR(a, b) = 1 has three satisfying binary corners; PODEM with X's
  // yields at least two distinct solutions.
  net::NetlistBuilder b("or2");
  b.input("a");
  b.input("b");
  b.output("y");
  b.gate("y", net::GateType::Or, {"a", "b"});
  const net::Netlist nl = b.build();
  sim::SeqSimulator simulator(nl);
  Budget budget(roomy());
  PodemRequest request;
  request.mode = PodemMode::JustifyValues;
  request.objectives = {{nl.find("y"), Lv::One}};
  FramePodem podem(simulator, budget, std::move(request));
  FrameSolution first, second;
  ASSERT_EQ(podem.next(&first), PodemStatus::Solution);
  ASSERT_EQ(podem.next(&second), PodemStatus::Solution);
  EXPECT_NE(first.pis, second.pis);
}

TEST(FramePodemObserve, DriveStateFaultToOutput) {
  // s27 with D at flip-flop G5: G11 = NOR(G5, G9) passes D' to PO G17 as D
  // once G9 = 0 is justified.
  const net::Netlist nl = circuits::make_s27();
  sim::SeqSimulator simulator(nl);
  Budget budget(roomy());
  PodemRequest request;
  request.mode = PodemMode::ObserveFault;
  request.in_state = {Lv::D, Lv::X, Lv::X};
  request.assignable_ppi = {false, true, true};
  request.require_po = true;
  FramePodem podem(simulator, budget, std::move(request));
  FrameSolution sol;
  ASSERT_EQ(podem.next(&sol), PodemStatus::Solution);
  EXPECT_TRUE(sol.po_hit);
  EXPECT_TRUE(sim::is_fault_effect(sol.line_values[nl.find("G17")]));
}

TEST(FramePodemObserve, UnassignableStateBlocksBacktrace) {
  // A circuit where observation needs a specific state bit: q AND d where
  // d carries D. With q unassignable (U), the only sensitization is
  // unreachable and the frame exhausts.
  net::NetlistBuilder b("gated");
  b.input("a");
  b.output("y");
  b.dff("q", "d");
  b.gate("d", net::GateType::Buf, {"a"});
  b.gate("y", net::GateType::And, {"q", "a"});
  const net::Netlist nl = b.build();
  sim::SeqSimulator simulator(nl);

  for (const bool assignable : {true, false}) {
    Budget budget(roomy());
    PodemRequest request;
    request.mode = PodemMode::ObserveFault;
    request.in_state = {Lv::X};
    request.assignable_ppi = {assignable};
    request.require_po = true;
    // Fault effect arrives via PI a: inject stuck-at-0 at a and force the
    // activating value through the activation objective.
    request.injection = {nl.find("a"), Lv::Zero};
    request.activation_line = nl.find("a");
    request.activation_value = Lv::One;
    FramePodem podem(simulator, budget, std::move(request));
    FrameSolution sol;
    const PodemStatus status = podem.next(&sol);
    if (assignable) {
      ASSERT_EQ(status, PodemStatus::Solution);
      EXPECT_TRUE(sol.po_hit);
      ASSERT_EQ(sol.ppi_assignments.size(), 1u);
      EXPECT_EQ(sol.ppi_assignments[0].second, Lv::One);
    } else {
      EXPECT_EQ(status, PodemStatus::Exhausted);
    }
  }
}

TEST(FramePodemObserve, FrontierTieGoesToTheLowerGateId) {
  // The fault effect at flip-flop q reaches two PO gates at observation
  // distance 0: ya through two buffers and yb directly, with ya's gate id
  // the lower. A walk over the fault-effect lines' readers meets yb first
  // (q's own reader), so only the (obs_distance, gate id) order picks ya:
  // the first solution sets a = 1 and leaves b unassigned.
  net::NetlistBuilder b("tie");
  b.input("a");
  b.input("b");
  b.output("ya");
  b.output("yb");
  b.dff("q", "ya");
  b.gate("ya", net::GateType::And, {"qd", "a"});
  b.gate("yb", net::GateType::And, {"q", "b"});
  b.gate("qb", net::GateType::Buf, {"q"});
  b.gate("qd", net::GateType::Buf, {"qb"});
  const net::Netlist nl = b.build();
  const net::GateId ya = nl.find("ya");
  const net::GateId yb = nl.find("yb");
  ASSERT_LT(ya, yb);
  sim::SeqSimulator simulator(nl);
  const std::span<const int> obs_distance = simulator.flat()->obs_distance();
  ASSERT_EQ(obs_distance[ya], obs_distance[yb]);

  Budget budget(roomy());
  PodemRequest request;
  request.mode = PodemMode::ObserveFault;
  request.in_state = {Lv::D};
  request.assignable_ppi = {false};
  request.require_po = true;
  FramePodem podem(simulator, budget, std::move(request));
  FrameSolution sol;
  ASSERT_EQ(podem.next(&sol), PodemStatus::Solution);
  EXPECT_EQ(sol.pis, (InputVec{Lv::One, Lv::X}));
  EXPECT_TRUE(sim::is_fault_effect(sol.line_values[ya]));
  EXPECT_EQ(sol.line_values[yb], Lv::X);
}

TEST(PropagatorTest, OneFramePath) {
  const net::Netlist nl = circuits::make_s27();
  Budget budget(roomy());
  Propagator propagator(nl, budget);
  StateVec boundary = {Lv::D, Lv::X, Lv::X};
  propagator.start(boundary, {false, true, true});
  PropagationOutcome outcome;
  ASSERT_EQ(propagator.next(&outcome), SeqStatus::Success);
  ASSERT_GE(outcome.frames.size(), 1u);

  // Replay: inject D at G5 and apply the frames; a PO must show D/D'.
  sim::SeqSimulator simulator(nl);
  StateVec state = boundary;
  for (auto& [ff, v] : outcome.boundary_requirements) {
    ASSERT_EQ(state[ff], Lv::X);
    state[ff] = v;
  }
  std::vector<Lv> lines;
  bool seen_po = false;
  for (const InputVec& pis : outcome.frames) {
    simulator.eval_frame(pis, state, lines);
    for (const net::GateId po : nl.outputs()) {
      seen_po = seen_po || sim::is_fault_effect(lines[po]);
    }
    state = simulator.next_state(lines);
  }
  EXPECT_TRUE(seen_po);
}

TEST(PropagatorTest, NoFaultEffectMeansExhausted) {
  const net::Netlist nl = circuits::make_s27();
  Budget budget(roomy());
  Propagator propagator(nl, budget);
  propagator.start(StateVec{Lv::Zero, Lv::X, Lv::One},
                   {false, false, false});
  EXPECT_EQ(propagator.next(nullptr), SeqStatus::Exhausted);
}

TEST(PropagatorTest, MultiFrameChase) {
  // Two-stage shift: D must cross one extra register before a PO exists.
  net::NetlistBuilder b("shift2");
  b.input("en");
  b.output("y");
  b.dff("q0", "d0");
  b.dff("q1", "d1");
  b.gate("d0", net::GateType::And, {"q0", "en"});  // dead end for q0
  b.gate("d1", net::GateType::Buf, {"q0"});
  b.gate("y", net::GateType::And, {"q1", "en"});
  const net::Netlist nl = b.build();
  Budget budget(roomy());
  Propagator propagator(nl, budget);
  propagator.start(StateVec{Lv::D, Lv::X}, {false, true});
  PropagationOutcome outcome;
  ASSERT_EQ(propagator.next(&outcome), SeqStatus::Success);
  EXPECT_GE(outcome.frames.size(), 2u);
}

TEST(SynchronizerTest, EmptyRequirementsTrivial) {
  const net::Netlist nl = circuits::make_s27();
  Budget budget(roomy());
  Synchronizer synchronizer(nl, budget);
  SyncResult result;
  ASSERT_EQ(synchronizer.synchronize({}, &result), SeqStatus::Success);
  EXPECT_TRUE(result.frames.empty());
}

TEST(SynchronizerTest, S27FullStateReachable) {
  // All-ones inputs drive s27 into (1,0,0) from any state; the
  // synchronizer must find some sequence establishing required bits.
  const net::Netlist nl = circuits::make_s27();
  Budget budget(roomy());
  Synchronizer synchronizer(nl, budget);
  SyncResult result;
  const std::vector<std::pair<std::size_t, Lv>> reqs = {
      {0, Lv::One}, {1, Lv::Zero}, {2, Lv::Zero}};
  ASSERT_EQ(synchronizer.synchronize(reqs, &result), SeqStatus::Success);

  // Property: replaying from all-X establishes the requirements.
  sim::SeqSimulator simulator(nl);
  StateVec state = simulator.unknown_state();
  std::vector<Lv> lines;
  for (const InputVec& pis : result.frames) {
    simulator.eval_frame(pis, state, lines);
    state = simulator.next_state(lines);
  }
  for (const auto& [ff, v] : reqs) {
    EXPECT_EQ(state[ff], v) << "ff " << ff;
  }
}

TEST(SynchronizerTest, UninitializableBitExhausts) {
  // q feeds back through a buffer: no input ever defines it.
  net::NetlistBuilder b("floaty");
  b.input("a");
  b.output("y");
  b.dff("q", "d");
  b.gate("d", net::GateType::Buf, {"q"});
  b.gate("y", net::GateType::And, {"a", "q"});
  const net::Netlist nl = b.build();
  Budget budget(roomy());
  Synchronizer synchronizer(nl, budget);
  SyncResult result;
  EXPECT_EQ(synchronizer.synchronize({{0, Lv::One}}, &result),
            SeqStatus::Exhausted);
}

TEST(SynchronizerTest, ChainNeedsMultipleFrames) {
  // q1 loads from q0, q0 loads from the input: requiring q1 takes two
  // frames of reverse processing.
  net::NetlistBuilder b("chain");
  b.input("a");
  b.output("y");
  b.dff("q0", "d0");
  b.dff("q1", "d1");
  b.gate("d0", net::GateType::Buf, {"a"});
  b.gate("d1", net::GateType::Buf, {"q0"});
  b.gate("y", net::GateType::Buf, {"q1"});
  const net::Netlist nl = b.build();
  Budget budget(roomy());
  Synchronizer synchronizer(nl, budget);
  SyncResult result;
  ASSERT_EQ(synchronizer.synchronize({{1, Lv::One}}, &result),
            SeqStatus::Success);
  EXPECT_EQ(result.frames.size(), 2u);

  sim::SeqSimulator simulator(nl);
  StateVec state = simulator.unknown_state();
  std::vector<Lv> lines;
  for (const InputVec& pis : result.frames) {
    simulator.eval_frame(pis, state, lines);
    state = simulator.next_state(lines);
  }
  EXPECT_EQ(state[1], Lv::One);
}

// --- The synchronizing-prefix library ---------------------------------

using Requirements = std::vector<std::pair<std::size_t, Lv>>;

// Replays `frames` from the all-X power-up state on the scalar simulator:
// true when every requirement holds in the final state.
bool establishes(const net::Netlist& nl, const std::vector<InputVec>& frames,
                 const Requirements& requirements) {
  const sim::SeqSimulator simulator(nl);
  StateVec state = simulator.unknown_state();
  std::vector<Lv> lines;
  for (const InputVec& pis : frames) {
    simulator.eval_frame(pis, state, lines);
    state = simulator.next_state(lines);
  }
  for (const auto& [ff, v] : requirements) {
    if (state[ff] != v) {
      return false;
    }
  }
  return true;
}

// Every (flip-flop, value) pair of the circuit, one requirement each.
std::vector<Requirements> single_bits(const net::Netlist& nl) {
  std::vector<Requirements> sets;
  for (std::size_t k = 0; k < nl.dffs().size(); ++k) {
    sets.push_back({{k, Lv::Zero}});
    sets.push_back({{k, Lv::One}});
  }
  return sets;
}

struct SyncOutcome {
  SeqStatus status;
  std::vector<InputVec> frames;

  bool operator==(const SyncOutcome&) const = default;
};

SyncOutcome synchronize_fresh(std::shared_ptr<const sim::FlatCircuit> fc,
                              const Requirements& requirements,
                              const SemiletOptions& options = {}) {
  Budget budget(options);
  Synchronizer synchronizer(std::move(fc), budget);
  SyncResult result;
  const SeqStatus status = synchronizer.synchronize(requirements, &result);
  return {status, std::move(result.frames)};
}

TEST(SyncLibraryTest, PrefixesEstablishTheirRequirements) {
  for (const char* name : {"s641", "s1196"}) {
    const net::Netlist nl = circuits::load_circuit(name);
    const auto fc = sim::FlatCircuit::build(nl);
    std::vector<Requirements> sets = single_bits(nl);
    const std::size_t singles = sets.size();
    // Seeded random sets of 2-6 distinct bits.
    Rng rng(1995);
    std::vector<std::size_t> ffs(nl.dffs().size());
    for (int i = 0; i < 300; ++i) {
      std::iota(ffs.begin(), ffs.end(), std::size_t{0});
      const std::size_t size = 2 + rng.next_below(5);
      Requirements set;
      for (std::size_t j = 0; j < size; ++j) {
        std::swap(ffs[j], ffs[j + rng.next_below(ffs.size() - j)]);
        set.emplace_back(ffs[j], rng.next_bool() ? Lv::One : Lv::Zero);
      }
      sets.push_back(std::move(set));
    }
    int single_hits = 0;
    int multi_hits = 0;
    for (std::size_t i = 0; i < sets.size(); ++i) {
      std::vector<InputVec> frames;
      if (!fc->sync_library().find_prefix(sets[i], sim::SyncLibrary::kFrames,
                                          &frames)) {
        continue;
      }
      ++(i < singles ? single_hits : multi_hits);
      EXPECT_GE(frames.size(), 1u);
      EXPECT_LE(frames.size(), sim::SyncLibrary::kFrames);
      EXPECT_TRUE(establishes(nl, frames, sets[i])) << name << " set " << i;
    }
    EXPECT_GT(single_hits, 0) << name;
    EXPECT_GT(multi_hits, 0) << name;
  }
}

TEST(SyncLibraryTest, HitSpendsNoSearch) {
  const net::Netlist nl = circuits::load_circuit("s1196");
  const auto fc = sim::FlatCircuit::build(nl);
  int hits = 0;
  for (const Requirements& set : single_bits(nl)) {
    std::vector<InputVec> prefix;
    if (!fc->sync_library().find_prefix(set, sim::SyncLibrary::kFrames,
                                        &prefix)) {
      continue;
    }
    ++hits;
    Budget budget{SemiletOptions{}};
    Synchronizer synchronizer(fc, budget);
    SyncResult result;
    ASSERT_EQ(synchronizer.synchronize(set, &result), SeqStatus::Success);
    EXPECT_EQ(result.frames, prefix);
    EXPECT_EQ(budget.backtracks(), 0);
  }
  EXPECT_GT(hits, 0);
}

TEST(SyncLibraryTest, MaxSyncFramesCapsThePrefix) {
  const net::Netlist nl = circuits::load_circuit("s1196");
  const auto fc = sim::FlatCircuit::build(nl);
  int capped = 0;
  for (const Requirements& set : single_bits(nl)) {
    std::vector<InputVec> prefix;
    if (!fc->sync_library().find_prefix(set, sim::SyncLibrary::kFrames,
                                        &prefix) ||
        prefix.size() < 2) {
      continue;
    }
    ++capped;
    // The prefix is the shortest, so one frame less finds none...
    const std::size_t cap = prefix.size() - 1;
    EXPECT_FALSE(fc->sync_library().find_prefix(set, cap, nullptr));
    // ...and the synchronizer keeps to the cap on either step.
    SemiletOptions options;
    options.max_sync_frames = static_cast<int>(cap);
    const SyncOutcome outcome = synchronize_fresh(fc, set, options);
    if (outcome.status == SeqStatus::Success) {
      EXPECT_LE(outcome.frames.size(), cap);
      EXPECT_TRUE(establishes(nl, outcome.frames, set));
    }
  }
  EXPECT_GT(capped, 0);
}

TEST(SyncLibraryTest, PureFunctionOfTheCircuit) {
  const net::Netlist nl = circuits::load_circuit("s1196");
  const auto a = sim::FlatCircuit::build(nl);
  const auto b = sim::FlatCircuit::build(nl);
  for (const Requirements& set : single_bits(nl)) {
    std::vector<InputVec> frames_a;
    std::vector<InputVec> frames_b;
    EXPECT_EQ(a->sync_library().find_prefix(set, sim::SyncLibrary::kFrames,
                                            &frames_a),
              b->sync_library().find_prefix(set, sim::SyncLibrary::kFrames,
                                            &frames_b));
    EXPECT_EQ(frames_a, frames_b);
  }
}

// Single-bit synchronization at the paper budget: the pairs the library
// establishes on top of the reverse-time search. `search_only` is what the
// search alone achieved; the library may only add to it.
TEST(SyncLibraryTest, SingleBitSuccessCounts) {
  struct Row {
    const char* name;
    int search_only;
    int with_library;
  };
  for (const Row& row : {Row{"s344", 24, 28}, Row{"s349", 19, 25},
                         Row{"s641", 28, 37}, Row{"s713", 37, 38},
                         Row{"s838", 57, 62}, Row{"s1196", 23, 31},
                         Row{"s1238", 26, 34}}) {
    const net::Netlist nl = circuits::load_circuit(row.name);
    const auto fc = sim::FlatCircuit::build(nl);
    int successes = 0;
    for (const Requirements& set : single_bits(nl)) {
      const SyncOutcome outcome = synchronize_fresh(fc, set);
      if (outcome.status == SeqStatus::Success) {
        ++successes;
        EXPECT_TRUE(establishes(nl, outcome.frames, set)) << row.name;
      }
    }
    EXPECT_EQ(successes, row.with_library) << row.name;
    EXPECT_GE(successes, row.search_only) << row.name;
  }
}

// Threads racing the lazy build of one shared circuit's library must all
// see the same library (run under TSan in CI).
TEST(SyncLibraryTest, ConcurrentFirstUseAgrees) {
  constexpr int kThreads = 4;
  const net::Netlist nl = circuits::load_circuit("s1196");
  const auto fc = sim::FlatCircuit::build(nl);
  const std::vector<Requirements> sets = single_bits(nl);
  std::vector<std::vector<SyncOutcome>> outcomes(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (const Requirements& set : sets) {
        outcomes[t].push_back(synchronize_fresh(fc, set));
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  ASSERT_EQ(outcomes[0].size(), sets.size());
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_TRUE(outcomes[t] == outcomes[0]) << "thread " << t;
  }
}

TEST(BudgetTest, CountsAndLimits) {
  SemiletOptions o;
  o.backtrack_limit = 2;
  Budget b(o);
  EXPECT_TRUE(b.note_backtrack());
  EXPECT_TRUE(b.note_backtrack());
  EXPECT_FALSE(b.note_backtrack());
  EXPECT_TRUE(b.exhausted());
  EXPECT_EQ(b.backtracks(), 3);
}

// With no backtrack to spend, a search that needs one ends Aborted, never
// Exhausted, and leaves its budget exhausted: single-bit synchronization
// and one-flip-flop propagation starts on s298.
TEST(BudgetTest, ZeroBacktrackLimitAborts) {
  const net::Netlist nl = circuits::load_circuit("s298");
  const auto fc = sim::FlatCircuit::build(nl);
  const SemiletOptions strangled{.backtrack_limit = 0};
  const auto count_abort = [](SeqStatus status, const Budget& budget,
                              int* aborts) {
    EXPECT_NE(status, SeqStatus::Exhausted);
    EXPECT_EQ(status == SeqStatus::Aborted, budget.exhausted());
    *aborts += status == SeqStatus::Aborted ? 1 : 0;
  };
  int sync_aborts = 0;
  for (const Requirements& set : single_bits(nl)) {
    Budget budget(strangled);
    Synchronizer synchronizer(fc, budget);
    count_abort(synchronizer.synchronize(set, nullptr), budget, &sync_aborts);
  }
  const std::size_t n_ff = nl.dffs().size();
  int propagation_aborts = 0;
  for (std::size_t k = 0; k < n_ff; ++k) {
    for (const Lv effect : {Lv::D, Lv::Dbar}) {
      StateVec boundary(n_ff, Lv::X);
      boundary[k] = effect;
      Budget budget(strangled);
      Propagator propagator(fc, budget);
      propagator.start(std::move(boundary), std::vector<bool>(n_ff, true));
      count_abort(propagator.next(nullptr), budget, &propagation_aborts);
    }
  }
  EXPECT_GT(sync_aborts, 0);
  EXPECT_GT(propagation_aborts, 0);
}

}  // namespace
}  // namespace gdf::semilet
