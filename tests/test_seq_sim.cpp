#include <gtest/gtest.h>

#include "base/rng.hpp"
#include "circuits/catalog.hpp"
#include "circuits/embedded.hpp"
#include "netlist/builder.hpp"
#include "sim/parallel3.hpp"
#include "sim/seq_sim.hpp"

namespace gdf::sim {
namespace {

net::Netlist toggler() {
  // q toggles when en=1: d = q XOR en.
  net::NetlistBuilder b("toggler");
  b.input("en");
  b.output("q");
  b.dff("q", "d");
  b.gate("d", net::GateType::Xor, {"q", "en"});
  return b.build();
}

TEST(SeqSimTest, TogglerBehaviour) {
  const net::Netlist nl = toggler();
  SeqSimulator sim(nl);
  StateVec state = {Lv::Zero};
  std::vector<Lv> lines;
  sim.eval_frame(InputVec{Lv::One}, state, lines);
  EXPECT_EQ(sim.outputs(lines)[0], Lv::Zero);  // PO is the present state
  state = sim.next_state(lines);
  EXPECT_EQ(state[0], Lv::One);
  sim.eval_frame(InputVec{Lv::Zero}, state, lines);
  state = sim.next_state(lines);
  EXPECT_EQ(state[0], Lv::One);  // hold
}

TEST(SeqSimTest, UnknownStateStaysUnknownWithoutControl) {
  const net::Netlist nl = toggler();
  SeqSimulator sim(nl);
  StateVec state = sim.unknown_state();
  std::vector<Lv> lines;
  sim.eval_frame(InputVec{Lv::One}, state, lines);
  EXPECT_EQ(sim.next_state(lines)[0], Lv::X);  // X xor 1 = X
}

TEST(SeqSimTest, RunWholeSequence) {
  const net::Netlist nl = toggler();
  SeqSimulator sim(nl);
  const std::vector<InputVec> seq = {{Lv::One}, {Lv::One}, {Lv::One}};
  std::vector<std::vector<Lv>> pos;
  const StateVec end = sim.run(seq, StateVec{Lv::Zero}, &pos);
  ASSERT_EQ(pos.size(), 3u);
  EXPECT_EQ(end[0], Lv::One);  // toggled three times from 0
  EXPECT_EQ(pos[1][0], Lv::One);
}

TEST(SeqSimTest, S27KnownFrame) {
  const net::Netlist nl = circuits::make_s27();
  SeqSimulator sim(nl);
  // All PIs zero, state all zero. Hand-evaluated s27:
  // G14=NOT(G0)=1, G12=NOR(G1,G7)=1, G13=NOR(G2,G12)=0, G8=AND(G14,G6)=0,
  // G15=OR(G12,G8)=1, G16=OR(G3,G8)=0, G9=NAND(G16,G15)=1,
  // G10=NOR(G14,G11)=0, G11=NOR(G5,G9)=0, G17=NOT(G11)=1.
  std::vector<Lv> lines;
  sim.eval_frame(InputVec(4, Lv::Zero), StateVec(3, Lv::Zero), lines);
  EXPECT_EQ(lines[nl.find("G14")], Lv::One);
  EXPECT_EQ(lines[nl.find("G13")], Lv::Zero);
  EXPECT_EQ(lines[nl.find("G9")], Lv::One);
  EXPECT_EQ(lines[nl.find("G11")], Lv::Zero);
  EXPECT_EQ(sim.outputs(lines)[0], Lv::One);
  const StateVec next = sim.next_state(lines);
  EXPECT_EQ(next[0], Lv::Zero);  // G5 <- G10
  EXPECT_EQ(next[1], Lv::Zero);  // G6 <- G11
  EXPECT_EQ(next[2], Lv::Zero);  // G7 <- G13
}

TEST(ParallelSim3Test, MatchesScalarSimLaneWise) {
  const net::Netlist nl = circuits::load_circuit("s298");
  SeqSimulator scalar(nl);
  ParallelSim3 parallel(nl);
  Rng rng(1234);

  const std::size_t n_pi = nl.inputs().size();
  const std::size_t n_ff = nl.dffs().size();
  constexpr unsigned kLanes = 8;

  // Random three-valued stimulus per lane.
  std::vector<std::vector<Lv>> lane_pis(kLanes, std::vector<Lv>(n_pi));
  std::vector<std::vector<Lv>> lane_state(kLanes, std::vector<Lv>(n_ff));
  const auto random_lv = [&rng]() {
    const auto r = rng.next_below(3);
    return r == 0 ? Lv::Zero : (r == 1 ? Lv::One : Lv::X);
  };
  for (unsigned l = 0; l < kLanes; ++l) {
    for (auto& v : lane_pis[l]) v = random_lv();
    for (auto& v : lane_state[l]) v = random_lv();
  }

  // Pack into dual-rail words.
  std::vector<Word3> pi_words(n_pi), state_words(n_ff);
  for (std::size_t i = 0; i < n_pi; ++i) {
    for (unsigned l = 0; l < kLanes; ++l) {
      w3_set_lane(pi_words[i], l, lane_pis[l][i]);
    }
  }
  for (std::size_t i = 0; i < n_ff; ++i) {
    for (unsigned l = 0; l < kLanes; ++l) {
      w3_set_lane(state_words[i], l, lane_state[l][i]);
    }
  }

  std::vector<Word3> packed;
  parallel.eval_frame(pi_words, state_words, packed);

  std::vector<Lv> scalar_lines;
  for (unsigned l = 0; l < kLanes; ++l) {
    scalar.eval_frame(lane_pis[l], lane_state[l], scalar_lines);
    for (net::GateId g = 0; g < nl.size(); ++g) {
      EXPECT_EQ(w3_lane(packed[g], l), scalar_lines[g])
          << "lane " << l << " gate " << nl.gate(g).name;
    }
  }
}

TEST(ResettleFrame, MatchesFullEvalUnderRandomBoundaryFlips) {
  // The incremental per-decision resettle (FramePodem's discipline) must
  // stay exactly eval_frame() across arbitrary boundary flip sequences,
  // with and without an injection.
  const net::Netlist nl = circuits::load_circuit("s298");
  const SeqSimulator sim(nl);
  const FlatCircuit& fc = *sim.flat();
  for (const bool inject : {false, true}) {
    Injection injection;
    if (inject) {
      injection.line = static_cast<net::GateId>(nl.size() / 2);
      injection.faulty = Lv::Zero;
    }
    const Injection* inj = inject ? &injection : nullptr;
    InputVec pis(nl.inputs().size(), Lv::X);
    StateVec state(nl.dffs().size(), Lv::X);
    std::vector<Lv> incremental;
    sim.eval_frame(pis, state, incremental, inj);
    Rng rng(2026);
    BitQueue work;
    const Lv values[] = {Lv::Zero, Lv::One, Lv::X};
    for (int step = 0; step < 120; ++step) {
      work.begin(fc.body_count());
      bool any = false;
      const std::size_t n_changes = 1 + rng.next_below(2);
      for (std::size_t c = 0; c < n_changes; ++c) {
        const bool is_ppi = rng.next_bool() && !state.empty();
        const std::size_t index = is_ppi ? rng.next_below(state.size())
                                         : rng.next_below(pis.size());
        const Lv v = values[rng.next_below(3)];
        const net::GateId line =
            is_ppi ? nl.dffs()[index] : nl.inputs()[index];
        if (is_ppi) {
          state[index] = v;
        } else {
          pis[index] = v;
        }
        Lv applied = v;
        if (inj != nullptr && inj->line == line) {
          applied = combine(good_value(applied), inj->faulty);
        }
        if (applied == incremental[line]) {
          continue;
        }
        incremental[line] = applied;
        for (const std::uint32_t reader : fc.readers(line)) {
          work.push(reader);
        }
        any = true;
      }
      if (any) {
        sim.resettle_frame(incremental, work, inj);
      }
      std::vector<Lv> fresh;
      sim.eval_frame(pis, state, fresh, inj);
      ASSERT_EQ(incremental, fresh) << "step " << step;
    }
  }
}

}  // namespace
}  // namespace gdf::sim
