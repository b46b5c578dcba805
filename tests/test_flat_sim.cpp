// Scalar/packed equivalence of the flat simulation engine: randomized
// sequences over every catalog circuit must produce identical line values,
// next states, fault-injection (post hook) effects, and PPO observability
// in the scalar five-valued engine and the 64-lane dual-rail engine — both
// thin instantiations of the same levelized kernel over sim::FlatCircuit.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/rng.hpp"
#include "circuits/catalog.hpp"
#include "fausim/fausim.hpp"
#include "netlist/builder.hpp"
#include "sim/flat_circuit.hpp"
#include "sim/parallel3.hpp"
#include "sim/seq_sim.hpp"

namespace gdf::sim {
namespace {

Lv random_three_valued(Rng& rng) {
  const auto r = rng.next_below(3);
  return r == 0 ? Lv::Zero : (r == 1 ? Lv::One : Lv::X);
}

constexpr unsigned kLanes = 64;

/// Packs per-lane three-valued vectors into dual-rail lane words.
std::vector<Word3> pack_lanes(const std::vector<std::vector<Lv>>& lanes) {
  const std::size_t width = lanes.empty() ? 0 : lanes[0].size();
  std::vector<Word3> words(width);
  for (std::size_t i = 0; i < width; ++i) {
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      w3_set_lane(words[i], static_cast<unsigned>(l), lanes[l][i]);
    }
  }
  return words;
}

/// Every lane of every catalog circuit must match the scalar engine, at
/// full lane occupancy.
TEST(FlatSimTest, ScalarAndPackedAgreeOnEveryCatalogCircuit) {
  Rng rng(20260730);
  for (const std::string& name : circuits::catalog_names()) {
    const net::Netlist nl = circuits::load_circuit(name);
    const auto fc = FlatCircuit::build(nl);
    const SeqSimulator scalar(fc);
    const ParallelSim3 packed(fc);

    std::vector<std::vector<Lv>> lane_state(
        kLanes, std::vector<Lv>(nl.dffs().size()));
    for (auto& st : lane_state) {
      for (Lv& v : st) {
        v = random_three_valued(rng);
      }
    }
    std::vector<Word3> state_words = pack_lanes(lane_state);

    for (int frame = 0; frame < 4; ++frame) {
      std::vector<std::vector<Lv>> lane_pis(
          kLanes, std::vector<Lv>(nl.inputs().size()));
      for (auto& pis : lane_pis) {
        for (Lv& v : pis) {
          v = random_three_valued(rng);
        }
      }
      const std::vector<Word3> pi_words = pack_lanes(lane_pis);

      std::vector<Word3> packed_lines;
      packed.eval_frame(pi_words, state_words, packed_lines);

      std::vector<Lv> scalar_lines;
      for (unsigned l = 0; l < kLanes; ++l) {
        scalar.eval_frame(lane_pis[l], lane_state[l], scalar_lines);
        for (net::GateId g = 0; g < nl.size(); ++g) {
          ASSERT_EQ(w3_lane(packed_lines[g], l), scalar_lines[g])
              << name << " frame " << frame << " lane " << l << " line "
              << nl.gate(g).name;
        }
        lane_state[l] = scalar.next_state(scalar_lines);
      }
      packed.next_state(packed_lines, state_words);
      const std::vector<Word3> expect_state = pack_lanes(lane_state);
      for (std::size_t k = 0; k < nl.dffs().size(); ++k) {
        ASSERT_EQ(state_words[k].ones, expect_state[k].ones)
            << name << " next state ff " << k;
        ASSERT_EQ(state_words[k].zeros, expect_state[k].zeros)
            << name << " next state ff " << k;
      }
    }
  }
}

/// The fault-injection hook of eval_flat: forcing values at body outputs
/// (the scalar engine's Injection path and FAUSIM's phase-2 idiom) must
/// behave identically lane-wise.
TEST(FlatSimTest, FaultInjectionPostHookAgreesLaneWise) {
  Rng rng(95001);
  for (const std::string& name : circuits::catalog_names()) {
    const net::Netlist nl = circuits::load_circuit(name);
    const auto fcp = FlatCircuit::build(nl);
    const FlatCircuit& fc = *fcp;
    if (fc.body_count() == 0) {
      continue;
    }
    // Invert every seventh body output as it settles — a deterministic
    // multi-site injection that downstream bodies observe.
    const auto is_site = [&](net::GateId line) {
      const std::size_t b = fc.body_index(line);
      return b != FlatCircuit::kNoBody && b % 7 == 3;
    };

    std::vector<std::vector<Lv>> lane_pis(
        kLanes, std::vector<Lv>(nl.inputs().size()));
    std::vector<std::vector<Lv>> lane_state(
        kLanes, std::vector<Lv>(nl.dffs().size()));
    for (unsigned l = 0; l < kLanes; ++l) {
      for (Lv& v : lane_pis[l]) {
        v = random_three_valued(rng);
      }
      for (Lv& v : lane_state[l]) {
        v = random_three_valued(rng);
      }
    }

    // Packed pass with the wordwise post hook.
    std::vector<Word3> lines(fc.line_count());
    const std::vector<Word3> pi_words = pack_lanes(lane_pis);
    const std::vector<Word3> state_words = pack_lanes(lane_state);
    for (std::size_t i = 0; i < pi_words.size(); ++i) {
      lines[fc.inputs()[i]] = pi_words[i];
    }
    for (std::size_t i = 0; i < state_words.size(); ++i) {
      lines[fc.dffs()[i]] = state_words[i];
    }
    eval_flat(fc, Word3Ops{}, lines.data(), [&](net::GateId out, Word3& v) {
      if (is_site(out)) {
        v = w3_not(v);
      }
    });

    // Scalar reference, one lane at a time, with the same injection.
    const auto scalar_not = [](Lv v) {
      return v == Lv::One ? Lv::Zero : (v == Lv::Zero ? Lv::One : Lv::X);
    };
    std::vector<Lv> ref(fc.line_count(), Lv::X);
    for (unsigned l = 0; l < kLanes; ++l) {
      for (std::size_t i = 0; i < lane_pis[l].size(); ++i) {
        ref[fc.inputs()[i]] = lane_pis[l][i];
      }
      for (std::size_t i = 0; i < lane_state[l].size(); ++i) {
        ref[fc.dffs()[i]] = lane_state[l][i];
      }
      eval_flat(fc, LvOps{}, ref.data(), [&](net::GateId out, Lv& v) {
        if (is_site(out)) {
          v = scalar_not(v);
        }
      });
      for (net::GateId g = 0; g < nl.size(); ++g) {
        ASSERT_EQ(w3_lane(lines[g], l), ref[g])
            << name << " lane " << l << " line " << nl.gate(g).name;
      }
    }
  }
}

/// Scalar reference for phase-2 observability: one good/faulty twin replay
/// per definite flip-flop.
std::vector<bool> scalar_ppo_observability(
    const SeqSimulator& sim, const StateVec& state_after_fast,
    const std::vector<InputVec>& frames) {
  const net::Netlist& nl = sim.netlist();
  std::vector<bool> observable(nl.dffs().size(), false);
  for (std::size_t ff = 0; ff < nl.dffs().size(); ++ff) {
    if (!is_binary(state_after_fast[ff])) {
      continue;
    }
    StateVec good = state_after_fast;
    StateVec faulty = state_after_fast;
    faulty[ff] = good[ff] == Lv::One ? Lv::Zero : Lv::One;
    std::vector<Lv> lg, lf;
    for (const InputVec& pis : frames) {
      sim.eval_frame(pis, good, lg);
      sim.eval_frame(pis, faulty, lf);
      bool seen = false;
      for (const net::GateId po : nl.outputs()) {
        if (is_binary(lg[po]) && is_binary(lf[po]) && lg[po] != lf[po]) {
          observable[ff] = true;
          seen = true;
          break;
        }
      }
      if (seen) {
        break;
      }
      good = sim.next_state(lg);
      faulty = sim.next_state(lf);
    }
  }
  return observable;
}

TEST(FlatSimTest, PpoObservabilityMatchesScalarTwinReplay) {
  Rng rng(95);
  for (const std::string& name : circuits::catalog_names()) {
    const net::Netlist nl = circuits::load_circuit(name);
    if (nl.dffs().empty()) {
      continue;  // combinational: no PPOs to observe
    }
    const SeqSimulator scalar(nl);
    const fausim::Fausim fausim(nl);

    for (int trial = 0; trial < 3; ++trial) {
      StateVec state(nl.dffs().size());
      for (Lv& v : state) {
        v = random_three_valued(rng);
      }
      std::vector<InputVec> frames(3, InputVec(nl.inputs().size()));
      for (auto& pis : frames) {
        for (Lv& v : pis) {
          v = rng.next_bool() ? Lv::One : Lv::Zero;
        }
      }
      const std::vector<bool> reference =
          scalar_ppo_observability(scalar, state, frames);
      ASSERT_EQ(fausim.ppo_observability(state, frames), reference)
          << name << " trial " << trial;
    }
  }
}

/// A wide-state machine (more flip-flops than one pass has faulty lanes)
/// so the multi-pass path genuinely crosses word boundaries. Mixed
/// AND/OR/XOR observation trees give non-trivial masking.
net::Netlist wide_state_machine(std::size_t n_ff, std::size_t n_pi,
                                std::size_t n_po, std::size_t window) {
  net::NetlistBuilder b("wide");
  for (std::size_t i = 0; i < n_pi; ++i) {
    b.input("x" + std::to_string(i));
  }
  const net::GateType ops[] = {net::GateType::And, net::GateType::Or,
                               net::GateType::Xor};
  for (std::size_t i = 0; i < n_ff; ++i) {
    b.dff("q" + std::to_string(i), "d" + std::to_string(i));
    b.gate("d" + std::to_string(i), ops[i % 3],
           {"q" + std::to_string((i + 37) % n_ff),
            "x" + std::to_string(i % n_pi)});
  }
  const std::size_t stride = n_ff / n_po;
  for (std::size_t k = 0; k < n_po; ++k) {
    std::string acc = "q" + std::to_string((k * stride) % n_ff);
    for (std::size_t j = 1; j < window; ++j) {
      const std::string out =
          "t" + std::to_string(k) + "_" + std::to_string(j);
      b.gate(out, ops[(k + j) % 3],
             {acc, "q" + std::to_string((k * stride + j) % n_ff)});
      acc = out;
    }
    const std::string po = "po" + std::to_string(k);
    b.gate(po, net::GateType::Buf, {acc});
    b.output(po);
  }
  return b.build();
}

TEST(FlatSimTest, WideStatePpoObservabilityMatchesScalarTwinReplay) {
  // 300 definite-capable flip-flops span five passes of 63 flips.
  const net::Netlist nl = wide_state_machine(300, 8, 10, 15);
  const SeqSimulator scalar(nl);
  const fausim::Fausim fausim(nl);
  Rng rng(424242);
  for (int trial = 0; trial < 2; ++trial) {
    StateVec state(nl.dffs().size());
    for (Lv& v : state) {
      // Mostly binary so several hundred lanes are genuinely flippable.
      v = rng.next_below(8) == 0 ? Lv::X
                                 : (rng.next_bool() ? Lv::One : Lv::Zero);
    }
    std::vector<InputVec> frames(4, InputVec(nl.inputs().size()));
    for (auto& pis : frames) {
      for (Lv& v : pis) {
        v = rng.next_bool() ? Lv::One : Lv::Zero;
      }
    }
    ASSERT_EQ(fausim.ppo_observability(state, frames),
              scalar_ppo_observability(scalar, state, frames))
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace gdf::sim
