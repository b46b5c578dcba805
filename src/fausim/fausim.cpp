#include "fausim/fausim.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "base/error.hpp"

namespace gdf::fausim {

using sim::Lv;

Fausim::Fausim(const net::Netlist& nl)
    : Fausim(sim::FlatCircuit::build(nl)) {}

Fausim::Fausim(std::shared_ptr<const sim::FlatCircuit> fc, sim::LaneSpec)
    : fc_(std::move(fc)), scalar_(fc_), packed_(fc_) {}

Fausim::GoodTrace Fausim::simulate_good(std::span<const sim::InputVec> frames,
                                        Rng& rng) const {
  GoodTrace trace;
  trace.filled.reserve(frames.size());
  for (const sim::InputVec& pis : frames) {
    sim::InputVec filled = pis;
    for (Lv& v : filled) {
      if (v == Lv::X) {
        v = rng.next_bool() ? Lv::One : Lv::Zero;
      }
    }
    trace.filled.push_back(std::move(filled));
  }
  trace.states.reserve(frames.size() + 1);
  trace.states.push_back(scalar_.unknown_state());
  std::vector<Lv> lines;  // one frame's settled values, reused per frame
  for (const sim::InputVec& pis : trace.filled) {
    scalar_.eval_frame(pis, trace.states.back(), lines);
    trace.states.push_back(scalar_.next_state(lines));
  }
  scalar_evals_ += static_cast<long>(frames.size()) *
                   static_cast<long>(fc_->body_count());
  return trace;
}

std::vector<bool> Fausim::ppo_observability(
    const sim::StateVec& state_after_fast,
    std::span<const sim::InputVec> propagation_frames) const {
  const std::size_t n_ff = fc_->dffs().size();
  GDF_ASSERT(state_after_fast.size() == n_ff, "state size mismatch");
  std::vector<bool> observable(n_ff, false);

  // Only flip-flops with a definite captured value can carry a single-bit
  // good/faulty difference.
  std::vector<std::size_t> flippable;
  flippable.reserve(n_ff);
  for (std::size_t k = 0; k < n_ff; ++k) {
    if (sim::is_binary(state_after_fast[k])) {
      flippable.push_back(k);
    }
  }
  if (flippable.empty() || propagation_frames.empty()) {
    return observable;
  }

  // Every lane applies the same PIs: broadcast each frame once for all
  // passes.
  const std::size_t n_pi = fc_->inputs().size();
  pi_words_.resize(propagation_frames.size());
  for (std::size_t f = 0; f < propagation_frames.size(); ++f) {
    GDF_ASSERT(propagation_frames[f].size() == n_pi, "PI size mismatch");
    pi_words_[f].resize(n_pi);
    for (std::size_t i = 0; i < n_pi; ++i) {
      pi_words_[f][i] = sim::w3_broadcast(propagation_frames[f][i]);
    }
  }
  // Lane 0 is the good machine, so 63 faulty machines run per pass.
  constexpr std::size_t kPerPass = 63;
  for (std::size_t begin = 0; begin < flippable.size(); begin += kPerPass) {
    const std::size_t count = std::min(kPerPass, flippable.size() - begin);
    run_pass(state_after_fast,
             std::span<const std::size_t>(flippable).subspan(begin, count),
             observable);
  }
  return observable;
}

void Fausim::run_pass(const sim::StateVec& state_after_fast,
                      std::span<const std::size_t> flipped,
                      std::vector<bool>& observable) const {
  GDF_ASSERT(flipped.size() < 64, "too many flips per pass");
  // Lane 0 replays the good machine; lane 1 + l flips one captured bit.
  state_.resize(state_after_fast.size());
  for (std::size_t i = 0; i < state_after_fast.size(); ++i) {
    state_[i] = sim::w3_broadcast(state_after_fast[i]);
  }
  for (std::size_t l = 0; l < flipped.size(); ++l) {
    const std::size_t ff = flipped[l];
    const Lv bad = state_after_fast[ff] == Lv::One ? Lv::Zero : Lv::One;
    sim::w3_set_lane(state_[ff], static_cast<unsigned>(l + 1), bad);
  }

  // Lanes of this pass whose difference has not reached a PO yet.
  std::uint64_t pending = ((std::uint64_t{1} << flipped.size()) - 1) << 1;
  for (const std::vector<sim::Word3>& pis : pi_words_) {
    packed_.eval_frame(pis, state_, lines_);
    lane_evals_ += static_cast<long>(fc_->body_count()) * 64;
    for (const net::GateId po : fc_->outputs()) {
      const sim::Word3& w = lines_[po];
      // A lane differs from the good machine when both are definite and
      // opposite: good 1 => the lane's zero rail, good 0 => its one rail.
      const bool good_one = (w.ones & 1u) != 0;
      const bool good_zero = (w.zeros & 1u) != 0;
      if (!good_one && !good_zero) {
        continue;
      }
      std::uint64_t hits = (good_one ? w.zeros : w.ones) & pending;
      pending &= ~hits;
      while (hits != 0) {
        const unsigned bit = static_cast<unsigned>(__builtin_ctzll(hits));
        hits &= hits - 1;
        observable[flipped[bit - 1]] = true;
      }
    }
    if (pending == 0) {
      break;  // every lane of this pass already observed
    }
    packed_.next_state(lines_, next_);
    state_.swap(next_);
  }
}

sim::KernelCounters Fausim::take_kernel_counters() {
  sim::KernelCounters out;
  out.scalar_evals = std::exchange(scalar_evals_, 0);
  out.lane_evals_64 = std::exchange(lane_evals_, 0);
  return out;
}

}  // namespace gdf::fausim
