#include "sim/sync_library.hpp"

#include <algorithm>
#include <bit>

#include "base/error.hpp"
#include "base/rng.hpp"
#include "sim/flat_circuit.hpp"
#include "sim/parallel3.hpp"

namespace gdf::sim {

SyncLibrary::SyncLibrary(const FlatCircuit& fc)
    : pi_count_(fc.inputs().size()),
      ff_count_(fc.dffs().size()),
      inputs_(kFrames * pi_count_ * kWords),
      states_(kFrames * ff_count_ * 2 * kWords) {
  Rng rng(kSeed);
  std::vector<Word3> lines(fc.line_count());
  std::vector<Word3> state(ff_count_);
  for (std::size_t w = 0; w < kWords; ++w) {
    std::fill(state.begin(), state.end(), Word3{});  // all-X power-up
    for (std::size_t f = 0; f < kFrames; ++f) {
      for (std::size_t p = 0; p < pi_count_; ++p) {
        const std::uint64_t ones = rng.next();
        inputs_[input_word(f, p, w)] = ones;
        lines[fc.inputs()[p]] = {ones, ~ones};
      }
      for (std::size_t k = 0; k < ff_count_; ++k) {
        lines[fc.dffs()[k]] = state[k];
      }
      eval_flat(fc, Word3Ops{}, lines.data());
      for (std::size_t k = 0; k < ff_count_; ++k) {
        state[k] = lines[fc.dff_data()[k]];
        states_[state_word(f, k, false, w)] = state[k].zeros;
        states_[state_word(f, k, true, w)] = state[k].ones;
      }
    }
  }
}

bool SyncLibrary::find_prefix(
    std::span<const std::pair<std::size_t, Lv>> requirements,
    std::size_t max_frames, std::vector<std::vector<Lv>>* frames) const {
  for (const auto& [ff, v] : requirements) {
    GDF_ASSERT(ff < ff_count_ && is_binary(v), "bad sync requirement");
  }
  const std::size_t limit = std::min(kFrames, max_frames);
  for (std::size_t f = 0; f < limit; ++f) {
    std::uint64_t hits[kWords];
    std::fill(std::begin(hits), std::end(hits), ~std::uint64_t{0});
    for (const auto& [ff, v] : requirements) {
      const std::uint64_t* words = &states_[state_word(f, ff, v == Lv::One, 0)];
      for (std::size_t w = 0; w < kWords; ++w) {
        hits[w] &= words[w];
      }
    }
    for (std::size_t w = 0; w < kWords; ++w) {
      if (hits[w] == 0) {
        continue;
      }
      if (frames != nullptr) {
        const int lane = std::countr_zero(hits[w]);
        frames->assign(f + 1, std::vector<Lv>(pi_count_));
        for (std::size_t g = 0; g <= f; ++g) {
          for (std::size_t p = 0; p < pi_count_; ++p) {
            (*frames)[g][p] = (inputs_[input_word(g, p, w)] >> lane & 1) != 0
                                  ? Lv::One
                                  : Lv::Zero;
          }
        }
      }
      return true;
    }
  }
  return false;
}

}  // namespace gdf::sim
