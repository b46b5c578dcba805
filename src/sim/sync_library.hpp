// Synchronizing-prefix library — the forward half of synchronization.
//
// A fixed set of seeded random binary input sequences, each simulated
// three-valued from the all-X power-up state on the 64-lane dual-rail
// kernel (sim/parallel3). For every (flip-flop, value) pair the library
// keeps one bit per (sequence, frame): set when the state after that many
// frames of that sequence holds the value. A requirement set is then
// established by the shortest prefix whose state words all agree, found by
// ANDing the bit words of the required pairs frame by frame. Three-valued
// simulation from all-X is conservative, so a prefix found here
// establishes its bits from any power-up state — the same synchronizing
// guarantee the reverse-time search gives.
//
// The sequences come from a fixed seed, so the library is a pure function
// of the circuit. FlatCircuit::sync_library() builds it once, on first
// use.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "sim/logic.hpp"

namespace gdf::sim {

class FlatCircuit;

class SyncLibrary {
 public:
  static constexpr std::size_t kSequences = 1024;
  static constexpr std::size_t kFrames = 40;
  static constexpr std::uint64_t kSeed = 0x5F3C0A17E2B94D61ULL;

  explicit SyncLibrary(const FlatCircuit& fc);

  /// Finds the shortest prefix of at most min(kFrames, max_frames) frames
  /// that, applied from the all-X state, establishes every (flip-flop
  /// index, binary value) requirement; ties go to the lowest sequence.
  /// Writes the prefix's PI vectors (binary, chronological) to `frames`
  /// when non-null. False when no prefix in the library covers them.
  bool find_prefix(
      std::span<const std::pair<std::size_t, Lv>> requirements,
      std::size_t max_frames, std::vector<std::vector<Lv>>* frames) const;

 private:
  static constexpr std::size_t kWords = kSequences / 64;

  std::size_t input_word(std::size_t frame, std::size_t pi,
                         std::size_t w) const {
    return (frame * pi_count_ + pi) * kWords + w;
  }
  std::size_t state_word(std::size_t frame, std::size_t ff, bool one,
                         std::size_t w) const {
    return ((frame * ff_count_ + ff) * 2 + (one ? 1 : 0)) * kWords + w;
  }

  std::size_t pi_count_;
  std::size_t ff_count_;
  /// Bit s of input_word(f, p, w): sequence 64*w + s drives PI p to 1 in
  /// frame f.
  std::vector<std::uint64_t> inputs_;
  /// Bit s of state_word(f, k, v, w): after frames 0..f of sequence
  /// 64*w + s, flip-flop k holds v.
  std::vector<std::uint64_t> states_;
};

}  // namespace gdf::sim
