#include "run/fault_order.hpp"

#include <algorithm>
#include <numeric>

#include "base/error.hpp"
#include "base/rng.hpp"
#include "core/fogbuster.hpp"
#include "fausim/fausim.hpp"
#include "tdsim/tdsim.hpp"

namespace gdf::run {

namespace {

// Accidental-detection sampling: kAdiSequences random sequences of
// kAdiFrames frames each. Sequences are short enough that a pass costs
// about as much as one fault-dropping round of the real flow, and few
// enough that the whole ordering pass stays a small fraction of
// generation time (2, 8 and 16 sequences measured the same coverage on
// s298+s386).
constexpr std::size_t kAdiFrames = 6;
constexpr int kAdiSequences = 8;

std::vector<std::size_t> identity_order(std::size_t n) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  return order;
}

/// Counts, over a fixed budget of random binary sequences, how many
/// (sequence, fast-frame position) pairs detect each fault.
std::vector<long> accidental_detection_counts(
    const core::CircuitContext& ctx, const core::AtpgOptions& options) {
  const net::Netlist& nl = ctx.netlist();
  const alg::DelayAlgebra& algebra = ctx.algebra(options.mode);
  fausim::Fausim fausim(ctx.flat());
  const tdsim::Tdsim tdsim(ctx.model(), algebra);
  // Decorrelated from the X-fill stream of the actual runs, but still a
  // pure function of the user's seed.
  Rng rng(options.fill_seed ^ 0xAD1AD1AD1AD1AD1AULL);

  std::vector<long> counts(ctx.faults().size(), 0);
  for (int s = 0; s < kAdiSequences; ++s) {
    std::vector<sim::InputVec> frames(
        kAdiFrames, sim::InputVec(nl.inputs().size(), sim::Lv::X));
    // simulate_good fills every X bit from the RNG, so all-X frames become
    // one uniformly random binary sequence.
    const fausim::Fausim::GoodTrace trace = fausim.simulate_good(frames, rng);
    // Every interior frame can serve as the fast frame, with the remaining
    // frames as the propagation phase.
    for (std::size_t fast = 1; fast + 1 < kAdiFrames; ++fast) {
      const tdsim::TdsimRequest request =
          core::make_tdsim_request(nl, fausim, trace, fast, {});
      const std::vector<bool> detected =
          tdsim.detect_cpt(request, ctx.faults());
      for (std::size_t j = 0; j < detected.size(); ++j) {
        counts[j] += detected[j] ? 1 : 0;
      }
    }
  }
  return counts;
}

}  // namespace

std::string_view fault_order_name(FaultOrder order) {
  switch (order) {
    case FaultOrder::Static:
      return "static";
    case FaultOrder::Random:
      return "random";
    case FaultOrder::Adi:
      return "adi";
  }
  return "?";
}

FaultOrder parse_fault_order(std::string_view text) {
  if (text == "static") {
    return FaultOrder::Static;
  }
  if (text == "random") {
    return FaultOrder::Random;
  }
  if (text == "adi") {
    return FaultOrder::Adi;
  }
  throw Error("--fault-order expects 'static', 'random' or 'adi', got '" +
              std::string(text) + "'");
}

std::vector<std::size_t> make_fault_order(const core::CircuitContext& ctx,
                                          FaultOrder order,
                                          const core::AtpgOptions& options) {
  std::vector<std::size_t> result = identity_order(ctx.faults().size());
  switch (order) {
    case FaultOrder::Static:
      break;
    case FaultOrder::Random: {
      Rng rng(options.fill_seed ^ 0x5EEDFACE5EEDFACEULL);
      for (std::size_t i = result.size(); i > 1; --i) {
        std::swap(result[i - 1], result[rng.next_below(i)]);
      }
      break;
    }
    case FaultOrder::Adi: {
      const std::vector<long> counts =
          accidental_detection_counts(ctx, options);
      // Rarely accidentally detected (hard) faults first; stable so equal
      // counts keep the canonical order and the result is deterministic.
      std::stable_sort(result.begin(), result.end(),
                       [&](std::size_t a, std::size_t b) {
                         return counts[a] < counts[b];
                       });
      break;
    }
  }
  return result;
}

}  // namespace gdf::run
