#include "run/shard.hpp"

#include <algorithm>
#include <charconv>
#include <exception>
#include <vector>

#include "base/error.hpp"
#include "base/timer.hpp"

namespace gdf::run {

ShardConfig parse_shard_faults(std::string_view text) {
  ShardConfig config;
  if (text == "off") {
    config.policy = ShardConfig::Policy::Off;
    return config;
  }
  if (text == "auto") {
    config.policy = ShardConfig::Policy::Auto;
    return config;
  }
  unsigned workers = 0;
  const char* first = text.data();
  const char* last = first + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, workers);
  check(ec == std::errc() && ptr == last && workers > 0,
        "--shard-faults expects 'auto', 'off', or a positive worker "
        "count, got '" + std::string(text) + "'");
  check(workers <= ThreadPool::kMaxThreads,
        "--shard-faults worker count out of range (at most " +
            std::to_string(ThreadPool::kMaxThreads) + "): " +
            std::string(text));
  config.policy = ShardConfig::Policy::Forced;
  config.workers = workers;
  return config;
}

std::string shard_faults_name(const ShardConfig& config) {
  switch (config.policy) {
    case ShardConfig::Policy::Off:
      return "off";
    case ShardConfig::Policy::Auto:
      return "auto";
    case ShardConfig::Policy::Forced:
      return std::to_string(config.workers);
  }
  return "off";
}

unsigned shard_workers(const ShardConfig& config, const ThreadPool& pool,
                       std::size_t fault_count) {
  switch (config.policy) {
    case ShardConfig::Policy::Off:
      return 0;
    case ShardConfig::Policy::Forced:
      // A forced width of 1 degenerates to the sequential loop plus the
      // epoch/barrier machinery — same bytes, pure overhead. Run the
      // plain loop instead.
      if (config.workers <= 1) {
        return 0;
      }
      return config.workers;
    case ShardConfig::Policy::Auto:
      // Small circuits pay more in barriers than they gain; a one-thread
      // pool gains nothing at all.
      if (fault_count < config.min_faults || pool.thread_count() <= 1) {
        return 0;
      }
      return pool.thread_count();
  }
  return 0;
}

std::size_t shard_epoch_size(const ShardConfig&, unsigned workers) {
  // A few generation slices per worker amortize the barrier without
  // over-speculating past the next dropping passes.
  return std::max<std::size_t>(std::size_t{4} * workers, 16);
}

core::FogbusterResult run_sharded(core::Fogbuster& flow,
                                  std::span<const std::size_t> target_order,
                                  ThreadPool& pool, std::size_t epoch_size) {
  using core::FaultStatus;
  check(epoch_size > 0, "run_sharded: epoch size must be at least 1");

  const Stopwatch watch;
  core::FogbusterResult result = flow.make_empty_result();
  const std::size_t n = result.faults.size();
  check(target_order.empty() || target_order.size() == n,
        "run_sharded: target order size does not match the fault list");
  flow.reset_run_state();

  /// One epoch entry: a speculatively generated verdict for fault
  /// `index`, merged (or discarded, when an epoch-mate's test dropped the
  /// fault first) at the barrier.
  struct Slice {
    std::size_t index = 0;
    FaultStatus status = FaultStatus::Untested;
    core::TestSequence sequence;
    core::StageStats stages;
    std::exception_ptr error;
  };

  std::vector<Slice> epoch;
  epoch.reserve(epoch_size);
  std::size_t pos = 0;  // targeting positions < pos are fully classified
  while (pos < n) {
    // Between epochs is the natural cancellation point: the barrier has
    // merged everything generated so far, so unwinding here loses no
    // completed work. (Mid-epoch, the searches themselves poll the token
    // and throw; the merge below rethrows the first such slice.)
    if (pool.cancel_requested()) {
      throw_cancelled();
    }
    // Select the next still-untested faults in targeting order.
    epoch.clear();
    while (pos < n && epoch.size() < epoch_size) {
      const std::size_t i = target_order.empty() ? pos : target_order[pos];
      ++pos;
      if (result.status[i] != FaultStatus::Untested) {
        continue;
      }
      epoch.emplace_back().index = i;
    }
    if (epoch.empty()) {
      break;
    }

    // Fan the epoch's generations out; the pool's workers and this thread
    // (helping inside wait) each run slices against the shared immutable
    // context. Exceptions are parked per slice — a throwing task would
    // wedge the group accounting.
    ThreadPool::Group group;
    for (Slice& slice : epoch) {
      pool.submit(group, [&flow, &slice] {
        try {
          slice.status = flow.generate_for_fault(
              flow.context()->faults()[slice.index], &slice.sequence,
              &slice.stages);
        } catch (...) {
          slice.error = std::current_exception();
        }
      });
    }
    pool.wait(group);

    // Barrier merge, in targeting order: exactly the sequential loop,
    // with the generation verdicts precomputed (merge_targeted is the
    // code path Fogbuster::run itself steps through). Faults dropped by
    // an earlier epoch-mate's test are skipped — their speculative work
    // is the sharding's only waste.
    for (Slice& slice : epoch) {
      if (result.status[slice.index] != FaultStatus::Untested) {
        continue;
      }
      if (slice.error) {
        std::rethrow_exception(slice.error);
      }
      flow.merge_targeted(slice.index, false, slice.status, slice.sequence,
                          slice.stages, &result);
    }
  }
  result.seconds = watch.seconds();
  return result;
}

}  // namespace gdf::run
