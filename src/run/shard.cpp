#include "run/shard.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <deque>
#include <exception>

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
      // window machinery — same bytes, pure overhead. Run the plain loop
      // instead.
      if (config.workers <= 1) {
        return 0;
      }
      return config.workers;
    case ShardConfig::Policy::Auto:
      // Small circuits pay more in hand-offs than they gain; a one-thread
      // pool gains nothing at all.
      if (fault_count < config.min_faults || pool.thread_count() <= 1) {
        return 0;
      }
      return pool.thread_count();
  }
  return 0;
}

std::size_t shard_epoch_size(const ShardConfig&, unsigned workers) {
  // A few generation slices per worker keep every worker busy behind a
  // slow head without over-speculating past the next dropping passes.
  return std::max<std::size_t>(std::size_t{4} * workers, 16);
}

core::FogbusterResult run_sharded(core::Fogbuster& flow,
                                  std::span<const std::size_t> target_order,
                                  ThreadPool& pool, std::size_t window_size) {
  using core::FaultStatus;
  check(window_size > 0, "run_sharded: window size must be at least 1");

  const Stopwatch watch;
  core::FogbusterResult result = flow.make_empty_result();
  const std::size_t n = result.faults.size();
  check(target_order.empty() || target_order.size() == n,
        "run_sharded: target order size does not match the fault list");
  flow.reset_run_state();

  /// One window entry: a speculatively generated verdict for fault
  /// `index`, committed (or discarded, when an earlier commit's test
  /// dropped the fault first) once it is the oldest entry. `done` is the
  /// slice's last write; its release store publishes the rest.
  struct Slice {
    std::size_t index = 0;
    FaultStatus status = FaultStatus::Untested;
    core::TestSequence sequence;
    core::StageStats stages;
    std::exception_ptr error;
    std::atomic<bool> done{false};
  };

  // A deque, so entries never move while their tasks write into them.
  std::deque<Slice> window;
  ThreadPool::Group group;
  std::size_t pos = 0;  // next targeting position to submit
  // Tops the window up with the next still-untested faults in targeting
  // order. Exceptions are parked per slice — a throwing task would wedge
  // the group accounting.
  const auto fill_window = [&] {
    while (pos < n && window.size() < window_size) {
      const std::size_t i = target_order.empty() ? pos : target_order[pos];
      ++pos;
      if (result.status[i] != FaultStatus::Untested) {
        continue;
      }
      Slice& slice = window.emplace_back();
      slice.index = i;
      pool.submit(group, [&flow, &slice] {
        try {
          slice.status = flow.generate_for_fault(
              flow.context()->faults()[slice.index], &slice.sequence,
              &slice.stages);
        } catch (...) {
          slice.error = std::current_exception();
        }
        slice.done.store(true, std::memory_order_release);
      });
    }
  };

  std::exception_ptr failure;
  try {
    fill_window();
    while (!window.empty()) {
      // Between commits is the cancellation point: everything generated
      // for earlier targets is merged, so unwinding here loses no
      // completed work. (In flight, the searches themselves poll the
      // token and throw; the commit below rethrows such a slice.)
      if (pool.cancel_requested()) {
        throw_cancelled();
      }
      Slice& head = window.front();
      pool.wait(group,
                [&head] { return head.done.load(std::memory_order_acquire); });
      // In-order commit: exactly the sequential loop, with the generation
      // verdict precomputed (merge_targeted is the code path
      // Fogbuster::run itself steps through). A fault an earlier commit's
      // test dropped is skipped — its speculative work is the sharding's
      // only waste.
      if (result.status[head.index] == FaultStatus::Untested) {
        if (head.error) {
          std::rethrow_exception(head.error);
        }
        flow.merge_targeted(head.index, false, head.status, head.sequence,
                            head.stages, &result);
      }
      window.pop_front();
      fill_window();
    }
  } catch (...) {
    failure = std::current_exception();
  }
  // On every exit path, join the slices still in flight before `window`
  // and `group` go away: they write into the one and count against the
  // other (even after a slice's last write, its worker may still be
  // finishing the group accounting). The tasks park their exceptions, so
  // this join rethrows nothing.
  pool.wait(group);
  if (failure) {
    std::rethrow_exception(failure);
  }
  result.seconds = watch.seconds();
  return result;
}

}  // namespace gdf::run
