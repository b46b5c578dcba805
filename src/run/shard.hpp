// Intra-circuit fault sharding (--shard-faults) through an in-order
// sliding window.
//
// The paper's flow is inherently sequential: faults are targeted one by
// one, and after every success the generated sequence is fault-simulated
// so accidentally detected faults are dropped — which faults get targeted
// at all therefore depends on every earlier dropping decision, and the
// X-fill RNG stream threads through the dropping passes in order.
//
// run_sharded parallelizes the expensive half (test generation) while
// committing the order-sensitive half (dropping) sequentially, like a
// reorder buffer:
//
//   1. Window. Up to W still-untested faults, taken in targeting order,
//      are in flight at once. Generation for one fault reads only the
//      immutable CircuitContext + options, so the window's faults
//      generate concurrently on the shared run/ThreadPool (one fork-join
//      group; the committing thread helps with the oldest queued ones).
//   2. In-order commit. As soon as the oldest fault in the window has
//      finished, it is committed on the calling thread: skipped when an
//      earlier commit's test already dropped it, otherwise its
//      precomputed verdict is adopted and an accepted test runs the
//      batched FAUSIM/TDsim dropping pass — in canonical order, on one
//      thread, consuming the X-fill stream exactly like the sequential
//      run. The next still-untested faults are then submitted behind the
//      window, so a slow fault holds up the commits behind it but not
//      the workers, until the window is full.
//
// Dropping can only *remove* later targets, never add them, so the
// sequential run's targets are always a subset of the submitted ones —
// the commits reproduce the sequential run's dropping decisions, pattern
// sets, stage counters and CSV row byte-for-byte, for any worker count
// and any window size. The only cost is wasted speculative generation for
// faults an earlier commit drops while they are in the window (bounded by
// the window size; untestable and aborted verdicts are never wasted —
// those faults are never dropped). The determinism ctests assert the
// equality end to end.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <string_view>

#include "core/fogbuster.hpp"
#include "run/thread_pool.hpp"

namespace gdf::run {

/// When and how wide a single ATPG run shards its fault list.
struct ShardConfig {
  enum class Policy : std::uint8_t {
    Off,     ///< sequential per-cell runs (the pre-sharding behavior)
    Auto,    ///< shard large circuits when the pool has spare workers
    Forced,  ///< always shard, with `workers` generation slices
  };

  Policy policy = Policy::Off;
  /// Generation parallelism for Forced (Auto derives it from the pool).
  unsigned workers = 0;
  /// Auto only shards circuits with at least this many faults — below
  /// it the window's per-fault hand-offs and wasted speculation cost more
  /// than the parallelism returns.
  std::size_t min_faults = 1500;

  bool operator==(const ShardConfig&) const = default;
};

/// Parses a --shard-faults value: "off" | "auto" | a worker count in
/// [1, ThreadPool::kMaxThreads]. Throws gdf::Error otherwise.
ShardConfig parse_shard_faults(std::string_view text);

/// Generation parallelism the config yields for a run with `fault_count`
/// faults on `pool`: 0 = do not shard (run sequentially).
unsigned shard_workers(const ShardConfig& config, const ThreadPool& pool,
                       std::size_t fault_count);

/// Faults in flight in the sliding window: max(4 x workers, 16).
/// perfbench calls it by this name; the ShardConfig parameter is ignored.
std::size_t shard_epoch_size(
    // kept for perfbench; drop at the next benchmark change
    const ShardConfig&, unsigned workers);

/// One complete ATPG run with sharded generation, byte-identical to
/// flow.run(target_order). At most `window_size` (at least 1) uncommitted
/// faults are in flight at once.
core::FogbusterResult run_sharded(core::Fogbuster& flow,
                                  std::span<const std::size_t> target_order,
                                  ThreadPool& pool, std::size_t window_size);

}  // namespace gdf::run
