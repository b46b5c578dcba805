// Epoch-based intra-circuit fault sharding (--shard-faults).
//
// The paper's flow is inherently sequential: faults are targeted one by
// one, and after every success the generated sequence is fault-simulated
// so accidentally detected faults are dropped — which faults get targeted
// at all therefore depends on every earlier dropping decision, and the
// X-fill RNG stream threads through the dropping passes in order.
//
// The epoch engine parallelizes the expensive half (test generation)
// while replaying the order-sensitive half (dropping) sequentially:
//
//   1. Select the next E still-untested faults in targeting order (an
//      epoch). Generation for one fault reads only the immutable
//      CircuitContext + options, so the epoch's faults generate
//      concurrently on the shared run/ThreadPool (fork-join group; the
//      orchestrating thread helps).
//   2. Barrier. Replay the epoch in targeting order: skip faults a
//      previous epoch-mate's test already dropped, adopt each remaining
//      fault's precomputed verdict, and push every accepted test through
//      the batched FAUSIM/TDsim dropping pass — in canonical order, on
//      one thread, consuming the X-fill stream exactly like the
//      sequential run.
//
// Dropping can only *remove* later targets, never add them, so the
// sequential run's targets are always a subset of the epochs' — the
// replay reproduces the sequential run's dropping decisions, pattern
// sets, stage counters and CSV row byte-for-byte, for any worker count
// and any epoch size. The only cost is wasted speculative generation for
// faults dropped by an epoch-mate (bounded by the epoch size; untestable
// and aborted verdicts are never wasted — those faults are never
// dropped). The determinism ctests assert the equality end to end.
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
  /// it the per-epoch barrier costs more than the parallelism returns.
  std::size_t min_faults = 1500;

  bool operator==(const ShardConfig&) const = default;
};

/// Parses a --shard-faults value: "off" | "auto" | a worker count in
/// [1, ThreadPool::kMaxThreads]. Throws gdf::Error otherwise.
ShardConfig parse_shard_faults(std::string_view text);
std::string shard_faults_name(const ShardConfig& config);

/// Generation parallelism the config yields for a run with `fault_count`
/// faults on `pool`: 0 = do not shard (run sequentially).
unsigned shard_workers(const ShardConfig& config, const ThreadPool& pool,
                       std::size_t fault_count);

/// Faults generated per epoch: max(4 x workers, 16). The ShardConfig
/// parameter is ignored.
std::size_t shard_epoch_size(
    // kept for perfbench; drop at the next benchmark change
    const ShardConfig&, unsigned workers);

/// One complete ATPG run with epoch-sharded generation, byte-identical
/// to flow.run(target_order). `epoch_size` must be at least 1.
core::FogbusterResult run_sharded(core::Fogbuster& flow,
                                  std::span<const std::size_t> target_order,
                                  ThreadPool& pool, std::size_t epoch_size);

}  // namespace gdf::run
