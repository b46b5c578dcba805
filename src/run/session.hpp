// AtpgSession — one self-contained, thread-safe unit of ATPG work.
//
// A session owns every piece of mutable state a run needs (the Fogbuster
// flow with its TDgen searches, SEMILET engines, FAUSIM/TDsim simulators
// and the X-fill RNG) and shares only the immutable CircuitContext.
// Sessions built on one context never touch each other: run any number of
// them from different threads concurrently.
//
// run() is reentrant — the per-run state is reset on entry, so calling it
// twice on one session gives bit-identical results, equal to two fresh
// sessions (and to two fresh processes). Tests assert this.
#pragma once

#include <memory>
#include <vector>

#include "core/context.hpp"
#include "core/fogbuster.hpp"
#include "core/options.hpp"
#include "run/fault_order.hpp"
#include "run/shard.hpp"

namespace gdf::run {

class AtpgSession {
 public:
  /// Builds a session over a shared context. Throws gdf::Error when the
  /// context is structurally incompatible with `options`.
  AtpgSession(std::shared_ptr<const core::CircuitContext> context,
              core::AtpgOptions options = {},
              FaultOrder order = FaultOrder::Static);

  /// Convenience: builds a private context from the raw circuit.
  explicit AtpgSession(const net::Netlist& circuit,
                       core::AtpgOptions options = {},
                       FaultOrder order = FaultOrder::Static);

  const core::CircuitContext& context() const { return *ctx_; }
  const core::AtpgOptions& options() const { return options_; }
  FaultOrder fault_order() const { return order_; }

  /// One complete ATPG run. Reentrant and deterministic.
  core::FogbusterResult run();

  /// Like run(), but when `shard` applies (policy, circuit size, pool
  /// width — see shard_workers), generation is sharded across `pool`
  /// through run/shard's sliding window. Byte-identical to run() in every
  /// case; the calling thread helps with its own window's slices, so this
  /// is safe from inside pool tasks.
  core::FogbusterResult run(ThreadPool& pool, const ShardConfig& shard);

 private:
  std::shared_ptr<const core::CircuitContext> ctx_;
  core::AtpgOptions options_;
  FaultOrder order_;
  /// Targeting permutation, computed once on first run() (it is a pure
  /// function of context + options, so reuse is sound).
  std::vector<std::size_t> target_order_;
  bool order_ready_ = false;
  core::Fogbuster flow_;
};

}  // namespace gdf::run
