#include "run/session.hpp"

#include <utility>

namespace gdf::run {

AtpgSession::AtpgSession(std::shared_ptr<const core::CircuitContext> context,
                         core::AtpgOptions options, FaultOrder order)
    : ctx_(std::move(context)),
      options_(options),
      order_(order),
      flow_(ctx_, options) {}

AtpgSession::AtpgSession(const net::Netlist& circuit,
                         core::AtpgOptions options, FaultOrder order)
    : AtpgSession(core::CircuitContext::build(circuit, options), options,
                  order) {}

core::FogbusterResult AtpgSession::run() {
  if (!order_ready_) {
    target_order_ = make_fault_order(*ctx_, order_, options_);
    order_ready_ = true;
  }
  return flow_.run(target_order_);
}

core::FogbusterResult AtpgSession::run(ThreadPool& pool,
                                       const ShardConfig& shard) {
  if (!order_ready_) {
    target_order_ = make_fault_order(*ctx_, order_, options_);
    order_ready_ = true;
  }
  const unsigned workers =
      shard_workers(shard, pool, ctx_->faults().size());
  if (workers <= 1) {
    return flow_.run(target_order_);
  }
  return run_sharded(flow_, target_order_, pool,
                     shard_epoch_size(shard, workers));
}

}  // namespace gdf::run
