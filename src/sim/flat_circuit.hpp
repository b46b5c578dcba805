// Flattened structure-of-arrays form of a netlist's combinational block —
// the one levelized core every simulation engine instantiates.
//
// The per-gate walk over net::Netlist (pointer-chasing through Gate::fanin
// vectors) is replaced by four contiguous arrays: the combinational bodies
// in levelized topological order, their gate types, and one shared fanin
// index pool addressed by offsets. Built once per netlist and shared (via
// shared_ptr) between the scalar five-valued engine, the 64-lane dual-rail
// engine, and every SEMILET search that owns a simulator.
#pragma once

#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"

namespace gdf::sim {

class SyncLibrary;

class FlatCircuit {
 public:
  explicit FlatCircuit(const net::Netlist& nl);
  ~FlatCircuit();

  const net::Netlist& netlist() const { return *nl_; }

  /// Number of lines (== Netlist::size()); engines size their value arrays
  /// by this.
  std::size_t line_count() const { return line_count_; }

  /// Combinational bodies (every gate except Input/Dff sources) in
  /// levelized order. Parallel arrays of body_count() entries.
  std::size_t body_count() const { return out_.size(); }
  std::span<const net::GateId> body_out() const { return out_; }
  std::span<const net::GateType> body_type() const { return type_; }
  /// body_count()+1 offsets into fanin_pool().
  std::span<const std::uint32_t> fanin_begin() const { return fanin_begin_; }
  std::span<const net::GateId> fanin_pool() const { return fanin_; }

  /// Boundary lines, mirroring the netlist's index spaces.
  std::span<const net::GateId> inputs() const { return inputs_; }
  std::span<const net::GateId> dffs() const { return dffs_; }
  /// Driver of each flip-flop's data pin (the PPO line), dffs() order —
  /// the next-state taps.
  std::span<const net::GateId> dff_data() const { return dff_data_; }
  std::span<const net::GateId> outputs() const { return outputs_; }

  // Derived structure the searches over this circuit keep re-deriving —
  // computed once here so every FramePodem shares them.
  /// Combinational depth per line (levelize()'s level array).
  std::span<const int> level() const { return level_; }
  /// Minimum gate distance to a PO or DFF data pin per line.
  std::span<const int> obs_distance() const { return obs_distance_; }
  /// Whether a line transitively depends on some primary input.
  bool pi_reachable(net::GateId id) const { return pi_reachable_[id] != 0; }

  /// No body drives the line (it is an Input or Dff boundary).
  static constexpr std::uint32_t kNoBody = 0xFFFFFFFFu;
  /// Index of the body computing `line`, or kNoBody for boundaries.
  std::uint32_t body_index(net::GateId line) const { return body_of_[line]; }
  /// Bodies reading `line`, as body indices (CSR) — the fanout walk of the
  /// incremental frame resettle. Body indices are levelized, so they serve
  /// directly as the topological order of a dirty worklist.
  std::span<const std::uint32_t> readers(net::GateId line) const {
    return std::span<const std::uint32_t>(
        reader_pool_.data() + reader_begin_[line],
        reader_begin_[line + 1] - reader_begin_[line]);
  }

  /// The circuit's synchronizing-prefix library (sim/sync_library). Built
  /// on the first call, under a once_flag so concurrent first callers
  /// share one build; never built by the constructor, so circuits that
  /// are never synchronized never pay for it.
  const SyncLibrary& sync_library() const;

  /// Builds a shareable flat form; the canonical way engines obtain one
  /// when handed a bare netlist.
  static std::shared_ptr<const FlatCircuit> build(const net::Netlist& nl);

 private:
  const net::Netlist* nl_;
  std::size_t line_count_ = 0;
  std::vector<net::GateId> out_;
  std::vector<net::GateType> type_;
  std::vector<std::uint32_t> fanin_begin_;
  std::vector<net::GateId> fanin_;
  std::vector<net::GateId> inputs_;
  std::vector<net::GateId> dffs_;
  std::vector<net::GateId> dff_data_;
  std::vector<net::GateId> outputs_;
  std::vector<int> level_;
  std::vector<int> obs_distance_;
  std::vector<std::uint8_t> pi_reachable_;
  std::vector<std::uint32_t> body_of_;
  std::vector<std::uint32_t> reader_begin_;
  std::vector<std::uint32_t> reader_pool_;
  mutable std::once_flag sync_once_;
  mutable std::unique_ptr<const SyncLibrary> sync_library_;
};

/// One body evaluation over already-settled input lines — the per-gate
/// step of eval_flat, exposed so the incremental resettle can replay
/// single bodies out of a dirty worklist.
template <class Ops>
inline typename Ops::Value eval_body(const FlatCircuit& fc, const Ops& ops,
                                     const typename Ops::Value* lines,
                                     std::size_t b) {
  using net::GateType;
  using V = typename Ops::Value;
  const net::GateType type = fc.body_type()[b];
  const std::uint32_t lo = fc.fanin_begin()[b];
  const std::uint32_t hi = fc.fanin_begin()[b + 1];
  const net::GateId* pool = fc.fanin_pool().data();
  V acc = lines[pool[lo]];
  switch (type) {
    case GateType::Buf:
      break;
    case GateType::Not:
      acc = ops.not_(acc);
      break;
    case GateType::And:
    case GateType::Nand:
      for (std::uint32_t i = lo + 1; i < hi; ++i) {
        acc = ops.and_(acc, lines[pool[i]]);
      }
      if (type == GateType::Nand) {
        acc = ops.not_(acc);
      }
      break;
    case GateType::Or:
    case GateType::Nor:
      for (std::uint32_t i = lo + 1; i < hi; ++i) {
        acc = ops.or_(acc, lines[pool[i]]);
      }
      if (type == GateType::Nor) {
        acc = ops.not_(acc);
      }
      break;
    case GateType::Xor:
    case GateType::Xnor:
      for (std::uint32_t i = lo + 1; i < hi; ++i) {
        acc = ops.xor_(acc, lines[pool[i]]);
      }
      if (type == GateType::Xnor) {
        acc = ops.not_(acc);
      }
      break;
    case GateType::Input:
    case GateType::Dff:
      break;  // never flattened into a body
  }
  return acc;
}

/// The shared levelized kernel loop. `Ops` supplies the value domain:
/// a `Value` type and `not_` / `and_` / `or_` / `xor_` members (scalar
/// five-valued tables or 64-lane dual-rail words). `lines` must hold
/// line_count() entries with the boundary (Input/Dff) values already set;
/// bodies are evaluated in levelized order. `post` is invoked after each
/// body's value is stored — the fault-injection hook.
template <class Ops, class Post>
inline void eval_flat(const FlatCircuit& fc, const Ops& ops,
                      typename Ops::Value* lines, Post&& post) {
  const net::GateId* outs = fc.body_out().data();
  const std::size_t n = fc.body_count();
  for (std::size_t b = 0; b < n; ++b) {
    lines[outs[b]] = eval_body(fc, ops, lines, b);
    post(outs[b], lines[outs[b]]);
  }
}

template <class Ops>
inline void eval_flat(const FlatCircuit& fc, const Ops& ops,
                      typename Ops::Value* lines) {
  eval_flat(fc, ops, lines, [](net::GateId, typename Ops::Value&) {});
}

}  // namespace gdf::sim
