// Synchronization — the initialization half of FOGBUSTER (paper §4).
//
// Finds an input sequence that drives the machine from the completely
// unknown power-up state into one satisfying the required state bits (the
// S0 that TDgen's initial frame needs), in two steps:
//  1. Forward: the circuit's synchronizing-prefix library
//     (sim/sync_library) — seeded random binary sequences simulated
//     three-valued from all-X — supplies the shortest prefix that sets
//     every required bit. A hit spends no backtracks.
//  2. Reverse time processing, only on a miss: the requirements are
//     justified in a frame whose entering state is all-X; requirements that
//     fall back on state bits recurse into an earlier frame, until a frame
//     needs no state support at all.
// Both steps work against an all-X state, so the resulting sequence
// initializes the required bits from *any* power-up state — a true
// synchronizing sequence under three-valued logic.
#pragma once

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "semilet/frame_podem.hpp"
#include "semilet/options.hpp"
#include "semilet/propagate.hpp"
#include "sim/seq_sim.hpp"

namespace gdf::semilet {

struct SyncResult {
  /// Chronological PI vectors; applying them from any state establishes
  /// the requirements at the sequence's end.
  std::vector<sim::InputVec> frames;
};

class Synchronizer {
 public:
  Synchronizer(const net::Netlist& nl, Budget& budget);

  /// Shares an already-built flat circuit form (see sim/flat_circuit).
  Synchronizer(std::shared_ptr<const sim::FlatCircuit> fc, Budget& budget);

  /// Requirements: flip-flop index -> value that must hold in the state
  /// *after* the returned sequence. An empty requirement list succeeds
  /// with an empty sequence. Both steps cap the sequence at the budget's
  /// max_sync_frames.
  SeqStatus synchronize(
      std::vector<std::pair<std::size_t, sim::Lv>> requirements,
      SyncResult* out);

 private:
  struct Layer {
    std::unique_ptr<FramePodem> podem;
    FrameSolution sol;
    std::vector<std::pair<std::size_t, sim::Lv>> requirements;
  };

  bool push_layer(std::vector<std::pair<std::size_t, sim::Lv>> requirements);

  const net::Netlist* nl_;
  sim::SeqSimulator sim_;
  Budget* budget_;
  std::vector<Layer> layers_;
  std::set<std::string> seen_;
};

}  // namespace gdf::semilet
