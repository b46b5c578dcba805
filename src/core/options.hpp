// Configuration of the combined TDgen + SEMILET flow.
#pragma once

#include <cstdint>

#include "algebra/tables.hpp"
#include "base/cancel.hpp"
#include "semilet/options.hpp"
#include "sim/lanes.hpp"
#include "tdgen/fault.hpp"
#include "tdgen/tdgen.hpp"

namespace gdf::core {

/// The two-frame search's conflict-driven mode (--learn). On (the
/// default) backjumps on the decision levels each conflict's analysis
/// names and orders decisions by the activities it bumps; nothing is
/// carried from one search to the next, so each per-fault search stays a
/// pure function of (context, fault, options).
enum class LearnMode : std::uint8_t { Off, On };

struct AtpgOptions {
  /// Robust (paper) or non-robust (§7 outlook / ablation) algebra.
  alg::Mode mode = alg::Mode::Robust;

  /// Local (two-frame) search limits; the paper aborts after 100 local
  /// backtracks.
  tdgen::TdgenOptions local;

  /// Sequential limits shared by propagation, justification and
  /// synchronization; the paper aborts after 100 sequential backtracks.
  semilet::SemiletOptions sequential;

  /// Which lines carry faults (paper: every gate output and every fanout
  /// branch). Branch faults need the fanout branches made explicit, so
  /// the context expands them exactly when `include_branches` is set.
  tdgen::FaultListOptions fault_sites;

  /// Fault-simulate after each successful generation and drop the
  /// additionally detected faults (paper §5/§6).
  bool fault_dropping = true;

  // kept for perfbench; drop at the next benchmark change
  sim::LaneSpec lanes;

  /// Conflict-driven mode for the two-frame search. Off reproduces the
  /// chronological search byte-for-byte (no conflict analysis, static
  /// decision order); On is documented on LearnMode.
  LearnMode learn = LearnMode::On;

  // kept for perfbench; drop at the next benchmark change
  int learned_limit = 512;  ///< read by nothing

  /// Seed for the random X-fill performed before fault simulation.
  std::uint64_t fill_seed = 1995;

  /// Deterministic per-fault work budget (--fault-budget, 0 = none),
  /// counted in implication-engine assignments and shared by the local
  /// search and its re-entries (see tdgen::WorkBudget). The abort point is
  /// a pure function of the fault, so rows stay byte-identical across
  /// --jobs and --shard-faults. Exceeding it counts toward the aborted
  /// column (StageStats::aborted_budget attributes it).
  long fault_budget = 0;

  /// Cooperative cancellation (not a configuration knob): when wired, the
  /// flow and its searches poll the token and unwind with an Error of
  /// kind Cancelled. Never part of compatibility keys.
  const CancelToken* cancel = nullptr;
};

}  // namespace gdf::core
