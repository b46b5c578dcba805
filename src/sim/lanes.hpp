// Fault-simulation kernel counters, plus the inert lane-width names the
// benchmark still compiles against. FAUSIM phase 2 runs one 64-lane
// dual-rail kernel (sim/parallel3) and TDsim replays one fault at a time;
// nothing selects a width.
#pragma once

namespace gdf::sim {

// kept for perfbench; drop at the next benchmark change
struct LaneSpec {};

// kept for perfbench; drop at the next benchmark change
inline unsigned resolve_lane_count(LaneSpec) { return 64; }

// kept for perfbench; drop at the next benchmark change
inline unsigned packed_stem_lanes(unsigned lanes) { return lanes / 8; }

/// Gate-evaluation counters of the fault simulator (--stages prints
/// them). The scalar bucket counts plain five-valued body evaluations;
/// lane_evals_64 counts bodies * 64 lanes of the dual-rail kernel.
struct KernelCounters {
  long scalar_evals = 0;    ///< phase-1 scalar good-machine kernel
  long lane_evals_64 = 0;   ///< phase-2 64-lane kernel
  // kept for perfbench; drop at the next benchmark change
  long lane_evals_256 = 0;
  // kept for perfbench; drop at the next benchmark change
  long lane_evals_512 = 0;

  void add(const KernelCounters& other) {
    scalar_evals += other.scalar_evals;
    lane_evals_64 += other.lane_evals_64;
  }
};

}  // namespace gdf::sim
