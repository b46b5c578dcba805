// The benchmark's workloads and the seeded input generator of fsm_adi.
//
//  * catalog      — the Table-3 reproduction: every catalog circuit, paper
//                   configuration, one worker, no sharding.
//  * tail_sharded — s1196 + s1238, paper configuration, epoch-sharded over
//                   four workers: the abort-heavy tail, where the TDgen
//                   search and the run/ epoch engine set the wall.
//  * fsm_adi      — one generated FSM-family circuit with 96 flip-flops,
//                   targeted in accidental-detection-index order under a
//                   deterministic work budget: the fault-simulation and
//                   SEMILET workload.
//
// The seed of every workload is the (first) X-fill seed. fsm_adi's circuit comes
// from one fixed generator seed: circuits from different generator seeds
// differ too much in aborted faults and run time for ten seeds to agree
// within the benchmark's bounds. The flow reads that circuit from the
// .bench file write_fsm_bench produced.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "circuits/profiles.hpp"
#include "core/options.hpp"
#include "run/fault_order.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  std::vector<std::string> catalog;  ///< catalog circuit names, or …
  std::string bench_path;            ///< … one .bench file from disk
  gdf::core::AtpgOptions options;
  gdf::run::FaultOrder order = gdf::run::FaultOrder::Static;
  /// Generation workers; more than one runs the epoch-sharded engine.
  unsigned workers = 1;
  /// X-fill seeds a measured run covers: pass k runs with fill seed
  /// options.fill_seed + k % fill_seeds. The fault counts are averaged
  /// over these seeds, which damps how much a single seed's lucky or
  /// unlucky fill moves them.
  unsigned fill_seeds = 1;
};

/// The workload `name` under `seed`; fsm_adi needs `bench_path` (the file
/// written by write_fsm_bench). Throws gdf::Error for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       const std::string& bench_path);

/// Generator seed of fsm_adi's circuit.
constexpr std::uint64_t kFsmCircuitSeed = 1;

/// The FSM-family profile generated from `seed`: 16 PI, 24 PO, 96 FF,
/// about 1200 gates.
gdf::circuits::BenchmarkProfile fsm_profile(std::uint64_t seed);

/// Generates the profile's circuit, serializes it as .bench, checks that
/// the text parses back to the same interface and gate counts and passes
/// validation, and writes it to `path`. Throws gdf::Error on any failure.
void write_fsm_bench(const gdf::circuits::BenchmarkProfile& profile,
                     const std::string& path);

}  // namespace perfbench
