// What the benchmark runs: set-up, the ATPG flow over a workload's
// circuits, the replays of the public engines beside the flow, and the
// correctness gate.
//
// Everything goes through the library's public calls. Spans are recorded
// here, around those calls, never inside the library:
//
//   setup   → circuits.load, core.context_build, algebra.tables
//   flow    → run.order, then run.sharded (sharded workloads) or
//             core.generate + core.merge per targeted fault
//   replays → tdgen.local, semilet.sync, verify, fausim.good,
//             fausim.observability, tdsim.cpt
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/context.hpp"
#include "core/fogbuster.hpp"
#include "run/thread_pool.hpp"
#include "sim/lanes.hpp"
#include "tdgen/tdgen.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

struct Circuit {
  std::string label;
  std::shared_ptr<const gdf::core::CircuitContext> ctx;
};

/// Loads and validates every circuit of the workload, builds its context
/// and acquires the algebra tables. The tables are a process-wide cache,
/// so each call also builds a fresh robust table set: set-up time then
/// includes the table build on every repetition, as on a cold process.
std::vector<Circuit> set_up(const Workload& workload, Tracer* tracer);

/// One targeted fault of a per-fault traced pass, in targeting order.
struct Target {
  std::size_t fault = 0;  ///< canonical fault index
  gdf::core::FaultStatus status = gdf::core::FaultStatus::Untested;
  /// Faults the dropping pass of this fault's test marked Tested.
  std::vector<std::size_t> dropped;
};

struct CircuitOutcome {
  gdf::core::FogbusterResult result;
  std::vector<Target> targets;  ///< per-fault traced passes only
  std::string error;            ///< nonempty: the run threw
};

struct PassResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< user + system, all threads of the process
  std::vector<CircuitOutcome> circuits;
};

/// Runs the flow over every circuit: the fault order, then the whole run.
/// With a pool the run is epoch-sharded (run::run_sharded); otherwise,
/// untraced, it is Fogbuster::run; otherwise, traced, it is the same
/// sequential composition stepped by hand (generate_for_fault, then
/// merge_targeted) so each targeted fault gets its own spans and Target.
/// `after_circuit`, when given, runs after each circuit, outside the
/// pass's wall and CPU time.
PassResult run_pass(const Workload& workload,
                    const std::vector<Circuit>& circuits,
                    gdf::run::ThreadPool* pool, Tracer* tracer,
                    const std::function<void()>& after_circuit = {});

/// The correctness gate's tally. An operation is a targeted fault; it
/// fails when its circuit's run threw or its Tested sequence fails
/// verify_sequence. Any other broken invariant is a problem.
struct Checks {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> problems;

  void problem(std::string text) { problems.push_back(std::move(text)); }
  bool correct() const { return failed == 0 && problems.empty(); }
};

/// Verifies every Tested sequence of the pass and checks that every fault
/// is classified; counts attempted and failed operations.
void check_pass(const Workload& workload,
                const std::vector<Circuit>& circuits, const PassResult& pass,
                Checks* checks);

/// FNV-1a over every circuit's verdicts, pattern count and test count —
/// equal digests mean equal Table-3 rows and equal per-fault verdicts.
std::uint64_t verdict_digest(const PassResult& pass);

long tested_faults(const PassResult& pass);
long aborted_faults(const PassResult& pass);

/// Sums of the flow's stage counters over every circuit of a pass.
gdf::core::StageStats stage_totals(const PassResult& pass);

/// Replays TdgenSearch::next once per targeted fault of a per-fault traced
/// pass, with the flow's local options and a fresh work budget per fault
/// (span tdgen.local). Returns the replay's own search counters.
gdf::tdgen::SearchCounters replay_tdgen(const Workload& workload,
                                        const std::vector<Circuit>& circuits,
                                        const PassResult& pass,
                                        Tracer* tracer);

/// Replays Synchronizer::synchronize on each test's required_s0 (span
/// semilet.sync); a replay that does not reproduce the test's
/// synchronizing frames is a problem.
void replay_sync(const Workload& workload,
                 const std::vector<Circuit>& circuits, const PassResult& pass,
                 Tracer* tracer, Checks* checks);

/// Replays verify_sequence on every test (span verify); returns the number
/// of tests that failed.
long replay_verify(const Workload& workload,
                   const std::vector<Circuit>& circuits,
                   const PassResult& pass, Tracer* tracer);

struct DropReplay {
  long faults_simulated = 0;  ///< fault × test pairs handed to detect_cpt
  gdf::sim::KernelCounters kernels;
};

/// Replays the fault-dropping pass of a per-fault traced pass: the same
/// fill seed, Fausim::simulate_good (span fausim.good), make_tdsim_request
/// (span fausim.observability) and Tdsim::detect_cpt over the same
/// untested set (span tdsim.cpt). Any fault dropped differently from
/// merge_targeted, or any difference in final verdicts or kernel
/// counters, is a problem.
DropReplay replay_dropping(const Workload& workload,
                           const std::vector<Circuit>& circuits,
                           const PassResult& pass, Tracer* tracer,
                           Checks* checks);

/// Run ids of a traced run's spans: the traced flow and everything
/// replayed beside it (set-up repetitions use their own ids).
constexpr int kFlowRun = 1;
constexpr int kReplayRun = 2;

/// Everything a traced run produces besides its spans.
struct TracedRun {
  PassResult reference;   ///< the flow, untraced
  PassResult flow;        ///< the same flow, traced (run kFlowRun)
  PassResult sequential;  ///< per-fault traced pass of a sharded workload
  gdf::tdgen::SearchCounters replayed;  ///< the TDgen replay's counters
  long verify_failures = 0;
  DropReplay drops;

  /// The pass with a per-fault record: the traced flow itself, or the
  /// sequential pass when the flow was sharded.
  const PassResult& per_fault() const {
    return sequential.circuits.empty() ? flow : sequential;
  }
};

/// Runs the flow untraced, then traced inside a "flow" span, then — outside
/// that span — a sequential per-fault pass when the flow was sharded, and
/// every replay. Checks each pass and that all of them reach the same
/// verdicts.
TracedRun run_traced(const Workload& workload,
                     const std::vector<Circuit>& circuits,
                     gdf::run::ThreadPool* pool, Tracer* tracer,
                     Checks* checks);

/// User + system CPU seconds of the whole process so far.
double process_cpu_seconds();

/// Peak resident set of the process so far, in MiB.
double peak_rss_mb();

}  // namespace perfbench
