// The extended FOGBUSTER algorithm (paper Figure 4): the complete flow
// combining TDgen and SEMILET for robust gate delay fault test generation
// in non-scan synchronous sequential circuits.
//
// Per fault:
//   1. local test generation (TDgen, two frames, fault site to PO or PPO);
//   2. if the effect sits at a PPO: forward propagation to a PO (SEMILET);
//   3. propagation justification — reverse time, with requirements on the
//      fast-frame boundary handed back to TDgen as pinned PPOs (re-entry);
//   4. justification of the test frames and synchronization of the
//      required initial state from power-up: the shortest covering prefix
//      of the circuit's forward-simulated library (sim/sync_library),
//      else SEMILET's reverse-time search;
//   5. independent end-to-end verification; rejected candidates resume the
//      search (backtracking between the steps makes the approach
//      complete).
// After each success the sequence is fault-simulated (FAUSIM + TDsim) and
// every additionally detected fault is dropped from the target list.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "algebra/model.hpp"
#include "base/rng.hpp"
#include "core/context.hpp"
#include "core/options.hpp"
#include "core/test_sequence.hpp"
#include "fausim/fausim.hpp"
#include "netlist/netlist.hpp"
#include "semilet/options.hpp"
#include "sim/flat_circuit.hpp"
#include "tdgen/fault.hpp"
#include "tdgen/tdgen.hpp"
#include "tdsim/tdsim.hpp"

namespace gdf::core {

enum class FaultStatus : std::uint8_t {
  Untested,
  Tested,
  Untestable,
  Aborted,
};

/// Outcome counters per flow stage (regenerates the Figure 4 view).
struct StageStats {
  long targeted = 0;           ///< faults the generator worked on
  long local_solutions = 0;    ///< local tests produced by TDgen
  long po_observed = 0;        ///< local solutions observing at a PO
  long ppo_observed = 0;       ///< local solutions observing at a PPO only
  long prop_attempts = 0;      ///< forward propagation candidates
  long prop_failures = 0;      ///< propagation exhausted for a local test
  long reentries = 0;          ///< TDgen re-entries with pinned PPOs
  long reentry_failures = 0;
  long sync_attempts = 0;
  long sync_failures = 0;
  long verify_rejections = 0;  ///< candidates rejected by end-to-end check
  long dropped = 0;            ///< faults covered by fault simulation
  long aborted_local = 0;      ///< gave up in the local (TDgen) search
  /// gave up in propagation/justification/sync, or TDgen exhausted after
  /// the sequential stages rejected every local test it offered: the sum
  /// of the three causes below
  long aborted_sequential = 0;
  long aborted_propagation = 0;      ///< budget ran out in propagation
  long aborted_synchronization = 0;  ///< budget ran out synchronizing S0
  long aborted_exhausted = 0;        ///< TDgen exhausted after a local test
  long aborted_budget = 0;     ///< per-fault work budget exhausted

  // Search-core counters: the incremental engine's work, so speedups on
  // the TDgen hot path stay attributable (--stages prints them). One
  // shared struct with the searches, so new counters flow through every
  // merge site unchanged.
  tdgen::SearchCounters search;

  // Fault-simulation kernel counters (scalar phase 1 and the 64-lane
  // phase 2), so sweeps can tell where the fault-simulation work went
  // (--stages prints them).
  sim::KernelCounters sim;

  /// Accumulates another run's (or fault's) counters into this one.
  /// Addition is commutative, so merging per-fault slices in any order
  /// gives the totals of a sequential pass.
  void add(const StageStats& other);
};

struct FogbusterResult {
  std::vector<tdgen::DelayFault> faults;
  std::vector<FaultStatus> status;   ///< parallel to `faults`
  std::vector<TestSequence> tests;   ///< one per explicitly targeted success
  std::size_t pattern_count = 0;     ///< paper's #pat column
  double seconds = 0.0;              ///< paper's time column
  StageStats stages;

  int count(FaultStatus s) const;
  int tested() const { return count(FaultStatus::Tested); }
  int untestable() const { return count(FaultStatus::Untestable); }
  int aborted() const { return count(FaultStatus::Aborted); }
};

/// Builds the phase-3 TDsim request for the fast frame of a simulated good
/// trace: the two local frames as applied, plus FAUSIM's phase-2 PPO
/// observability over the remaining (propagation) frames. Shared by the
/// fault-dropping pass of the flow and by the accidental-detection-index
/// ordering pass in run/.
tdsim::TdsimRequest make_tdsim_request(const net::Netlist& nl,
                                       const fausim::Fausim& fausim,
                                       const fausim::Fausim::GoodTrace& trace,
                                       std::size_t fast_index,
                                       std::vector<std::size_t> needed_ppos);

class Fogbuster {
 public:
  /// Takes the raw circuit; fanout branches are expanded internally when
  /// options.expand_branches is set. Builds a private CircuitContext.
  Fogbuster(const net::Netlist& circuit, AtpgOptions options = {});

  /// Shares an already-built context (the reentrant form: any number of
  /// Fogbusters on one context, concurrently or in sequence). Throws
  /// gdf::Error when the context was built under different structural
  /// options (expand_branches / fault_sites).
  Fogbuster(std::shared_ptr<const CircuitContext> context,
            AtpgOptions options = {});

  /// The netlist faults refer to (expanded).
  const net::Netlist& working_netlist() const { return ctx_->netlist(); }
  const alg::AtpgModel& model() const { return ctx_->model(); }
  const std::shared_ptr<const CircuitContext>& context() const {
    return ctx_;
  }

  /// Full run over the fault list with fault dropping. Reentrant: every
  /// call resets the per-run state (X-fill RNG), so repeated runs on one
  /// instance produce identical results.
  FogbusterResult run();

  /// Like run(), but targets faults in the order given by
  /// `target_order` (a permutation of fault-list indices; see
  /// run/fault_order). The result vectors stay in canonical fault order —
  /// only which fault gets explicitly targeted next changes, and with it
  /// the dropping pattern and the test count.
  FogbusterResult run(std::span<const std::size_t> target_order);

  /// Single-fault generation (no dropping); exposed for tests, the
  /// flow-stage bench, and the sharded run (run/shard). The call
  /// reads only the immutable context and the options — any number of
  /// threads may generate different faults on one instance concurrently.
  FaultStatus generate_for_fault(const tdgen::DelayFault& fault,
                                 TestSequence* out,
                                 StageStats* stages) const;

  // --- Sharded-run building blocks (used by run/shard's sliding window;
  // --- run() is exactly the sequential composition of these) -----------

  /// A result skeleton: the canonical fault list, every status Untested.
  FogbusterResult make_empty_result() const;

  /// Resets the per-run mutable state (the X-fill RNG) — the start-of-run
  /// step that makes repeated runs bit-identical.
  void reset_run_state();

  /// Accepts one verified test: appends it to `result`, adds its pattern
  /// count and, when fault dropping is enabled, fault-simulates it against
  /// the still-untested faults and drops every detected one. Consumes the
  /// X-fill RNG stream — calls must happen in targeting order, one thread
  /// at a time (run/shard's in-order commits serialize here).
  void apply_test(const TestSequence& sequence, FogbusterResult* result);

  /// The order-sensitive half of one targeting step, shared verbatim by
  /// run() and run/shard's in-order commits so the two can never drift:
  /// counts the target, adopts the generated verdict plus its stage
  /// counters, and on success appends the test and runs the dropping
  /// pass. `i` must still be Untested in `result`; `inert` must be false.
  void merge_targeted(std::size_t i,
                      // kept for perfbench; drop at the next benchmark change
                      bool inert, FaultStatus status,
                      const TestSequence& sequence, const StageStats& stages,
                      FogbusterResult* result);

 private:
  bool try_finalize(const tdgen::DelayFault& fault,
                    const tdgen::LocalTest& local,
                    const std::vector<sim::InputVec>& prop_frames,
                    const std::vector<std::size_t>& needed,
                    semilet::Budget& budget, TestSequence* out,
                    StageStats* stages) const;

  /// Immutable shared structure (netlist, model, flat form, fault list).
  std::shared_ptr<const CircuitContext> ctx_;
  AtpgOptions options_;
  const alg::DelayAlgebra* algebra_;
  /// Per-run mutable engines, owned by this instance: the X-fill RNG
  /// (reseeded at every run()) and the two fault simulators (const API,
  /// instance-local scratch — never shared across threads).
  Rng fill_rng_;
  fausim::Fausim fausim_;
  tdsim::Tdsim tdsim_;
};

}  // namespace gdf::core
