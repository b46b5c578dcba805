// Declarative parameter sweeps over the ATPG engine.
//
// A SweepSpec names the circuits to run and, per knob, the list of values
// to fan out (mode × fault order × seed × backtrack limit × dropping ×
// fault sites — empty axis = "just the base option"). expand() turns that
// into the canonical job list: circuit-major, then the axes in the order
// above, each cell a fully resolved AtpgOptions. Every Table-3 row and
// every bench/ ablation in the repo is one such spec.
//
// run_sweep() executes the jobs on a work-stealing pool (--jobs N) and
// hands finished rows to the caller **in canonical order** no matter when
// they complete: workers publish into an indexed channel and the calling
// thread emits row i only after rows 0..i-1. Per-job results depend only
// on that job's options (each job is one AtpgSession with its own RNG and
// engines; contexts are shared read-only), so a matrix cell's row and
// stage counters equal those of the same cell swept alone, and the
// emitted bytes are identical for any worker count — test_determinism
// pins the rows to committed goldens at several --jobs/--shard-faults
// points.
//
// Two scheduling layers keep the wall time down without touching the
// bytes:
//  * Longest-job-first submission: cells run in descending size-based
//    cost order (the canonical emission channel hides the reordering), so
//    the s1196/s1238-class tails start first instead of capping the sweep.
//  * Intra-circuit fault sharding (spec.shard): a cell whose circuit
//    qualifies keeps a sliding window of its faults generating on the
//    same pool instead of occupying one worker (see run/shard.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "base/cancel.hpp"
#include "base/error.hpp"
#include "core/options.hpp"
#include "core/report.hpp"
#include "run/fault_order.hpp"
#include "run/shard.hpp"

namespace gdf::run {

/// What run_sweep does when a cell fails (--on-error). Abort reproduces
/// the pre-policy behavior: the first failure is rethrown at its canonical
/// position and the sweep stops. Skip emits a deterministic `# error:`
/// row at the failing cell's canonical position and continues — no other
/// row's bytes change. Retry is Skip plus up to `retries` re-runs with
/// bounded backoff, attempted only for Resource-kind (transient I/O)
/// failures; Input/Internal failures are deterministic and go straight to
/// the error row. Cancellation is never an error row: the sweep drains
/// its canonical frontier and reports a partial run.
struct ErrorPolicy {
  enum class Mode : std::uint8_t { Abort, Skip, Retry };
  Mode mode = Mode::Abort;
  int retries = 0;  ///< re-runs per cell (Retry only)

  bool operator==(const ErrorPolicy&) const = default;
};

/// Parses an --on-error value: "abort" | "skip" | "retry:N" (N >= 1).
ErrorPolicy parse_on_error(std::string_view text);
std::string on_error_name(const ErrorPolicy& policy);

/// One circuit to sweep: either a catalog name (honoring the file-backed
/// bench_dir) or an explicit .bench file from disk.
struct CircuitSource {
  std::string label;       ///< CSV "circuit" column
  std::string name;        ///< catalog name; empty when file-backed
  std::string bench_path;  ///< .bench path; empty when from the catalog

  static CircuitSource catalog(std::string catalog_name);
  static CircuitSource file(std::string path);
};

/// Catalog sources from a harness's argv tail (argv[1..]), or `defaults`
/// when no names were passed — the shared front door of the bench/
/// ablation harnesses.
std::vector<CircuitSource> catalog_sources(
    int argc, const char* const* argv,
    const std::vector<std::string>& defaults);

struct SweepSpec {
  std::vector<CircuitSource> circuits;
  /// Base configuration; axes below override per cell. Knobs without an
  /// axis (e.g. learning mode, --fault-budget) apply to every cell.
  core::AtpgOptions base;
  /// Root of genuine ISCAS'89 .bench files overriding the generated
  /// catalog ("" = generated substitutes only). See circuits::
  /// resolve_bench_dir for the GDF_BENCH_DIR fallback.
  std::string bench_dir;

  // Matrix axes; an empty axis means one cell with the base value.
  std::vector<alg::Mode> modes;
  std::vector<FaultOrder> orders;
  std::vector<std::uint64_t> seeds;
  /// Applied to both the local and the sequential limit, like the paper's
  /// symmetric 100/100 policy.
  std::vector<int> backtrack_limits;
  std::vector<bool> fault_dropping;
  /// true = gate outputs + fanout branches (paper), false = stems only.
  std::vector<bool> full_sites;

  unsigned jobs = 0;            ///< worker threads; 0 = hardware concurrency
  bool include_seconds = true;  ///< emit the wall-time column
  /// Intra-circuit fault sharding policy (--shard-faults); Off reproduces
  /// the cell-granular behavior. Never changes the emitted bytes.
  ShardConfig shard;

  /// Failure containment (--on-error); see ErrorPolicy.
  ErrorPolicy on_error;
  /// Cooperative cancellation: when wired (and also set on base.cancel so
  /// in-flight searches observe it), a fired token makes run_sweep stop
  /// emitting at the first incomplete canonical position and return with
  /// SweepStats::interrupted set. nullptr = not cancellable.
  const CancelToken* cancel = nullptr;
  /// Canonical indices replayed from a journal (--resume): these cells
  /// are not executed; their rows come back with SweepRow::replayed set
  /// and only job/index meaningful — the caller re-emits its journaled
  /// text.
  std::vector<std::size_t> resume_done;

  /// Cells per circuit (product of the axis sizes).
  std::size_t cells_per_circuit() const;
  /// True when more than one cell per circuit (CSV grows config columns).
  bool has_matrix() const { return cells_per_circuit() > 1; }
};

/// One fully resolved unit of work.
struct SweepJob {
  std::size_t index = 0;  ///< canonical position
  CircuitSource circuit;
  core::AtpgOptions options;
  FaultOrder order = FaultOrder::Static;
};

/// The canonical job list: circuit-major, axes in declaration order.
std::vector<SweepJob> expand(const SweepSpec& spec);

struct SweepRow {
  SweepJob job;
  core::Table3Row table;
  core::StageStats stages;
  /// Nonempty = the cell failed under --on-error skip/retry; the table
  /// and stage fields are empty and the row renders as a deterministic
  /// `# error:` line (see format_sweep_error_row).
  std::string error;
  ErrorKind error_kind = ErrorKind::Internal;
  /// Times the cell ran (> 1 only under --on-error retry:N).
  int attempts = 1;
  /// Replayed from a journal: only `job` is meaningful; the caller
  /// re-emits the journaled text instead of formatting this row.
  bool replayed = false;
};

/// Whole-sweep outcome counters (deterministic for a given spec).
struct SweepStats {
  long total_cells = 0;        ///< canonical job count of the spec
  long emitted = 0;            ///< rows handed to emit (incl. error rows)
  long error_cells = 0;        ///< cells that emitted `# error:` rows
  long retries = 0;            ///< extra attempts spent under retry:N
  long replayed_cells = 0;     ///< rows replayed from resume_done
  /// The cancel token fired: emission stopped at the first incomplete
  /// canonical position; rows 0..emitted-1 are complete and final.
  bool interrupted = false;
};

/// CSV rendering. Without a matrix this is exactly the legacy layout
/// ("circuit,tested,untestable,aborted,patterns,seconds"); with one, the
/// configuration columns (mode, order, seed, backtracks, dropping, sites)
/// are inserted after the circuit. include_seconds=false drops the
/// nondeterministic wall-time column — what the byte-identity tests
/// compare.
std::string sweep_csv_header(const SweepSpec& spec);
std::string format_sweep_csv_row(const SweepSpec& spec, const SweepRow& row);

/// The deterministic `# error:` line a failed cell occupies at its
/// canonical position (identical bytes in CSV and table layouts):
///   # error: circuit=<label> cell=<index> kind=<kind>: <message>
std::string format_sweep_error_row(const SweepRow& row);

/// Runs the whole spec; `emit` is invoked on the calling thread, once per
/// job, in canonical order, as soon as each next row is available. Under
/// the default ErrorPolicy (abort) a worker exception is rethrown on the
/// calling thread at its job's canonical position (later jobs are
/// abandoned); under skip/retry the failing cell becomes an `# error:`
/// row and the sweep continues. `on_ready`, if given, runs after every
/// circuit has loaded and validated but before any job — the place to
/// print a header, so a bad circuit name aborts cleanly without partial
/// output (under skip/retry a failed circuit load instead yields error
/// rows for that circuit's cells). The returned stats summarize error
/// containment and interruption.
SweepStats run_sweep(const SweepSpec& spec,
                     const std::function<void(const SweepRow&)>& emit,
                     const std::function<void()>& on_ready = {});

}  // namespace gdf::run
