// gdf_atpg — the command-line driver over the full FOGBUSTER flow.
//
//   gdf_atpg --circuit s27             one Table-3 row, text layout
//   gdf_atpg --all --csv --jobs 4      sweep the catalog on 4 workers
//   gdf_atpg --bench s344.bench        a real ISCAS'89 netlist from disk
//   gdf_atpg --all --csv --backtracks 10,100,1000   a parameter matrix
//   gdf_atpg --circuit s298 --non-robust --seq-backtracks 500 --stages
//   gdf_atpg --all --csv --no-seconds --journal run.j   (kill; then)
//   gdf_atpg --all --csv --no-seconds --journal run.j --resume
//
// Every invocation is one declarative SweepSpec executed by the parallel
// orchestrator (run/sweep); rows stream out in canonical order whatever
// the worker count, so the bytes are identical for any --jobs value.
//
// SIGINT/SIGTERM request cooperative cancellation: the searches poll the
// token and unwind, the canonical frontier drains (every row already
// complete in order is printed and journaled), and the driver exits 3.
//
// Exit status: 0 on success, 1 on a user-facing error (unknown circuit or
// option), 2 on an internal failure, 3 when interrupted (the printed rows
// are a valid partial result; rerun with --journal/--resume to finish).
#include <csignal>
#include <cstdio>
#include <exception>
#include <string>
#include <unordered_map>
#include <utility>

#include "base/cancel.hpp"
#include "base/error.hpp"
#include "circuits/catalog.hpp"
#include "cli/args.hpp"
#include "core/report.hpp"
#include "run/journal.hpp"
#include "run/sweep.hpp"

namespace gdf::cli {
namespace {

/// Fired by SIGINT/SIGTERM; polled by every search loop. request() is a
/// relaxed atomic store — async-signal-safe.
CancelToken g_cancel;

extern "C" void handle_stop_signal(int) { g_cancel.request(); }

int run(const DriverConfig& config) {
  if (config.help) {
    std::printf("%s", usage().c_str());
    return 0;
  }
  if (config.list_only) {
    for (const std::string& name : circuits::catalog_names()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }

  run::SweepSpec spec = sweep_spec(config);
  spec.cancel = &g_cancel;
  spec.base.cancel = &g_cancel;
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);

  // Crash-safe journal: open (and under --resume, replay) before any work.
  // The fingerprint pins the expanded job list and the row layout, so a
  // journal from a different invocation refuses to resume instead of
  // splicing mismatched rows.
  run::SweepJournal journal;
  std::unordered_map<std::size_t, std::string> replay_text;
  if (!config.journal.empty()) {
    journal.open(config.journal, run::sweep_fingerprint(spec, config.csv),
                 config.resume);
    for (const auto& [index, text] : journal.completed()) {
      spec.resume_done.push_back(index);
      replay_text[index] = text;
    }
  }

  const run::SweepStats stats = run::run_sweep(
      spec,
      [&](const run::SweepRow& row) {
        std::string text;
        if (row.replayed) {
          text = replay_text.at(row.job.index);
        } else if (!row.error.empty()) {
          text = run::format_sweep_error_row(row);
        } else {
          text = config.csv ? run::format_sweep_csv_row(spec, row)
                            : core::format_table3_row(row.table);
        }
        std::printf("%s\n", text.c_str());
        if (config.stage_stats && row.error.empty() && !row.replayed) {
          std::printf("%s\n", core::format_stage_stats(row.stages).c_str());
        }
        std::fflush(stdout);
        if (!row.replayed) {
          // Record only after the row reached stdout: the journal holds
          // completed (printed) cells, nothing speculative.
          journal.record(row.job.index, text);
        }
      },
      [&] {
        // Header only after every circuit loaded and validated — a typo
        // late in the list fails before any output, like the pre-sweep
        // driver.
        std::printf("%s\n", (config.csv ? run::sweep_csv_header(spec)
                                        : core::table3_header())
                                .c_str());
      });
  if (config.csv && stats.memo_reused_cells > 0) {
    // CSV comment trailer; deterministic (producer-before-consumer
    // scheduling fixes the hit counts). Only matrix sweeps have sibling
    // cells, so plain catalog runs keep their legacy byte layout.
    std::printf("# untestable-memo: reused_cells=%ld hits=%ld\n",
                stats.memo_reused_cells, stats.memo_hits);
  }
  if (stats.interrupted) {
    std::fprintf(stderr,
                 "gdf_atpg: interrupted — %ld of %ld rows completed%s\n",
                 stats.emitted, stats.total_cells,
                 journal.active() ? "; rerun with --resume to finish" : "");
    return 3;
  }
  return 0;
}

}  // namespace
}  // namespace gdf::cli

int main(int argc, char** argv) {
  try {
    return gdf::cli::run(gdf::cli::parse_args(argc, argv));
  } catch (const gdf::Error& e) {
    if (e.kind() == gdf::ErrorKind::Cancelled) {
      std::fprintf(stderr, "gdf_atpg: interrupted\n");
      return 3;
    }
    std::fprintf(stderr, "gdf_atpg: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gdf_atpg: internal error: %s\n", e.what());
    return 2;
  }
}
