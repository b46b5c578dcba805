#include "run/sweep.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <filesystem>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "base/error.hpp"
#include "base/fault_injection.hpp"
#include "circuits/catalog.hpp"
#include "core/fogbuster.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/validate.hpp"
#include "run/thread_pool.hpp"

namespace gdf::run {

namespace {

/// Extracts kind + message from a parked worker exception.
void classify_error(const std::exception_ptr& error, ErrorKind* kind,
                    std::string* message) {
  try {
    std::rethrow_exception(error);
  } catch (const Error& e) {
    *kind = e.kind();
    *message = e.what();
  } catch (const std::exception& e) {
    *kind = ErrorKind::Internal;
    *message = e.what();
  } catch (...) {
    *kind = ErrorKind::Internal;
    *message = "unknown exception";
  }
}

/// Bounded backoff before retry attempt `attempt` (1-based): 10 ms
/// doubling, capped at 200 ms — enough for transient I/O, never enough to
/// wedge a worker.
void retry_backoff(int attempt) {
  const long ms = std::min<long>(200, 10L << std::min(attempt - 1, 10));
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

template <typename T>
std::vector<T> axis_or(const std::vector<T>& axis, T base_value) {
  return axis.empty() ? std::vector<T>{base_value} : axis;
}

/// The structural slice of AtpgOptions — cells sharing it share one
/// CircuitContext (the field CircuitContext::structurally_compatible
/// compares, via FaultListOptions::operator==).
struct StructuralKey {
  tdgen::FaultListOptions sites;

  explicit StructuralKey(const core::AtpgOptions& options)
      : sites(options.fault_sites) {}

  bool operator==(const StructuralKey&) const = default;
};

/// One circuit's shared immutable state plus the lazily built contexts,
/// one per structural key reached by the matrix.
struct CircuitSlot {
  net::Netlist nl;
  /// Set when the circuit failed to load under --on-error skip/retry:
  /// every cell of the slot rethrows it and becomes an error row.
  std::exception_ptr load_error;
  std::mutex mutex;
  std::vector<std::pair<StructuralKey, std::shared_ptr<const core::CircuitContext>>>
      contexts;

  std::shared_ptr<const core::CircuitContext> context_for(
      const core::AtpgOptions& options) {
    const StructuralKey key(options);
    const std::lock_guard<std::mutex> lock(mutex);
    for (const auto& [k, ctx] : contexts) {
      if (k == key) {
        return ctx;
      }
    }
    contexts.emplace_back(key, core::CircuitContext::build(nl, options));
    return contexts.back().second;
  }
};

const char* mode_name(alg::Mode mode) {
  return mode == alg::Mode::Robust ? "robust" : "nonrobust";
}

}  // namespace

CircuitSource CircuitSource::catalog(std::string catalog_name) {
  CircuitSource source;
  source.label = catalog_name;
  source.name = std::move(catalog_name);
  return source;
}

CircuitSource CircuitSource::file(std::string path) {
  CircuitSource source;
  // Same label the .bench reader derives (path stem), so --bench rows
  // keep their pre-sweep circuit names.
  source.label = std::filesystem::path(path).stem().string();
  source.bench_path = std::move(path);
  return source;
}

std::size_t SweepSpec::cells_per_circuit() const {
  return axis_or(modes, base.mode).size() *
         axis_or(orders, FaultOrder::Static).size() *
         axis_or(seeds, base.fill_seed).size() *
         axis_or(backtrack_limits, base.local.backtrack_limit).size() *
         axis_or(fault_dropping, base.fault_dropping).size() *
         axis_or(full_sites, base.fault_sites.include_branches).size();
}

std::vector<SweepJob> expand(const SweepSpec& spec) {
  const std::vector<alg::Mode> modes = axis_or(spec.modes, spec.base.mode);
  const std::vector<FaultOrder> orders =
      axis_or(spec.orders, FaultOrder::Static);
  const std::vector<std::uint64_t> seeds =
      axis_or(spec.seeds, spec.base.fill_seed);
  const std::vector<int> backtracks =
      axis_or(spec.backtrack_limits, spec.base.local.backtrack_limit);
  const std::vector<bool> droppings =
      axis_or(spec.fault_dropping, spec.base.fault_dropping);
  const std::vector<bool> sites =
      axis_or(spec.full_sites, spec.base.fault_sites.include_branches);

  std::vector<SweepJob> jobs;
  jobs.reserve(spec.circuits.size() * spec.cells_per_circuit());
  for (const CircuitSource& circuit : spec.circuits) {
    for (const alg::Mode mode : modes) {
      for (const FaultOrder order : orders) {
        for (const std::uint64_t seed : seeds) {
          for (const int backtrack : backtracks) {
            for (const bool dropping : droppings) {
              for (const bool full : sites) {
                SweepJob job;
                job.index = jobs.size();
                job.circuit = circuit;
                job.order = order;
                job.options = spec.base;
                job.options.mode = mode;
                job.options.fill_seed = seed;
                job.options.local.backtrack_limit = backtrack;
                job.options.sequential.backtrack_limit = backtrack;
                job.options.fault_dropping = dropping;
                // A 'full' cell expands the fanout branches and
                // enumerates faults on them, a 'stems' cell does neither,
                // whatever the base configuration says.
                job.options.fault_sites.include_branches = full;
                jobs.push_back(std::move(job));
              }
            }
          }
        }
      }
    }
  }
  return jobs;
}

std::string sweep_csv_header(const SweepSpec& spec) {
  std::string header = "circuit";
  if (spec.has_matrix()) {
    header += ",mode,order,seed,backtracks,dropping,sites";
  }
  header += ",tested,untestable,aborted,patterns";
  if (spec.include_seconds) {
    header += ",seconds";
  }
  return header;
}

std::string format_sweep_csv_row(const SweepSpec& spec,
                                 const SweepRow& row) {
  std::ostringstream os;
  os << row.table.circuit;
  if (spec.has_matrix()) {
    const core::AtpgOptions& o = row.job.options;
    os << ',' << mode_name(o.mode) << ',' << fault_order_name(row.job.order)
       << ',' << o.fill_seed << ',' << o.local.backtrack_limit << '/'
       << o.sequential.backtrack_limit << ','
       << (o.fault_dropping ? "on" : "off") << ','
       << (o.fault_sites.include_branches ? "full" : "stems");
  }
  os << ',' << row.table.tested << ',' << row.table.untestable << ','
     << row.table.aborted << ',' << row.table.patterns;
  if (spec.include_seconds) {
    os << ',' << row.table.seconds;
  }
  return os.str();
}

ErrorPolicy parse_on_error(std::string_view text) {
  ErrorPolicy policy;
  if (text == "abort") {
    return policy;
  }
  if (text == "skip") {
    policy.mode = ErrorPolicy::Mode::Skip;
    return policy;
  }
  if (text.substr(0, 6) == "retry:") {
    const std::string_view count = text.substr(6);
    int retries = 0;
    const auto [ptr, ec] =
        std::from_chars(count.data(), count.data() + count.size(), retries);
    check(ec == std::errc() && ptr == count.data() + count.size() &&
              retries >= 1,
          "--on-error retry:N expects a positive retry count, got '" +
              std::string(text) + "'");
    policy.mode = ErrorPolicy::Mode::Retry;
    policy.retries = retries;
    return policy;
  }
  throw Error("--on-error expects 'abort', 'skip', or 'retry:N', got '" +
              std::string(text) + "'");
}

std::string format_sweep_error_row(const SweepRow& row) {
  // Deterministic bytes: label, canonical index, structured kind, and the
  // exception's message — nothing timing- or attempt-dependent.
  return "# error: circuit=" + row.job.circuit.label +
         " cell=" + std::to_string(row.job.index) +
         " kind=" + error_kind_name(row.error_kind) + ": " + row.error;
}

SweepStats run_sweep(const SweepSpec& spec,
                     const std::function<void(const SweepRow&)>& emit,
                     const std::function<void()>& on_ready) {
  // Load and validate every circuit up front, serially: a typo or a
  // malformed .bench file fails before any ATPG time is spent, and the
  // workers then only ever read the slots. Under --on-error skip/retry a
  // load failure is contained instead: the slot records it and every cell
  // of that circuit becomes a deterministic error row (Resource failures
  // get their bounded-backoff retries here, where the transient I/O is).
  const std::string bench_dir = circuits::resolve_bench_dir(spec.bench_dir);
  std::vector<std::unique_ptr<CircuitSlot>> slots;
  slots.reserve(spec.circuits.size());
  for (const CircuitSource& source : spec.circuits) {
    auto slot = std::make_unique<CircuitSlot>();
    for (int attempt = 1;; ++attempt) {
      try {
        if (!source.bench_path.empty()) {
          slot->nl = net::read_bench_file(source.bench_path);
          net::validate_or_throw(slot->nl);
        } else {
          slot->nl = circuits::load_circuit(source.name, bench_dir);
        }
        break;
      } catch (const Error& e) {
        if (spec.on_error.mode == ErrorPolicy::Mode::Retry &&
            e.kind() == ErrorKind::Resource &&
            attempt <= spec.on_error.retries &&
            !cancel_requested(spec.cancel)) {
          retry_backoff(attempt);
          continue;
        }
        if (spec.on_error.mode == ErrorPolicy::Mode::Abort ||
            e.kind() == ErrorKind::Cancelled) {
          throw;
        }
        slot->load_error = std::current_exception();
        break;
      }
    }
    slots.push_back(std::move(slot));
  }

  if (on_ready) {
    on_ready();
  }

  const std::vector<SweepJob> jobs = expand(spec);
  const std::size_t cells = spec.cells_per_circuit();

  // Indexed result channel: workers publish at their canonical position,
  // the caller drains in order. A slot is either a row, an exception, or
  // (after cancellation) deliberately empty — the emission loop reads an
  // empty ready cell as "the frontier ends here".
  struct Cell {
    std::unique_ptr<SweepRow> row;
    std::exception_ptr error;
    int attempts = 1;
    bool ready = false;
  };
  std::vector<Cell> channel(jobs.size());
  std::mutex mutex;
  std::condition_variable published;
  bool cancelled = false;

  // Replay (--resume): journaled cells are pre-published as ready rows —
  // never submitted, never recomputed — and the caller re-emits their
  // journaled text.
  for (const std::size_t ji : spec.resume_done) {
    check(ji < jobs.size(),
          "resume index " + std::to_string(ji) +
              " is out of range for this sweep (" +
              std::to_string(jobs.size()) + " cells)");
    Cell& cell = channel[ji];
    cell.row = std::make_unique<SweepRow>();
    cell.row->job = jobs[ji];
    cell.row->replayed = true;
    cell.ready = true;
  }

  // Longest-job-first submission: descending size-based cost estimate,
  // canonical index as the deterministic tie-break. Without it the
  // biggest circuits land on workers last and their runtime caps the
  // sweep; the canonical emission channel makes the reordering invisible.
  std::vector<std::size_t> submission(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    submission[i] = i;
  }
  std::stable_sort(submission.begin(), submission.end(),
                   [&](std::size_t a, std::size_t b) {
                     return slots[a / cells]->nl.size() >
                            slots[b / cells]->nl.size();
                   });

  SweepStats stats;
  stats.total_cells = static_cast<long>(jobs.size());
  {
    // No point spawning more workers than there are jobs (a default
    // --jobs 0 single-circuit run on a many-core host would otherwise
    // create a pile of threads that never pop a task) — unless some cell
    // can fan its faults out, in which case the spare workers pick up
    // generation slices and the full width stays. "Can shard" is judged
    // from the unexpanded netlist size with a generous fault-count proxy
    // (8x covers branch expansion): over-admitting parks a few idle
    // threads, under-admitting would forfeit the sharding speedup.
    bool shardable = false;
    if (spec.shard.policy == ShardConfig::Policy::Forced) {
      shardable = spec.shard.workers > 1;
    } else if (spec.shard.policy == ShardConfig::Policy::Auto) {
      for (const auto& slot : slots) {
        if (8 * slot->nl.size() >= spec.shard.min_faults) {
          shardable = true;
          break;
        }
      }
    }
    unsigned width = ThreadPool::resolve_jobs(spec.jobs);
    if (!shardable) {
      width = std::min<unsigned>(
          width,
          static_cast<unsigned>(std::max<std::size_t>(1, jobs.size())));
    }
    ThreadPool pool(width);
    pool.set_cancel_token(spec.cancel);

    for (const std::size_t ji : submission) {
      if (channel[ji].ready) {
        continue;  // replayed from the journal
      }
      pool.submit([&, ji] {
        const SweepJob& job = jobs[ji];
        CircuitSlot* slot = slots[ji / cells].get();
        Cell cell;
        {
          const std::lock_guard<std::mutex> lock(mutex);
          if (cancelled || cancel_requested(spec.cancel)) {
            cell.ready = true;  // publish an empty cell so nobody waits
          }
        }
        if (!cell.ready && slot->load_error) {
          // The circuit never loaded (skip/retry already spent its
          // retries up front): every cell of the slot carries that error.
          cell.error = slot->load_error;
          cell.ready = true;
        }
        if (!cell.ready) {
          for (int attempt = 1;; ++attempt) {
            cell.attempts = attempt;
            try {
              if (cancel_requested(spec.cancel)) {
                throw_cancelled();
              }
              fi::fire_stall(job.circuit.label, spec.cancel);
              fi::fire_cell_throw(job.circuit.label);
              core::Fogbuster flow(slot->context_for(job.options),
                                   job.options);
              const std::vector<std::size_t> order =
                  make_fault_order(*flow.context(), job.order, job.options);
              const unsigned workers =
                  shard_workers(spec.shard, pool, order.size());
              const core::FogbusterResult result =
                  workers > 1 ? run_sharded(flow, order, pool,
                                            shard_epoch_size(spec.shard,
                                                             workers))
                              : flow.run(order);
              cell.row = std::make_unique<SweepRow>();
              cell.row->job = job;
              cell.row->table =
                  core::make_table3_row(job.circuit.label, result);
              cell.row->stages = result.stages;
            } catch (const Error& e) {
              // Only Resource failures (transient I/O) are worth
              // re-running: Input/Internal are deterministic and
              // Cancelled is a request to stop, not a fault.
              if (spec.on_error.mode == ErrorPolicy::Mode::Retry &&
                  e.kind() == ErrorKind::Resource &&
                  attempt <= spec.on_error.retries &&
                  !cancel_requested(spec.cancel)) {
                retry_backoff(attempt);
                continue;
              }
              cell.error = std::current_exception();
            } catch (...) {
              cell.error = std::current_exception();
            }
            break;
          }
          cell.ready = true;
        }
        {
          const std::lock_guard<std::mutex> lock(mutex);
          channel[ji] = std::move(cell);
        }
        published.notify_all();
      });
    }

    // Deterministic emission: row i is handed out only after rows 0..i-1,
    // whatever order the workers finish in. Cancellation truncates the
    // canonical frontier here — rows already emitted stay final, nothing
    // past the first incomplete position is handed out.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      std::unique_lock<std::mutex> lock(mutex);
      published.wait(lock, [&] { return channel[i].ready; });
      Cell cell;
      cell.row = std::move(channel[i].row);
      cell.error = channel[i].error;
      cell.attempts = channel[i].attempts;
      if (cell.error) {
        ErrorKind kind = ErrorKind::Internal;
        std::string message;
        classify_error(cell.error, &kind, &message);
        if (kind == ErrorKind::Cancelled) {
          cancelled = true;
          stats.interrupted = true;
          break;
        }
        if (spec.on_error.mode == ErrorPolicy::Mode::Abort) {
          cancelled = true;  // remaining workers fast-forward
          lock.unlock();
          std::rethrow_exception(cell.error);
        }
        lock.unlock();
        SweepRow row;
        row.job = jobs[i];
        row.error = std::move(message);
        row.error_kind = kind;
        emit(row);
        ++stats.emitted;
        ++stats.error_cells;
        stats.retries += cell.attempts - 1;
        continue;
      }
      if (!cell.row) {
        // An empty published cell: a worker fast-forwarded after the
        // cancel token fired. The frontier ends here.
        cancelled = true;
        stats.interrupted = true;
        break;
      }
      lock.unlock();
      emit(*cell.row);
      ++stats.emitted;
      stats.retries += cell.attempts - 1;
      if (cell.row->replayed) {
        ++stats.replayed_cells;
      }
    }
  }  // joins the pool before the channel goes out of scope
  return stats;
}

}  // namespace gdf::run
