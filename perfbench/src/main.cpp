// gdf_perfbench — the repository benchmark's measuring program.
//
//   gdf_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--bench FILE] [--trace-out FILE]
//   gdf_perfbench --generate-fsm FILE    (writes fsm_adi's circuit)
//
// --trace 0 repeats the flow for about S seconds (at least once per fill
// seed), sets the workload up several times before and between the
// circuits of every pass, and reports the end-to-end metrics as medians.
// --trace 1 runs the flow once untraced and once traced, replays the
// public engines beside it and reports the per-layer metrics. Both run
// the correctness gate. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}; the line before it
// carries run details. Exit status: 0 correct, 1 a check failed, 2 usage
// or internal error.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "base/timer.hpp"
#include "passes.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

/// Set-up is sampled in windows of at least kMinSetups repetitions and
/// kSetupWindowSeconds: one before the flow and, in a measured run, one
/// after every circuit of every pass (outside the pass's time). Host speed
/// drifts within seconds, so windows spread over the run track it as the
/// passes do; setup_s is the median repetition of all windows.
constexpr int kMinSetups = 3;
constexpr double kSetupWindowSeconds = 0.1;
/// Run ids of the set-up repetitions' spans (see kFlowRun, kReplayRun).
constexpr int kSetupRun = 100;

struct Args {
  std::string workload;
  std::uint64_t seed = 1995;
  double seconds = 10.0;
  bool trace = false;
  std::string bench;
  std::string trace_out;
  std::string generate_fsm;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace expects 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--bench") {
      args.bench = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--generate-fsm") {
      args.generate_fsm = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.generate_fsm.empty() && args.workload.empty()) {
    throw std::invalid_argument("--workload is required");
  }
  return args;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile (p in (0, 100]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(v.size()))));
  return v[std::min(rank, v.size()) - 1];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string number(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

/// Metrics in insertion order, rendered as the result line's "metrics".
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    if (!text_.empty()) {
      text_ += ", ";
    }
    text_ += quoted(name) + ": {\"value\": " + number(value) +
             ", \"unit\": " + quoted(unit) + "}";
  }
  std::string json() const { return "{" + text_ + "}"; }

 private:
  std::string text_;
};

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string number_list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += i == 0 ? "" : ", ";
    out += number(values[i]);
  }
  return out + "]";
}

/// Median over the set-up repetitions of a layer's per-repetition self time.
double setup_layer(const Tracer& tracer, const std::string& name,
                   int setups) {
  std::vector<double> per_rep;
  for (int rep = 0; rep < setups; ++rep) {
    per_rep.push_back(tracer.self_seconds(name, kSetupRun + rep));
  }
  return median(per_rep);
}

/// One set-up window: repeats set_up, each time from nothing, appending
/// its wall time to `setup_s`; leaves the last set-up in `circuits`.
/// Traced, each repetition's spans get their own run id.
void sample_setups(const Workload& workload, Tracer* tracer,
                   std::vector<Circuit>* circuits,
                   std::vector<double>* setup_s) {
  double window = 0.0;
  for (int rep = 0; rep < kMinSetups || window < kSetupWindowSeconds;
       ++rep) {
    circuits->clear();
    if (tracer != nullptr) {
      tracer->set_run(kSetupRun + static_cast<int>(setup_s->size()));
    }
    const gdf::Stopwatch watch;
    *circuits = set_up(workload, tracer);
    setup_s->push_back(watch.seconds());
    window += setup_s->back();
  }
}

struct Report {
  Metrics metrics;
  std::string details;  ///< JSON object members for the details line
};

void end_to_end(const Workload& workload, const std::vector<Circuit>& circuits,
                gdf::run::ThreadPool* pool, double seconds,
                std::vector<double>* setup_s, Checks* checks,
                Report* report) {
  const unsigned seeds = workload.fill_seeds;
  std::vector<double> walls;
  std::vector<double> cpus;
  std::vector<std::uint64_t> digests;
  double tested = 0.0;
  double aborted = 0.0;
  const gdf::Stopwatch measuring;
  for (unsigned k = 0;; ++k) {
    // Every fill seed once, then repeats while time remains; a repeat
    // must reproduce its seed's verdicts.
    Workload pass_workload = workload;
    pass_workload.options.fill_seed += k % seeds;
    std::vector<Circuit> scratch;
    const PassResult pass =
        run_pass(pass_workload, circuits, pool, nullptr, [&] {
          sample_setups(workload, nullptr, &scratch, setup_s);
        });
    walls.push_back(pass.wall_s);
    cpus.push_back(pass.cpu_s);
    check_pass(pass_workload, circuits, pass, checks);
    if (k < seeds) {
      digests.push_back(verdict_digest(pass));
      tested += static_cast<double>(tested_faults(pass)) / seeds;
      aborted += static_cast<double>(aborted_faults(pass)) / seeds;
    } else if (verdict_digest(pass) != digests[k % seeds]) {
      checks->problem("verdicts differ between repeated passes");
    }
    // Start another pass only while it is expected to end in time.
    if (k + 1 >= seeds && measuring.seconds() + median(walls) > seconds) {
      break;
    }
  }
  report->metrics.add("setup_s", median(*setup_s), "s");
  report->metrics.add("wall_s", median(walls), "s");
  report->metrics.add("cpu_s", median(cpus), "s");
  report->metrics.add("peak_rss_mb", peak_rss_mb(), "MB");
  report->metrics.add("tested_faults", tested, "count");
  report->metrics.add("aborted_faults", aborted, "count");
  std::string digest_list;
  for (const std::uint64_t d : digests) {
    digest_list += digest_list.empty() ? "\"" : ", \"";
    digest_list += hex(d) + "\"";
  }
  report->details = "\"passes\": " + std::to_string(walls.size()) +
                    ", \"fill_seeds\": " + std::to_string(seeds) +
                    ", \"wall_s\": " + number_list(walls) +
                    ", \"cpu_s\": " + number_list(cpus) +
                    ", \"setups\": " + std::to_string(setup_s->size()) +
                    ", \"digests\": [" + digest_list + "]";
}

void per_layer(const Workload& workload, const std::vector<Circuit>& circuits,
               gdf::run::ThreadPool* pool, int setups, Tracer* tracer,
               Checks* checks, Report* report) {
  const TracedRun run =
      run_traced(workload, circuits, pool, tracer, checks);
  const PassResult& seq = run.per_fault();
  const PassResult& flow = run.flow;
  const gdf::tdgen::SearchCounters& replayed = run.replayed;
  const DropReplay& drops = run.drops;
  const gdf::core::StageStats st = stage_totals(seq);
  const gdf::tdgen::SearchCounters& sc = st.search;
  long tests = 0;
  long patterns = 0;
  for (const CircuitOutcome& c : seq.circuits) {
    tests += static_cast<long>(c.result.tests.size());
    patterns += static_cast<long>(c.result.pattern_count);
  }
  std::vector<double> generate_ms = tracer->self_samples("core.generate");
  for (double& v : generate_ms) {
    v *= 1e3;
  }
  const double tdgen_local_s = tracer->self_seconds("tdgen.local");
  const double cpt_s = tracer->self_seconds("tdsim.cpt");
  const auto count = [](long v) { return static_cast<double>(v); };

  Metrics& m = report->metrics;
  m.add("circuits.load_s", setup_layer(*tracer, "circuits.load", setups),
        "s");
  m.add("core.context_build_s",
        setup_layer(*tracer, "core.context_build", setups), "s");
  m.add("algebra.tables_s", setup_layer(*tracer, "algebra.tables", setups),
        "s");
  m.add("run.order_s", tracer->self_seconds("run.order", kFlowRun), "s");
  m.add("run.sharded_s", tracer->self_seconds("run.sharded", kFlowRun), "s");
  m.add("run.pool_busy_ratio",
        ratio(flow.cpu_s, flow.wall_s * workload.workers), "ratio");
  m.add("core.generate_s", tracer->self_seconds("core.generate"), "s");
  m.add("core.generate_calls", count(tracer->count("core.generate")),
        "count");
  m.add("core.generate_ms_p50", percentile(generate_ms, 50), "ms");
  m.add("core.generate_ms_p99", percentile(generate_ms, 99), "ms");
  m.add("core.merge_s", tracer->self_seconds("core.merge"), "s");
  m.add("core.tests", count(tests), "count");
  m.add("core.test_patterns", count(patterns), "count");
  m.add("core.dropped", count(st.dropped), "count");
  m.add("core.drop_yield", ratio(count(st.dropped), count(tests)), "ratio");
  m.add("tdgen.local_s", tdgen_local_s, "s");
  m.add("tdgen.local_us_per_trail_push",
        ratio(tdgen_local_s * 1e6, count(replayed.trail_pushes)), "us");
  m.add("tdgen.trail_pushes", count(sc.trail_pushes), "count");
  m.add("tdgen.implication_assigns", count(sc.implication_assigns), "count");
  m.add("tdgen.conflicts", count(sc.conflicts), "count");
  m.add("tdgen.learned", count(sc.learned), "count");
  m.add("tdgen.clause_hit_ratio",
        ratio(count(sc.clause_hits), count(sc.conflicts)), "ratio");
  m.add("tdgen.backjump_levels_skipped", count(sc.backjump_levels_skipped),
        "count");
  m.add("tdgen.restarts", count(sc.restarts), "count");
  m.add("tdgen.probe_runs", count(sc.probe_runs), "count");
  m.add("tdgen.probe_cone_ratio",
        ratio(count(sc.probe_cone), count(sc.probe_runs)), "ratio");
  m.add("tdgen.probe_memo_hit_ratio",
        ratio(count(sc.probe_memo_hits),
              count(sc.probe_runs + sc.probe_memo_hits)),
        "ratio");
  m.add("tdgen.reentries", count(st.reentries), "count");
  m.add("tdgen.reentry_success_ratio",
        ratio(count(st.reentries - st.reentry_failures), count(st.reentries)),
        "ratio");
  m.add("tdgen.aborted_local", count(st.aborted_local), "count");
  m.add("tdgen.aborted_budget", count(st.aborted_budget), "count");
  m.add("semilet.prop_attempts", count(st.prop_attempts), "count");
  m.add("semilet.prop_exhausted_ratio",
        ratio(count(st.prop_failures), count(st.prop_attempts)), "ratio");
  m.add("semilet.sync_attempts", count(st.sync_attempts), "count");
  m.add("semilet.sync_success_ratio",
        ratio(count(st.sync_attempts - st.sync_failures),
              count(st.sync_attempts)),
        "ratio");
  m.add("semilet.aborted_sequential", count(st.aborted_sequential), "count");
  m.add("semilet.sync_s", tracer->self_seconds("semilet.sync"), "s");
  m.add("verify.s", tracer->self_seconds("verify"), "s");
  m.add("verify.failures", count(run.verify_failures), "count");
  m.add("fausim.good_s", tracer->self_seconds("fausim.good"), "s");
  m.add("fausim.observability_s", tracer->self_seconds("fausim.observability"),
        "s");
  m.add("fausim.evals_scalar", count(drops.kernels.scalar_evals), "count");
  m.add("fausim.evals_w64", count(drops.kernels.lane_evals_64), "count");
  m.add("fausim.evals_w256", count(drops.kernels.lane_evals_256), "count");
  m.add("fausim.evals_w512", count(drops.kernels.lane_evals_512), "count");
  m.add("tdsim.cpt_s", cpt_s, "s");
  m.add("tdsim.faults_simulated", count(drops.faults_simulated), "count");
  m.add("tdsim.faults_per_s", ratio(count(drops.faults_simulated), cpt_s),
        "1/s");
  m.add("trace.overhead_ratio", ratio(flow.wall_s, run.reference.wall_s),
        "ratio");
  report->details = "\"untraced_wall_s\": " + number(run.reference.wall_s) +
                    ", \"traced_wall_s\": " + number(flow.wall_s) +
                    ", \"spans\": " +
                    std::to_string(tracer->spans().size()) +
                    ", \"digest\": \"" + hex(verdict_digest(flow)) + "\"";
}

int run(const Args& args) {
  if (!args.generate_fsm.empty()) {
    write_fsm_bench(fsm_profile(kFsmCircuitSeed), args.generate_fsm);
    return 0;
  }
  const Workload workload = make_workload(args.workload, args.seed, args.bench);
  Tracer tracer;
  Tracer* traced = args.trace ? &tracer : nullptr;
  Checks checks;

  std::vector<double> setup_s;
  std::vector<Circuit> circuits;
  sample_setups(workload, traced, &circuits, &setup_s);
  // The calling thread helps the pool while it waits on an epoch, so
  // workers - 1 pool threads give `workers` generation threads.
  std::unique_ptr<gdf::run::ThreadPool> pool;
  if (workload.workers > 1) {
    pool = std::make_unique<gdf::run::ThreadPool>(workload.workers - 1);
  }

  Report report;
  if (args.trace) {
    per_layer(workload, circuits, pool.get(), static_cast<int>(setup_s.size()),
              &tracer, &checks, &report);
    if (!args.trace_out.empty() && !tracer.write_jsonl(args.trace_out)) {
      checks.problem("cannot write the trace to " + args.trace_out);
    }
  } else {
    end_to_end(workload, circuits, pool.get(), args.seconds, &setup_s,
               &checks, &report);
  }

  std::string problems = "[";
  for (std::size_t i = 0; i < checks.problems.size(); ++i) {
    problems += i == 0 ? "" : ", ";
    problems += quoted(checks.problems[i]);
  }
  problems += "]";
  std::printf("{\"details\": {\"workload\": %s, \"seed\": %llu, "
              "\"workers\": %u, \"build_type\": %s, \"lto\": %s, "
              "\"circuits\": %zu, %s, \"problems\": %s}}\n",
              quoted(workload.name).c_str(),
              static_cast<unsigned long long>(args.seed), workload.workers,
              quoted(GDF_PERFBENCH_BUILD_TYPE).c_str(),
              quoted(GDF_PERFBENCH_LTO).c_str(), circuits.size(), report.details.c_str(), problems.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": %s}\n",
              checks.correct() ? "true" : "false", checks.attempted,
              checks.failed, report.metrics.json().c_str());
  std::fflush(stdout);
  return checks.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gdf_perfbench: %s\n", e.what());
    return 2;
  }
}
