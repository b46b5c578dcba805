// perfbench_smoke — the benchmark's own smoke test.
//
// Runs every check of a traced benchmark run on c17 + s27 (sequential
// and epoch-sharded over two workers) and on a tiny generated FSM read
// back from its .bench file, and expects all of them to pass. Then it
// tampers with one test sequence and with one dropping record and expects
// the gate to fire on each. Exit status 0 when every expectation holds.
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "core/verify.hpp"
#include "passes.hpp"
#include "run/thread_pool.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  failures += ok ? 0 : 1;
}

std::string problems_of(const Checks& checks) {
  std::string out;
  for (const std::string& p : checks.problems) {
    out += "\n     " + p;
  }
  return out;
}

/// A traced run with every check; returns it for the tamper tests.
TracedRun traced_run(const Workload& workload,
                     const std::vector<Circuit>& circuits,
                     gdf::run::ThreadPool* pool, const std::string& what) {
  Tracer tracer;
  Checks checks;
  TracedRun run = run_traced(workload, circuits, pool, &tracer, &checks);
  expect(checks.correct() && checks.attempted > 0 &&
             run.verify_failures == 0,
         what + ": every check passes (" + std::to_string(checks.attempted) +
             " targeted)" + problems_of(checks));
  expect(tracer.count("core.generate") > 0 && tracer.count("tdsim.cpt") > 0,
         what + ": flow and replay spans recorded");
  return run;
}

/// Breaks the first test that a tamper makes fail verification and
/// expects check_pass to count exactly that failure.
void tamper_test(const Workload& workload,
                 const std::vector<Circuit>& circuits, PassResult pass) {
  for (std::size_t c = 0; c < pass.circuits.size(); ++c) {
    const gdf::core::CircuitContext& ctx = *circuits[c].ctx;
    for (gdf::core::TestSequence& test : pass.circuits[c].result.tests) {
      gdf::core::TestSequence original = test;
      test.target.slow_to_rise = !test.target.slow_to_rise;
      if (gdf::core::verify_sequence(ctx.model(),
                                     ctx.algebra(workload.options.mode), test)
              .ok) {
        test = std::move(original);
        continue;
      }
      Checks checks;
      check_pass(workload, circuits, pass, &checks);
      expect(checks.failed == 1 && !checks.correct(),
             "tampered test sequence (" + circuits[c].label +
                 ", opposite transition) fails the gate");
      return;
    }
  }
  expect(false, "found a test whose tampered copy fails verification");
}

/// Removes one fault from one dropping record and expects the detect_cpt
/// replay to notice.
void tamper_dropping(const Workload& workload,
                     const std::vector<Circuit>& circuits, PassResult pass) {
  for (CircuitOutcome& outcome : pass.circuits) {
    for (Target& target : outcome.targets) {
      if (!target.dropped.empty()) {
        target.dropped.pop_back();
        Checks checks;
        replay_dropping(workload, circuits, pass, nullptr, &checks);
        expect(!checks.correct(),
               "tampered dropping record fails the detect_cpt replay");
        return;
      }
    }
  }
  expect(false, "found a test that dropped faults");
}

void smoke() {
  Workload small = make_workload("catalog", 1995, "");
  small.name = "smoke_catalog";
  small.catalog = {"c17", "s27"};
  const std::vector<Circuit> circuits = set_up(small, nullptr);
  const TracedRun run = traced_run(small, circuits, nullptr, "c17+s27");
  tamper_test(small, circuits, run.flow);
  tamper_dropping(small, circuits, run.flow);

  Workload sharded = small;
  sharded.workers = 2;
  gdf::run::ThreadPool pool(sharded.workers - 1);
  traced_run(sharded, circuits, &pool, "c17+s27 sharded over 2 workers");

  gdf::circuits::BenchmarkProfile profile = fsm_profile(7);
  profile.primary_inputs = 4;
  profile.primary_outputs = 4;
  profile.flip_flops = 8;
  profile.logic_gates = 80;
  const std::string path = "perfbench_smoke_fsm.bench";
  write_fsm_bench(profile, path);
  const Workload fsm = make_workload("fsm_adi", 7, path);
  traced_run(fsm, set_up(fsm, nullptr), nullptr, "tiny FSM, adi order");
  std::remove(path.c_str());
}

}  // namespace

int main() {
  try {
    smoke();
  } catch (const std::exception& e) {
    expect(false, std::string("smoke run threw: ") + e.what());
  }
  std::printf("%s\n", failures == 0 ? "perfbench smoke: all checks passed"
                                    : "perfbench smoke: FAILED");
  return failures == 0 ? 0 : 1;
}
