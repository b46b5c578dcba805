#include "passes.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <exception>
#include <span>

#include "algebra/tables.hpp"
#include "base/error.hpp"
#include "base/rng.hpp"
#include "base/timer.hpp"
#include "circuits/catalog.hpp"
#include "core/verify.hpp"
#include "fausim/fausim.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/validate.hpp"
#include "run/fault_order.hpp"
#include "run/shard.hpp"
#include "semilet/synchronize.hpp"
#include "tdsim/tdsim.hpp"

namespace perfbench {

using gdf::core::FaultStatus;
using gdf::core::FogbusterResult;

namespace {

gdf::net::Netlist load(const Workload& workload, const std::string& name) {
  if (!workload.bench_path.empty()) {
    gdf::net::Netlist nl = gdf::net::read_bench_file(workload.bench_path);
    gdf::net::validate_or_throw(nl);
    return nl;
  }
  return gdf::circuits::load_circuit(name);  // validates
}

/// Spot-checks the fresh tables against the shared instance (the diagonal
/// of each operator: cheap enough to sit inside the timed set-up). Reading
/// the fresh tables also keeps the optimizer from discarding their build.
void check_tables(const gdf::alg::DelayAlgebra& fresh,
                  const gdf::alg::DelayAlgebra& shared) {
  using gdf::alg::Op2;
  for (const Op2 op : {Op2::And, Op2::Or, Op2::Xor}) {
    for (unsigned a = 0; a < 256; ++a) {
      const auto s = static_cast<gdf::alg::VSet>(a);
      gdf::check(fresh.set_fwd(op, s, s) == shared.set_fwd(op, s, s) &&
                     fresh.set_bwd_first(op, 0xFF, s, s) ==
                         shared.set_bwd_first(op, 0xFF, s, s),
                 "fresh algebra tables differ from the shared instance");
    }
  }
}

gdf::sim::Lv lv_of(int bit) {
  return bit == 0 ? gdf::sim::Lv::Zero : gdf::sim::Lv::One;
}

}  // namespace

std::vector<Circuit> set_up(const Workload& workload, Tracer* tracer) {
  std::unique_ptr<const gdf::alg::DelayAlgebra> fresh;
  {
    Tracer::Scope span(tracer, "algebra.tables");
    fresh = std::make_unique<const gdf::alg::DelayAlgebra>(
        workload.options.mode);
  }
  std::vector<std::string> names = workload.catalog;
  if (!workload.bench_path.empty()) {
    names = {workload.bench_path};
  }
  std::vector<Circuit> circuits;
  for (const std::string& name : names) {
    Circuit circuit;
    circuit.label = name;
    gdf::net::Netlist nl;
    {
      Tracer::Scope span(tracer, "circuits.load");
      nl = load(workload, name);
    }
    {
      Tracer::Scope span(tracer, "core.context_build");
      circuit.ctx = gdf::core::CircuitContext::build(nl, workload.options);
    }
    {
      Tracer::Scope span(tracer, "algebra.tables");
      circuit.ctx->algebra(workload.options.mode);
    }
    circuits.push_back(std::move(circuit));
  }
  check_tables(*fresh, circuits.front().ctx->algebra(workload.options.mode));
  return circuits;
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

/// The sequential composition of Fogbuster::run, stepped by hand so each
/// targeted fault is timed and logged.
void traced_sequential(gdf::core::Fogbuster& flow,
                       const std::vector<std::size_t>& order, Tracer* tracer,
                       CircuitOutcome* out) {
  FogbusterResult& result = out->result;
  result = flow.make_empty_result();
  flow.reset_run_state();
  std::vector<FaultStatus> before;
  for (const std::size_t i : order) {
    if (result.status[i] != FaultStatus::Untested) {
      continue;
    }
    gdf::core::TestSequence sequence;
    gdf::core::StageStats stages;
    FaultStatus status = FaultStatus::Untested;
    {
      Tracer::Scope span(tracer, "core.generate");
      status = flow.generate_for_fault(result.faults[i], &sequence, &stages);
    }
    if (status == FaultStatus::Tested) {
      before = result.status;
    }
    {
      Tracer::Scope span(tracer, "core.merge");
      flow.merge_targeted(i, false, status, sequence, stages, &result);
    }
    Target target{i, status, {}};
    if (status == FaultStatus::Tested) {
      for (std::size_t j = 0; j < before.size(); ++j) {
        if (j != i && before[j] == FaultStatus::Untested &&
            result.status[j] == FaultStatus::Tested) {
          target.dropped.push_back(j);
        }
      }
    }
    out->targets.push_back(std::move(target));
  }
}

}  // namespace

PassResult run_pass(const Workload& workload,
                    const std::vector<Circuit>& circuits,
                    gdf::run::ThreadPool* pool, Tracer* tracer,
                    const std::function<void()>& after_circuit) {
  PassResult pass;
  for (const Circuit& circuit : circuits) {
    const double cpu0 = process_cpu_seconds();
    const gdf::Stopwatch wall;
    CircuitOutcome outcome;
    try {
      gdf::core::Fogbuster flow(circuit.ctx, workload.options);
      std::vector<std::size_t> order;
      {
        Tracer::Scope span(tracer, "run.order");
        order = gdf::run::make_fault_order(*circuit.ctx, workload.order,
                                           workload.options);
      }
      if (pool != nullptr) {
        gdf::run::ShardConfig config;
        config.policy = gdf::run::ShardConfig::Policy::Forced;
        config.workers = workload.workers;
        Tracer::Scope span(tracer, "run.sharded");
        outcome.result = gdf::run::run_sharded(
            flow, order, *pool,
            gdf::run::shard_epoch_size(config, workload.workers));
      } else if (tracer == nullptr) {
        outcome.result = flow.run(order);
      } else {
        traced_sequential(flow, order, tracer, &outcome);
      }
    } catch (const std::exception& e) {
      outcome.error = e.what();
    }
    pass.circuits.push_back(std::move(outcome));
    pass.wall_s += wall.seconds();
    pass.cpu_s += process_cpu_seconds() - cpu0;
    if (after_circuit) {
      after_circuit();
    }
  }
  return pass;
}

void check_pass(const Workload& workload,
                const std::vector<Circuit>& circuits, const PassResult& pass,
                Checks* checks) {
  for (std::size_t c = 0; c < circuits.size(); ++c) {
    const CircuitOutcome& outcome = pass.circuits[c];
    const FogbusterResult& result = outcome.result;
    if (!outcome.error.empty()) {
      const auto faults =
          static_cast<long>(circuits[c].ctx->faults().size());
      checks->attempted += faults;
      checks->failed += faults;
      checks->problem(circuits[c].label + ": run failed: " + outcome.error);
      continue;
    }
    checks->attempted += result.stages.targeted;
    const gdf::alg::DelayAlgebra& algebra =
        circuits[c].ctx->algebra(workload.options.mode);
    for (const gdf::core::TestSequence& test : result.tests) {
      if (!gdf::core::verify_sequence(circuits[c].ctx->model(), algebra, test)
               .ok) {
        ++checks->failed;
      }
    }
    if (result.count(FaultStatus::Untested) != 0 ||
        result.tested() + result.untestable() + result.aborted() !=
            static_cast<int>(result.faults.size())) {
      checks->problem(circuits[c].label + ": faults left unclassified");
    }
  }
}

std::uint64_t verdict_digest(const PassResult& pass) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  for (const CircuitOutcome& outcome : pass.circuits) {
    for (const FaultStatus s : outcome.result.status) {
      mix(static_cast<std::uint64_t>(s));
    }
    mix(outcome.result.pattern_count);
    mix(outcome.result.tests.size());
    mix(outcome.error.size());
  }
  return h;
}

long tested_faults(const PassResult& pass) {
  long n = 0;
  for (const CircuitOutcome& outcome : pass.circuits) {
    n += outcome.result.tested();
  }
  return n;
}

long aborted_faults(const PassResult& pass) {
  long n = 0;
  for (const CircuitOutcome& outcome : pass.circuits) {
    n += outcome.result.aborted();
  }
  return n;
}

gdf::core::StageStats stage_totals(const PassResult& pass) {
  gdf::core::StageStats totals;
  for (const CircuitOutcome& outcome : pass.circuits) {
    totals.add(outcome.result.stages);
  }
  return totals;
}

gdf::tdgen::SearchCounters replay_tdgen(const Workload& workload,
                                        const std::vector<Circuit>& circuits,
                                        const PassResult& pass,
                                        Tracer* tracer) {
  const gdf::core::AtpgOptions& options = workload.options;
  gdf::tdgen::SearchCounters tally;
  for (std::size_t c = 0; c < circuits.size(); ++c) {
    const gdf::core::CircuitContext& ctx = *circuits[c].ctx;
    for (const Target& target : pass.circuits[c].targets) {
      // The flow's local options (Fogbuster::generate_for_fault), with a
      // fresh work budget per fault as the flow gives each target.
      gdf::tdgen::WorkBudget budget(options.fault_budget);
      gdf::tdgen::TdgenOptions local = options.local;
      local.tally = &tally;
      local.learn = options.learn != gdf::core::LearnMode::Off;
      local.learned_limit = options.learned_limit;
      local.work_budget = options.fault_budget > 0 ? &budget : nullptr;
      Tracer::Scope span(tracer, "tdgen.local");
      gdf::tdgen::TdgenSearch search(ctx.model(), ctx.algebra(options.mode),
                                     ctx.faults()[target.fault], local);
      gdf::tdgen::LocalTest test;
      search.next(&test);
    }
  }
  return tally;
}

void replay_sync(const Workload& workload,
                 const std::vector<Circuit>& circuits, const PassResult& pass,
                 Tracer* tracer, Checks* checks) {
  for (std::size_t c = 0; c < circuits.size(); ++c) {
    for (const gdf::core::TestSequence& test : pass.circuits[c].result.tests) {
      std::vector<std::pair<std::size_t, gdf::sim::Lv>> requirements;
      for (std::size_t k = 0; k < test.required_s0.size(); ++k) {
        if (test.required_s0[k] >= 0) {
          requirements.emplace_back(k, lv_of(test.required_s0[k]));
        }
      }
      gdf::semilet::Budget budget(workload.options.sequential);
      gdf::semilet::SyncResult sync;
      gdf::semilet::SeqStatus status = gdf::semilet::SeqStatus::Aborted;
      {
        Tracer::Scope span(tracer, "semilet.sync");
        gdf::semilet::Synchronizer synchronizer(circuits[c].ctx->flat(),
                                                budget);
        status = synchronizer.synchronize(std::move(requirements), &sync);
      }
      if (status != gdf::semilet::SeqStatus::Success ||
          sync.frames != test.init_frames) {
        checks->problem(circuits[c].label +
                        ": synchronizer replay does not reproduce a test's "
                        "synchronizing frames");
      }
    }
  }
}

long replay_verify(const Workload& workload,
                   const std::vector<Circuit>& circuits,
                   const PassResult& pass, Tracer* tracer) {
  long failures = 0;
  for (std::size_t c = 0; c < circuits.size(); ++c) {
    const gdf::core::CircuitContext& ctx = *circuits[c].ctx;
    const gdf::alg::DelayAlgebra& algebra =
        ctx.algebra(workload.options.mode);
    for (const gdf::core::TestSequence& test : pass.circuits[c].result.tests) {
      Tracer::Scope span(tracer, "verify");
      failures += gdf::core::verify_sequence(ctx.model(), algebra, test).ok
                      ? 0
                      : 1;
    }
  }
  return failures;
}

DropReplay replay_dropping(const Workload& workload,
                           const std::vector<Circuit>& circuits,
                           const PassResult& pass, Tracer* tracer,
                           Checks* checks) {
  const gdf::core::AtpgOptions& options = workload.options;
  DropReplay replay;
  for (std::size_t c = 0; c < circuits.size(); ++c) {
    const gdf::core::CircuitContext& ctx = *circuits[c].ctx;
    const CircuitOutcome& outcome = pass.circuits[c];
    const std::string& label = circuits[c].label;
    gdf::fausim::Fausim fausim(ctx.flat(), options.lanes);
    const gdf::tdsim::Tdsim tdsim(
        ctx.model(), ctx.algebra(options.mode),
        gdf::sim::packed_stem_lanes(
            gdf::sim::resolve_lane_count(options.lanes)));
    gdf::Rng fill(options.fill_seed);
    std::vector<FaultStatus> status(ctx.faults().size(),
                                    FaultStatus::Untested);
    std::size_t next_test = 0;
    bool agrees = true;
    for (const Target& target : outcome.targets) {
      if (status[target.fault] != FaultStatus::Untested) {
        agrees = false;
        break;
      }
      status[target.fault] = target.status;
      if (target.status != FaultStatus::Tested) {
        continue;
      }
      const gdf::core::TestSequence& test = outcome.result.tests[next_test++];
      gdf::fausim::Fausim::GoodTrace trace;
      {
        Tracer::Scope span(tracer, "fausim.good");
        trace = fausim.simulate_good(test.all_frames(), fill);
      }
      gdf::tdsim::TdsimRequest request;
      {
        Tracer::Scope span(tracer, "fausim.observability");
        request = gdf::core::make_tdsim_request(
            ctx.netlist(), fausim, trace, test.fast_index(), test.needed_ppos);
      }
      std::vector<std::size_t> untested;
      std::vector<gdf::tdgen::DelayFault> faults;
      for (std::size_t j = 0; j < status.size(); ++j) {
        if (status[j] == FaultStatus::Untested) {
          untested.push_back(j);
          faults.push_back(ctx.faults()[j]);
        }
      }
      std::vector<bool> detected;
      {
        Tracer::Scope span(tracer, "tdsim.cpt");
        detected = tdsim.detect_cpt(request, faults);
      }
      replay.faults_simulated += static_cast<long>(faults.size());
      std::vector<std::size_t> dropped;
      for (std::size_t t = 0; t < untested.size(); ++t) {
        if (detected[t]) {
          dropped.push_back(untested[t]);
          status[untested[t]] = FaultStatus::Tested;
        }
      }
      if (dropped != target.dropped) {
        agrees = false;
        break;
      }
    }
    const gdf::sim::KernelCounters kernels = fausim.take_kernel_counters();
    const gdf::sim::KernelCounters& flow = outcome.result.stages.sim;
    if (!agrees || status != outcome.result.status) {
      checks->problem(label + ": detect_cpt replay drops other faults than "
                              "merge_targeted");
    } else if (kernels.scalar_evals != flow.scalar_evals ||
               kernels.lane_evals_64 != flow.lane_evals_64 ||
               kernels.lane_evals_256 != flow.lane_evals_256 ||
               kernels.lane_evals_512 != flow.lane_evals_512) {
      checks->problem(label + ": fault-simulation replay kernel counters "
                              "differ from the flow's");
    }
    replay.kernels.add(kernels);
  }
  return replay;
}

TracedRun run_traced(const Workload& workload,
                     const std::vector<Circuit>& circuits,
                     gdf::run::ThreadPool* pool, Tracer* tracer,
                     Checks* checks) {
  TracedRun run;
  run.reference = run_pass(workload, circuits, pool, nullptr);
  check_pass(workload, circuits, run.reference, checks);
  const std::uint64_t digest = verdict_digest(run.reference);

  tracer->set_run(kFlowRun);
  {
    Tracer::Scope span(tracer, "flow");
    run.flow = run_pass(workload, circuits, pool, tracer);
  }
  check_pass(workload, circuits, run.flow, checks);
  if (verdict_digest(run.flow) != digest) {
    checks->problem("traced flow verdicts differ from the untraced run");
  }

  tracer->set_run(kReplayRun);
  if (pool != nullptr) {
    {
      Tracer::Scope span(tracer, "core.sequential");
      run.sequential = run_pass(workload, circuits, nullptr, tracer);
    }
    check_pass(workload, circuits, run.sequential, checks);
    if (verdict_digest(run.sequential) != digest) {
      checks->problem("sequential verdicts differ from the sharded run");
    }
  }
  const PassResult& seq = run.per_fault();
  run.replayed = replay_tdgen(workload, circuits, seq, tracer);
  replay_sync(workload, circuits, seq, tracer, checks);
  run.verify_failures = replay_verify(workload, circuits, seq, tracer);
  run.drops = replay_dropping(workload, circuits, seq, tracer, checks);
  return run;
}

}  // namespace perfbench
