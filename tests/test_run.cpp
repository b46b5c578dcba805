// The run/ layer: reentrant flows over a shared CircuitContext, the
// thread pool, fault-ordering policies, and the parallel sweep
// orchestrator's deterministic canonical-order emission.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/cancel.hpp"
#include "base/error.hpp"
#include "base/fault_injection.hpp"
#include "circuits/catalog.hpp"
#include "netlist/bench_io.hpp"
#include "core/fogbuster.hpp"
#include "run/fault_order.hpp"
#include "run/journal.hpp"
#include "run/shard.hpp"
#include "run/sweep.hpp"
#include "run/thread_pool.hpp"
#include "tdgen/tdgen.hpp"

namespace gdf::run {
namespace {

/// Summary equality: everything a Table-3/CSV row is built from.
void expect_same_result(const core::FogbusterResult& a,
                        const core::FogbusterResult& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.pattern_count, b.pattern_count);
  EXPECT_EQ(a.tests.size(), b.tests.size());
  EXPECT_EQ(a.stages.targeted, b.stages.targeted);
  EXPECT_EQ(a.stages.dropped, b.stages.dropped);
}

/// Full equality for the sharding contract: identical classification,
/// identical pattern sets (same targets, same frames, in the same order),
/// and identical stage counters — byte-identical CSV follows from this.
void expect_identical_runs(const core::FogbusterResult& a,
                           const core::FogbusterResult& b) {
  expect_same_result(a, b);
  EXPECT_EQ(a.stages.local_solutions, b.stages.local_solutions);
  EXPECT_EQ(a.stages.sync_attempts, b.stages.sync_attempts);
  EXPECT_EQ(a.stages.aborted_local, b.stages.aborted_local);
  EXPECT_EQ(a.stages.aborted_sequential, b.stages.aborted_sequential);
  EXPECT_EQ(a.stages.aborted_propagation, b.stages.aborted_propagation);
  EXPECT_EQ(a.stages.aborted_synchronization,
            b.stages.aborted_synchronization);
  EXPECT_EQ(a.stages.aborted_exhausted, b.stages.aborted_exhausted);
  ASSERT_EQ(a.tests.size(), b.tests.size());
  for (std::size_t k = 0; k < a.tests.size(); ++k) {
    EXPECT_EQ(a.tests[k].target, b.tests[k].target) << "test " << k;
    EXPECT_EQ(a.tests[k].all_frames(), b.tests[k].all_frames())
        << "test " << k;
    EXPECT_EQ(a.tests[k].required_s0, b.tests[k].required_s0)
        << "test " << k;
  }
}

TEST(CircuitContextTest, IsSharedAndStructurallyChecked) {
  const net::Netlist nl = circuits::load_circuit("s27");
  const auto ctx = core::CircuitContext::build(nl);
  EXPECT_GT(ctx->faults().size(), 0u);
  EXPECT_TRUE(ctx->structurally_compatible({}));

  core::AtpgOptions stems;
  stems.fault_sites.include_branches = false;
  EXPECT_FALSE(ctx->structurally_compatible(stems));
  EXPECT_THROW(core::Fogbuster(ctx, stems), Error);
}

// Two runs on one flow, two flows on one context, and a flow on a private
// context must all be bit-identical — the reentrancy contract.
TEST(FogbusterReentrancyTest, ReuseMatchesFreshRuns) {
  const net::Netlist nl = circuits::load_circuit("s27");
  const auto ctx = core::CircuitContext::build(nl);

  core::Fogbuster flow_a(ctx);
  const core::FogbusterResult first = flow_a.run();
  const core::FogbusterResult second = flow_a.run();
  expect_same_result(first, second);

  core::Fogbuster flow_b(ctx);
  expect_same_result(first, flow_b.run());

  expect_same_result(first, core::Fogbuster(nl).run());
}

TEST(FogbusterReentrancyTest, NonDefaultOptionsStayPerFlow) {
  const net::Netlist nl = circuits::load_circuit("s27");
  const auto ctx = core::CircuitContext::build(nl);

  core::AtpgOptions no_drop;
  no_drop.fault_dropping = false;
  core::Fogbuster dropping(ctx);
  core::Fogbuster no_dropping(ctx, no_drop);
  const core::FogbusterResult with = dropping.run();
  const core::FogbusterResult without = no_dropping.run();
  EXPECT_GT(without.stages.targeted, with.stages.targeted);
  EXPECT_EQ(without.stages.dropped, 0);
  // The shared context is untouched: rerunning the first flow still
  // reproduces its result.
  expect_same_result(with, dropping.run());
}

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.thread_count(), 4u);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&counter] { ++counter; });
    }
    // Destructor note: tasks queued at shutdown are dropped, so give the
    // pool a chance to drain by spinning on the counter.
    while (counter.load() < 100) {
    }
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ResolveJobs) {
  EXPECT_EQ(ThreadPool::resolve_jobs(3), 3u);
  EXPECT_GE(ThreadPool::resolve_jobs(0), 1u);
}

// Fork-join groups: wait() returns only after every group task ran, and
// the waiting thread helps — a single-threaded pool must complete a
// group whose wait() is issued from inside a pool task (the sharding
// pattern), which only works because the waiter drains its own group.
TEST(ThreadPoolTest, GroupWaitHelpsAndCompletes) {
  ThreadPool pool(1);
  std::atomic<int> outer{0};
  std::atomic<int> inner{0};
  ThreadPool::Group top;
  for (int i = 0; i < 8; ++i) {
    pool.submit(top, [&] {
      ThreadPool::Group nested;
      for (int k = 0; k < 4; ++k) {
        pool.submit(nested, [&inner] { ++inner; });
      }
      pool.wait(nested);  // helping: the sole worker is *this* thread
      ++outer;
    });
  }
  pool.wait(top);  // external-thread wait also helps
  EXPECT_EQ(outer.load(), 8);
  EXPECT_EQ(inner.load(), 32);
}

TEST(ThreadPoolTest, GroupIsReusableAfterWait) {
  ThreadPool pool(2);
  ThreadPool::Group group;
  std::atomic<int> counter{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 16; ++i) {
      pool.submit(group, [&counter] { ++counter; });
    }
    pool.wait(group);
    EXPECT_EQ(counter.load(), (round + 1) * 16);
  }
}

// wait(group, done) is the same helping join cut short. On a one-thread
// pool whose only worker is blocked, the waiter runs the oldest queued
// task itself and returns once the condition holds, with the later tasks
// still queued; a plain wait() then drains them, and the group stays
// reusable.
TEST(ThreadPoolTest, GroupWaitStopsOnceConditionHolds) {
  ThreadPool pool(1);
  std::atomic<bool> blocked{false};
  std::atomic<bool> unblock{false};
  pool.submit([&] {
    blocked = true;
    while (!unblock) {
      std::this_thread::yield();
    }
  });
  while (!blocked) {
    std::this_thread::yield();
  }

  ThreadPool::Group group;
  std::thread::id oldest_ran_on;
  std::atomic<bool> oldest_done{false};
  std::atomic<int> later{0};
  pool.submit(group, [&] {
    oldest_ran_on = std::this_thread::get_id();
    oldest_done.store(true, std::memory_order_release);
  });
  for (int i = 0; i < 3; ++i) {
    pool.submit(group, [&later] { ++later; });
  }
  pool.wait(group, [&] {
    return oldest_done.load(std::memory_order_acquire);
  });
  EXPECT_EQ(oldest_ran_on, std::this_thread::get_id());
  EXPECT_EQ(later.load(), 0);

  unblock = true;
  pool.wait(group);
  EXPECT_EQ(later.load(), 3);

  for (int i = 0; i < 4; ++i) {
    pool.submit(group, [&later] { ++later; });
  }
  pool.wait(group);
  EXPECT_EQ(later.load(), 7);
}

// Every group completion wakes a parked waiter, not only the last one:
// here the condition's task finishes while its sibling keeps running
// until the waiter has returned. A waiter woken only when the group
// drains would stay parked until the sibling gives up.
TEST(ThreadPoolTest, GroupWaitWakesOnEachCompletion) {
  ThreadPool pool(2);
  ThreadPool::Group group;
  std::atomic<int> running{0};
  std::atomic<bool> go{false};
  std::atomic<bool> first_done{false};
  std::atomic<bool> returned{false};
  std::atomic<bool> sibling_gave_up{false};
  pool.submit(group, [&] {
    ++running;
    while (!go) {
      std::this_thread::yield();
    }
    first_done = true;
  });
  pool.submit(group, [&] {
    ++running;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!returned) {
      if (std::chrono::steady_clock::now() > deadline) {
        sibling_gave_up = true;
        return;
      }
      std::this_thread::yield();
    }
  });
  while (running < 2) {  // both on the workers, nothing left to help with
    std::this_thread::yield();
  }
  pool.wait(group, [&] {
    go = true;
    return first_done.load();
  });
  returned = true;
  pool.wait(group);
  EXPECT_FALSE(sibling_gave_up);
}

TEST(ShardConfigTest, ParsesPolicies) {
  EXPECT_EQ(parse_shard_faults("off").policy, ShardConfig::Policy::Off);
  EXPECT_EQ(parse_shard_faults("auto").policy, ShardConfig::Policy::Auto);
  const ShardConfig forced = parse_shard_faults("6");
  EXPECT_EQ(forced.policy, ShardConfig::Policy::Forced);
  EXPECT_EQ(forced.workers, 6u);
  EXPECT_THROW(parse_shard_faults("0"), Error);
  EXPECT_THROW(parse_shard_faults("many"), Error);
}

TEST(ShardConfigTest, AutoGatesOnSizeAndPool) {
  ThreadPool wide(4);
  ThreadPool narrow(1);
  ShardConfig shard;
  shard.policy = ShardConfig::Policy::Auto;
  shard.min_faults = 100;
  EXPECT_EQ(shard_workers(shard, wide, 5000), 4u);
  EXPECT_EQ(shard_workers(shard, wide, 99), 0u);   // too small
  EXPECT_EQ(shard_workers(shard, narrow, 5000), 0u);  // no spare
  shard.policy = ShardConfig::Policy::Forced;
  shard.workers = 3;
  EXPECT_EQ(shard_workers(shard, narrow, 10), 3u);
  EXPECT_EQ(shard_epoch_size(shard, 3), 16u);  // 4x workers, floor 16
}

TEST(ShardConfigTest, ForcedWidthOneRunsSequential) {
  // --shard-faults 1 degenerates to the sequential loop plus the
  // window machinery — same bytes, pure overhead — so the gate
  // hands it to the plain loop. Width 2 still shards, even on a
  // one-thread pool (the orchestrating thread helps inside wait()).
  ThreadPool narrow(1);
  ThreadPool wide(4);
  ShardConfig shard;
  shard.policy = ShardConfig::Policy::Forced;
  shard.workers = 1;
  EXPECT_EQ(shard_workers(shard, narrow, 5000), 0u);
  EXPECT_EQ(shard_workers(shard, wide, 5000), 0u);
  shard.workers = 2;
  EXPECT_EQ(shard_workers(shard, narrow, 5000), 2u);
}

// The sharding contract: a sharded run is indistinguishable from the
// sequential run — same classifications, same pattern sets, same stage
// counters — for any pool width and any window size, including window 1
// (the degenerate in-order case), window 2 (the smallest in which the
// oldest slice can finish after the one behind it) and a pool of one
// (where helping does all the work).
TEST(ShardTest, EpochShardingMatchesSequential) {
  const net::Netlist nl = circuits::load_circuit("s298");
  const auto ctx = core::CircuitContext::build(nl);
  const core::FogbusterResult reference = core::Fogbuster(ctx).run();
  const std::vector<std::size_t> order =
      make_fault_order(*ctx, FaultOrder::Static, {});

  for (const unsigned pool_width : {1u, 4u}) {
    for (const std::size_t window :
         {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{64}}) {
      ThreadPool pool(pool_width);
      core::Fogbuster flow(ctx);
      expect_identical_runs(reference,
                            run_sharded(flow, order, pool, window));
    }
  }
}

// Sharding composes with non-static targeting orders (the permutation is
// what the window walks). s298 keeps this cheap under TSan; s344's sharded
// rows stay pinned by the determinism harness and WholeCatalogEquality.
TEST(ShardTest, ShardingComposesWithFaultOrders) {
  const net::Netlist nl = circuits::load_circuit("s298");
  const auto ctx = core::CircuitContext::build(nl);
  ThreadPool pool(3);
  for (const FaultOrder order :
       {FaultOrder::Static, FaultOrder::Random, FaultOrder::Adi}) {
    const std::vector<std::size_t> targets = make_fault_order(*ctx, order, {});
    core::Fogbuster sequential(ctx);
    core::Fogbuster flow(ctx);
    expect_identical_runs(sequential.run(targets),
                          run_sharded(flow, targets, pool, 10));
  }
}

// The acceptance sweep, in-process: every catalog circuit,
// sequential versus sharded, full tested/untestable/aborted/pattern-set
// equality. Reduced backtrack limits keep the runtime in check —
// test_determinism covers the paper configuration end to end.
// Skipped under ThreadSanitizer (order-of-magnitude slowdown would blow
// the suite timeout; the small-scope shard tests above give TSan the
// same concurrency coverage).
TEST(ShardTest, WholeCatalogEquality) {
#if defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "whole-catalog sweep is too slow under TSan";
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  GTEST_SKIP() << "whole-catalog sweep is too slow under TSan";
#endif
#endif
  core::AtpgOptions options;
  options.local.backtrack_limit = 20;
  options.sequential.backtrack_limit = 20;
  ThreadPool pool(4);
  for (const std::string& name : circuits::catalog_names()) {
    const net::Netlist nl = circuits::load_circuit(name);
    const auto ctx = core::CircuitContext::build(nl, options);
    core::Fogbuster sequential(ctx, options);
    core::Fogbuster sharded(ctx, options);
    expect_identical_runs(
        sequential.run(),
        run_sharded(sharded, {}, pool, shard_epoch_size({}, 4)));
  }
}

// Cancelling a sharded run with slices in flight: the token fires from
// another thread mid-run, run_sharded joins every in-flight slice and
// unwinds with a Cancelled error, and the same pool then runs a fresh
// sharded run that equals the sequential one.
TEST(ShardTest, CancelMidRunLeavesThePoolUsable) {
  const auto big =
      core::CircuitContext::build(circuits::load_circuit("s1196"));
  CancelToken cancel;
  core::AtpgOptions options;
  options.cancel = &cancel;
  ThreadPool pool(4);
  pool.set_cancel_token(&cancel);
  core::Fogbuster cancelled(big, options);
  std::thread firer([&cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    cancel.request();
  });
  try {
    run_sharded(cancelled, {}, pool, shard_epoch_size({}, 4));
    ADD_FAILURE() << "the sharded s1196 run outlived the cancel token";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Cancelled);
  }
  firer.join();

  pool.set_cancel_token(nullptr);
  const auto small =
      core::CircuitContext::build(circuits::load_circuit("s298"));
  core::Fogbuster fresh(small);
  expect_identical_runs(core::Fogbuster(small).run(),
                        run_sharded(fresh, {}, pool, shard_epoch_size({}, 4)));
}

TEST(FaultOrderTest, NamesRoundTrip) {
  for (const FaultOrder order :
       {FaultOrder::Static, FaultOrder::Random, FaultOrder::Adi}) {
    EXPECT_EQ(parse_fault_order(fault_order_name(order)), order);
  }
  EXPECT_THROW(parse_fault_order("alphabetical"), Error);
}

TEST(FaultOrderTest, PermutationsAreValidAndDeterministic) {
  const net::Netlist nl = circuits::load_circuit("s27");
  const auto ctx = core::CircuitContext::build(nl);
  const core::AtpgOptions options;
  for (const FaultOrder order :
       {FaultOrder::Static, FaultOrder::Random, FaultOrder::Adi}) {
    const std::vector<std::size_t> perm =
        make_fault_order(*ctx, order, options);
    EXPECT_EQ(perm.size(), ctx->faults().size());
    EXPECT_EQ(std::set<std::size_t>(perm.begin(), perm.end()).size(),
              perm.size())
        << fault_order_name(order) << " is not a permutation";
    EXPECT_EQ(perm, make_fault_order(*ctx, order, options));
  }
  // Static is the identity: same flow as the paper's setup.
  const std::vector<std::size_t> id =
      make_fault_order(*ctx, FaultOrder::Static, options);
  for (std::size_t i = 0; i < id.size(); ++i) {
    EXPECT_EQ(id[i], i);
  }
}

// Whatever the targeting order, the per-fault classification work is the
// same — only test count/pattern mix may shift. Sanity: every fault ends
// classified and the run completes.
TEST(FaultOrderTest, OrderedRunsClassifyEveryFault) {
  const net::Netlist nl = circuits::load_circuit("s27");
  const auto ctx = core::CircuitContext::build(nl);
  for (const FaultOrder order :
       {FaultOrder::Static, FaultOrder::Random, FaultOrder::Adi}) {
    const core::FogbusterResult result =
        core::Fogbuster(ctx).run(make_fault_order(*ctx, order, {}));
    EXPECT_EQ(result.status.size(), ctx->faults().size());
    for (const core::FaultStatus s : result.status) {
      EXPECT_NE(s, core::FaultStatus::Untested);
    }
  }
}

TEST(SweepSpecTest, ExpansionIsCanonicalAndCircuitMajor) {
  SweepSpec spec;
  spec.circuits = {CircuitSource::catalog("s27"),
                   CircuitSource::catalog("c17")};
  spec.backtrack_limits = {10, 100};
  spec.seeds = {1, 2, 3};
  EXPECT_EQ(spec.cells_per_circuit(), 6u);
  EXPECT_TRUE(spec.has_matrix());

  const std::vector<SweepJob> jobs = expand(spec);
  ASSERT_EQ(jobs.size(), 12u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].index, i);
    EXPECT_EQ(jobs[i].circuit.label, i < 6 ? "s27" : "c17");
  }
  // Seed-major before backtracks (axis declaration order).
  EXPECT_EQ(jobs[0].options.fill_seed, 1u);
  EXPECT_EQ(jobs[0].options.local.backtrack_limit, 10);
  EXPECT_EQ(jobs[1].options.local.backtrack_limit, 100);
  EXPECT_EQ(jobs[2].options.fill_seed, 2u);
  // Backtrack cells set both engines' limits.
  EXPECT_EQ(jobs[0].options.sequential.backtrack_limit, 10);
}

// A 'full' sites cell means the paper's fault model even when the base
// configuration disabled branches, so the CSV sites column never lies.
TEST(SweepSpecTest, SitesAxisOverridesBaseBranchConfig) {
  SweepSpec spec;
  spec.circuits = {CircuitSource::catalog("s27")};
  spec.base.fault_sites.include_branches = false;
  spec.full_sites = {true, false};
  const std::vector<SweepJob> jobs = expand(spec);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_TRUE(jobs[0].options.fault_sites.include_branches);
  EXPECT_FALSE(jobs[1].options.fault_sites.include_branches);
}

// A one-value axis says what the base option says: the two specs expand
// to the same job options, render the same CSV header and fingerprint the
// same, so the CLI spells each of these knobs only as an axis.
TEST(SweepSpecTest, SingleValuedAxisEqualsBaseOption) {
  SweepSpec plain;
  plain.circuits = {CircuitSource::catalog("s27"),
                    CircuitSource::catalog("c17")};
  const auto expect_same_sweep = [](const SweepSpec& by_base,
                                    const SweepSpec& by_axis) {
    EXPECT_EQ(sweep_csv_header(by_base), sweep_csv_header(by_axis));
    EXPECT_EQ(sweep_fingerprint(by_base, true),
              sweep_fingerprint(by_axis, true));
    const std::vector<SweepJob> a = expand(by_base);
    const std::vector<SweepJob> b = expand(by_axis);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      const core::AtpgOptions& x = a[i].options;
      const core::AtpgOptions& y = b[i].options;
      EXPECT_EQ(a[i].circuit.label, b[i].circuit.label);
      EXPECT_EQ(a[i].order, b[i].order);
      EXPECT_EQ(x.mode, y.mode);
      EXPECT_EQ(x.fill_seed, y.fill_seed);
      EXPECT_EQ(x.local.backtrack_limit, y.local.backtrack_limit);
      EXPECT_EQ(x.sequential.backtrack_limit, y.sequential.backtrack_limit);
      EXPECT_EQ(x.sequential.max_propagation_frames,
                y.sequential.max_propagation_frames);
      EXPECT_EQ(x.sequential.max_sync_frames, y.sequential.max_sync_frames);
      EXPECT_EQ(x.fault_dropping, y.fault_dropping);
      EXPECT_EQ(x.fault_sites, y.fault_sites);
      EXPECT_EQ(x.learn, y.learn);
      EXPECT_EQ(x.fault_budget, y.fault_budget);
    }
  };

  SweepSpec by_base = plain;
  SweepSpec by_axis = plain;
  by_base.base.mode = alg::Mode::NonRobust;
  by_axis.modes = {alg::Mode::NonRobust};
  expect_same_sweep(by_base, by_axis);

  by_base = by_axis = plain;
  by_base.base.fill_seed = 7;
  by_axis.seeds = {7};
  expect_same_sweep(by_base, by_axis);

  by_base = by_axis = plain;
  by_base.base.local.backtrack_limit = 50;
  by_base.base.sequential.backtrack_limit = 50;
  by_axis.backtrack_limits = {50};
  expect_same_sweep(by_base, by_axis);

  by_base = by_axis = plain;
  by_base.base.fault_dropping = false;
  by_axis.fault_dropping = {false};
  expect_same_sweep(by_base, by_axis);

  by_base = by_axis = plain;
  by_base.base.fault_sites.include_branches = false;
  by_axis.full_sites = {false};
  expect_same_sweep(by_base, by_axis);
}

TEST(SweepSpecTest, SingleCellKeepsLegacyCsvLayout) {
  SweepSpec spec;
  spec.circuits = {CircuitSource::catalog("s27")};
  EXPECT_EQ(sweep_csv_header(spec),
            "circuit,tested,untestable,aborted,patterns,seconds");
  spec.include_seconds = false;
  EXPECT_EQ(sweep_csv_header(spec),
            "circuit,tested,untestable,aborted,patterns");
  spec.modes = {alg::Mode::Robust, alg::Mode::NonRobust};
  EXPECT_EQ(sweep_csv_header(spec),
            "circuit,mode,order,seed,backtracks,dropping,sites,"
            "tested,untestable,aborted,patterns");
}

std::string csv_of_sweep(SweepSpec spec, unsigned jobs) {
  spec.jobs = jobs;
  spec.include_seconds = false;
  std::string out = sweep_csv_header(spec) + "\n";
  run_sweep(spec, [&](const SweepRow& row) {
    out += format_sweep_csv_row(spec, row) + "\n";
  });
  return out;
}

// The tentpole determinism contract: a multi-circuit (matrix) sweep emits
// byte-identical CSV at --jobs 1 and --jobs 4.
TEST(SweepOrchestratorTest, JobCountDoesNotChangeTheBytes) {
  SweepSpec spec;
  spec.circuits = {CircuitSource::catalog("s27"),
                   CircuitSource::catalog("c17")};
  spec.backtrack_limits = {10, 100};
  spec.fault_dropping = {true, false};

  const std::string serial = csv_of_sweep(spec, 1);
  const std::string parallel = csv_of_sweep(spec, 4);
  EXPECT_EQ(serial, parallel);
  // 2 circuits × 2 backtracks × 2 dropping = 8 rows + header.
  EXPECT_EQ(static_cast<int>(
                std::count(serial.begin(), serial.end(), '\n')),
            9);
}

// File-backed catalog: a .bench file in the bench dir overrides the
// generated substitute; absent files fall back silently.
TEST(FileBackedCatalogTest, BenchDirOverridesGeneratedCircuits) {
  const std::string dir = ::testing::TempDir() + "gdf_bench_dir";
  std::filesystem::create_directories(dir);
  // Masquerade c17's netlist as "s344": if the override is honored, the
  // loaded circuit has c17's size, not the generated s344 profile's.
  const net::Netlist c17 = circuits::load_circuit("c17");
  {
    std::ofstream out(dir + "/s344.bench");
    out << net::write_bench(c17);
  }
  const net::Netlist overridden = circuits::load_circuit("s344", dir);
  EXPECT_EQ(overridden.size(), c17.size());
  const net::Netlist fallback = circuits::load_circuit("s386", dir);
  EXPECT_EQ(fallback.size(), circuits::load_circuit("s386").size());
  // Explicit --bench-dir wins over the environment.
  EXPECT_EQ(circuits::resolve_bench_dir(dir), dir);
  std::filesystem::remove_all(dir);
}

// Every sweep cell runs on its own: a matrix cell's counters and its
// --stages block equal those of the same cell swept alone, and the CSV is
// identical for any worker count.
TEST(SweepOrchestratorTest, MatrixCellsMatchSingleCellRuns) {
  SweepSpec spec;
  spec.circuits = {CircuitSource::catalog("s298")};
  spec.seeds = {1995, 7, 23};
  spec.include_seconds = false;

  auto run_with_jobs = [&](const SweepSpec& base, unsigned jobs) {
    SweepSpec s = base;
    s.jobs = jobs;
    std::string csv = sweep_csv_header(s) + "\n";
    std::vector<SweepRow> rows;
    run_sweep(s, [&](const SweepRow& row) {
      csv += format_sweep_csv_row(s, row) + "\n";
      rows.push_back(row);
    });
    return std::pair(csv, rows);
  };

  const auto [csv1, rows1] = run_with_jobs(spec, 1);
  const auto [csv4, rows4] = run_with_jobs(spec, 4);
  EXPECT_EQ(csv1, csv4);
  ASSERT_EQ(rows1.size(), spec.seeds.size());
  ASSERT_EQ(rows4.size(), spec.seeds.size());

  for (std::size_t k = 0; k < spec.seeds.size(); ++k) {
    SweepSpec single = spec;
    single.seeds = {spec.seeds[k]};
    const std::vector<SweepRow> alone = run_with_jobs(single, 1).second;
    ASSERT_EQ(alone.size(), 1u);
    for (const SweepRow* row : {&rows1[k], &rows4[k]}) {
      EXPECT_EQ(row->job.options.fill_seed, spec.seeds[k]);
      EXPECT_EQ(row->table.tested, alone[0].table.tested);
      EXPECT_EQ(row->table.untestable, alone[0].table.untestable);
      EXPECT_EQ(row->table.aborted, alone[0].table.aborted);
      EXPECT_EQ(row->table.patterns, alone[0].table.patterns);
      EXPECT_EQ(core::format_stage_stats(row->stages),
                core::format_stage_stats(alone[0].stages))
          << "seed " << spec.seeds[k];
    }
  }
}

// Sharding through the sweep front door: auto policy with a threshold
// low enough to trigger, bytes identical to the shard-off sweep.
TEST(SweepOrchestratorTest, ShardedSweepKeepsTheBytes) {
  SweepSpec spec;
  spec.circuits = {CircuitSource::catalog("s27"),
                   CircuitSource::catalog("s298")};
  spec.fault_dropping = {true, false};

  SweepSpec off = spec;
  off.shard.policy = ShardConfig::Policy::Off;
  SweepSpec sharded = spec;
  sharded.shard.policy = ShardConfig::Policy::Auto;
  sharded.shard.min_faults = 1;  // everything qualifies
  sharded.jobs = 4;

  const std::string a = csv_of_sweep(off, 4);
  const std::string b = csv_of_sweep(sharded, 4);
  EXPECT_EQ(a, b);
}

TEST(SweepOrchestratorTest, ErrorsSurfaceOnTheCallingThread) {
  SweepSpec spec;
  spec.circuits = {CircuitSource::catalog("no-such-circuit")};
  EXPECT_THROW(run_sweep(spec, [](const SweepRow&) {}), Error);
}

TEST(ErrorPolicyTest, ParsesPolicies) {
  EXPECT_EQ(parse_on_error("abort").mode, ErrorPolicy::Mode::Abort);
  EXPECT_EQ(parse_on_error("skip").mode, ErrorPolicy::Mode::Skip);
  const ErrorPolicy retry = parse_on_error("retry:3");
  EXPECT_EQ(retry.mode, ErrorPolicy::Mode::Retry);
  EXPECT_EQ(retry.retries, 3);
  EXPECT_THROW(parse_on_error("retry:0"), Error);
  EXPECT_THROW(parse_on_error("retry:"), Error);
  EXPECT_THROW(parse_on_error("ignore"), Error);
}

TEST(ErrorPolicyTest, ErrorRowBytesAreDeterministic) {
  SweepRow row;
  row.job.index = 7;
  row.job.circuit.label = "s298";
  row.error = "cannot open bench file 's298.bench'";
  row.error_kind = ErrorKind::Resource;
  EXPECT_EQ(format_sweep_error_row(row),
            "# error: circuit=s298 cell=7 kind=resource: "
            "cannot open bench file 's298.bench'");
}

TEST(WorkBudgetTest, CountsChargesAndExhaustsPastTheLimit) {
  tdgen::WorkBudget budget(10);
  EXPECT_EQ(budget.remaining(), 10);
  budget.charge(10);
  EXPECT_FALSE(budget.exhausted());  // mirrors backtracks_ > limit
  budget.charge(1);
  EXPECT_TRUE(budget.exhausted());
}

TEST(JournalTest, RecordsAndReplaysRows) {
  const std::string path = ::testing::TempDir() + "gdf_journal_basic.j";
  std::filesystem::remove(path);
  {
    SweepJournal journal;
    journal.open(path, 0xabcdULL, false);
    EXPECT_TRUE(journal.active());
    journal.record(0, "s27,20,6,0,14");
    journal.record(1, "c17,22,0,0,12");
  }
  SweepJournal resumed;
  resumed.open(path, 0xabcdULL, true);
  ASSERT_EQ(resumed.completed().size(), 2u);
  EXPECT_EQ(resumed.completed()[0].first, 0u);
  EXPECT_EQ(resumed.completed()[0].second, "s27,20,6,0,14");
  EXPECT_EQ(resumed.completed()[1].second, "c17,22,0,0,12");
  std::filesystem::remove(path);
}

TEST(JournalTest, RefusesAForeignFingerprint) {
  const std::string path = ::testing::TempDir() + "gdf_journal_foreign.j";
  std::filesystem::remove(path);
  {
    SweepJournal journal;
    journal.open(path, 1ULL, false);
    journal.record(0, "row");
  }
  SweepJournal resumed;
  try {
    resumed.open(path, 2ULL, true);
    FAIL() << "fingerprint mismatch did not throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Input);
    EXPECT_NE(std::string(e.what()).find("different sweep configuration"),
              std::string::npos);
  }
  std::filesystem::remove(path);
}

TEST(JournalTest, TornTailIsDiscardedOnResume) {
  const std::string path = ::testing::TempDir() + "gdf_journal_torn.j";
  std::filesystem::remove(path);
  {
    SweepJournal journal;
    journal.open(path, 9ULL, false);
    journal.record(0, "s27,20,6,0,14");
    // Injected mid-write kill: the next record is half a line, no
    // newline — what a real SIGKILL between write() and completion
    // leaves behind.
    ::setenv("GDF_FI", "journal-truncate", 1);
    fi::reset_for_testing();
    journal.record(1, "c17,22,0,0,12");
    ::unsetenv("GDF_FI");
    fi::reset_for_testing();
  }
  SweepJournal resumed;
  resumed.open(path, 9ULL, true);
  ASSERT_EQ(resumed.completed().size(), 1u);  // torn record discarded
  EXPECT_EQ(resumed.completed()[0].second, "s27,20,6,0,14");
  // Appends continue a well-formed file: re-record the lost row, reopen.
  resumed.record(1, "c17,22,0,0,12");
  resumed.close();
  SweepJournal again;
  again.open(path, 9ULL, true);
  EXPECT_EQ(again.completed().size(), 2u);
  std::filesystem::remove(path);
}

TEST(SweepFingerprintTest, PinsJobListAndLayout) {
  SweepSpec spec;
  spec.circuits = {CircuitSource::catalog("s27")};
  const std::uint64_t base = sweep_fingerprint(spec, true);
  EXPECT_EQ(base, sweep_fingerprint(spec, true));  // stable
  EXPECT_NE(base, sweep_fingerprint(spec, false));  // layout matters
  SweepSpec seeded = spec;
  seeded.base.fill_seed = 7;
  EXPECT_NE(base, sweep_fingerprint(seeded, true));
  SweepSpec budgeted = spec;
  budgeted.base.fault_budget = 100;
  EXPECT_NE(base, sweep_fingerprint(budgeted, true));
  // The flow version and the per-job option fields are hashed in, so a
  // journal written before a change that moved verdicts, or before the
  // hashed field list changed, is refused. A change that moves verdicts
  // bumps journal.cpp's kFlowVersion; either change moves this value.
  // Deleting the learned-clause store moved it last: kFlowVersion went to
  // 4 and the learned-limit field left the hashed list.
  EXPECT_EQ(base, 0xd587beb15726b9e3ULL);
}

class SweepFaultInjectionTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ::unsetenv("GDF_FI");
    fi::reset_for_testing();
  }

  static SweepSpec three_circuits() {
    SweepSpec spec;
    spec.circuits = {CircuitSource::catalog("s27"),
                     CircuitSource::catalog("c17"),
                     CircuitSource::catalog("s298")};
    spec.include_seconds = false;
    spec.jobs = 2;
    return spec;
  }

  static std::vector<std::string> rows_of(const SweepSpec& spec,
                                          SweepStats* stats = nullptr) {
    std::vector<std::string> rows;
    const SweepStats s = run_sweep(spec, [&](const SweepRow& row) {
      rows.push_back(row.error.empty() ? format_sweep_csv_row(spec, row)
                                       : format_sweep_error_row(row));
    });
    if (stats != nullptr) {
      *stats = s;
    }
    return rows;
  }
};

// The failure-isolation contract: an injected failure under --on-error
// skip changes that cell's row into a deterministic `# error:` line and
// nothing else — every other row keeps its exact bytes and position.
TEST_F(SweepFaultInjectionTest, SkipIsolatesTheFailingCell) {
  const std::vector<std::string> reference = rows_of(three_circuits());
  ASSERT_EQ(reference.size(), 3u);

  ::setenv("GDF_FI", "cell-throw:c17", 1);
  fi::reset_for_testing();
  SweepSpec spec = three_circuits();
  spec.on_error = parse_on_error("skip");
  SweepStats stats;
  const std::vector<std::string> rows = rows_of(spec, &stats);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0], reference[0]);
  EXPECT_EQ(rows[1],
            "# error: circuit=c17 cell=1 kind=resource: "
            "fault injection: forced failure for cell 'c17'");
  EXPECT_EQ(rows[2], reference[2]);
  EXPECT_EQ(stats.error_cells, 1);
  EXPECT_EQ(stats.emitted, 3);
  EXPECT_FALSE(stats.interrupted);
}

// Under the default abort policy the same injected failure is rethrown at
// its canonical position — the pre-policy fail-fast behavior.
TEST_F(SweepFaultInjectionTest, AbortRethrowsTheFirstFailure) {
  ::setenv("GDF_FI", "cell-throw:c17", 1);
  fi::reset_for_testing();
  const SweepSpec spec = three_circuits();
  try {
    rows_of(spec);
    FAIL() << "aborting sweep did not throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Resource);
  }
}

// retry:N re-runs Resource failures with bounded backoff; a fault that
// clears within the budget leaves no trace in the rows.
TEST_F(SweepFaultInjectionTest, RetryRecoversTransientFailures) {
  const std::vector<std::string> reference = rows_of(three_circuits());

  ::setenv("GDF_FI", "cell-throw:c17:2", 1);
  fi::reset_for_testing();
  SweepSpec spec = three_circuits();
  spec.on_error = parse_on_error("retry:3");
  SweepStats stats;
  const std::vector<std::string> rows = rows_of(spec, &stats);
  EXPECT_EQ(rows, reference);
  EXPECT_EQ(stats.error_cells, 0);
  EXPECT_EQ(stats.retries, 2);  // two injected failures, third try wins
}

// A failed circuit *load* under skip yields error rows for every cell of
// that circuit; the other circuits are untouched.
TEST_F(SweepFaultInjectionTest, LoadFailureMarksTheWholeCircuit) {
  const std::vector<std::string> reference = rows_of(three_circuits());

  // The generated catalog never reads files, so point c17 at a bench
  // path the read-fail directive matches.
  ::setenv("GDF_FI", "read-fail:flaky", 1);
  fi::reset_for_testing();
  SweepSpec spec = three_circuits();
  spec.circuits[1] = CircuitSource::file("/tmp/flaky_c17.bench");
  spec.on_error = parse_on_error("skip");
  SweepStats stats;
  const std::vector<std::string> rows = rows_of(spec, &stats);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0], reference[0]);
  EXPECT_NE(rows[1].find("# error: circuit=flaky_c17 cell=1 "
                         "kind=resource:"),
            std::string::npos)
      << rows[1];
  EXPECT_EQ(rows[2], reference[2]);
  EXPECT_EQ(stats.error_cells, 1);
}

// A cancel token that fired before the sweep starts drains to an empty
// partial result instead of running anything (the SIGINT-before-work
// case).
TEST(SweepCancelTest, PreFiredTokenYieldsEmptyInterruptedRun) {
  CancelToken cancel;
  cancel.request();
  SweepSpec spec;
  spec.circuits = {CircuitSource::catalog("s27"),
                   CircuitSource::catalog("c17")};
  spec.include_seconds = false;
  spec.cancel = &cancel;
  spec.base.cancel = &cancel;
  long emitted = 0;
  const SweepStats stats =
      run_sweep(spec, [&](const SweepRow&) { ++emitted; });
  EXPECT_TRUE(stats.interrupted);
  EXPECT_EQ(emitted, 0);
  EXPECT_EQ(stats.emitted, 0);
  EXPECT_EQ(stats.total_cells, 2);
}

// resume_done replays cells without recomputing them: the replayed cell
// comes back flagged (the caller re-emits its journaled text) and the
// fresh cells keep their exact bytes.
TEST(SweepResumeTest, ReplayedCellsAreNotRecomputed) {
  SweepSpec spec;
  spec.circuits = {CircuitSource::catalog("s27"),
                   CircuitSource::catalog("c17")};
  spec.include_seconds = false;
  std::vector<std::string> reference;
  run_sweep(spec, [&](const SweepRow& row) {
    reference.push_back(format_sweep_csv_row(spec, row));
  });

  SweepSpec resumed = spec;
  resumed.resume_done = {0};
  std::vector<std::pair<bool, std::string>> rows;
  const SweepStats stats = run_sweep(resumed, [&](const SweepRow& row) {
    rows.emplace_back(row.replayed,
                      row.replayed ? std::string()
                                   : format_sweep_csv_row(resumed, row));
  });
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_TRUE(rows[0].first);
  EXPECT_FALSE(rows[1].first);
  EXPECT_EQ(rows[1].second, reference[1]);
  EXPECT_EQ(stats.replayed_cells, 1);
  EXPECT_EQ(stats.emitted, 2);

  SweepSpec bad = spec;
  bad.resume_done = {5};
  EXPECT_THROW(run_sweep(bad, [](const SweepRow&) {}), Error);
}

}  // namespace
}  // namespace gdf::run
