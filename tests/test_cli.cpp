// The gdf_atpg argument parser and the --bench round trip.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "base/error.hpp"
#include "circuits/catalog.hpp"
#include "cli/args.hpp"
#include "core/delay_atpg.hpp"
#include "netlist/bench_io.hpp"

namespace gdf::cli {
namespace {

DriverConfig parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"gdf_atpg"};
  argv.insert(argv.end(), args.begin(), args.end());
  return parse_args(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgsTest, BenchFilesAreCollected) {
  const DriverConfig config =
      parse({"--bench", "a.bench", "-b", "b.bench"});
  ASSERT_EQ(config.bench_files.size(), 2u);
  EXPECT_EQ(config.bench_files[0], "a.bench");
  EXPECT_EQ(config.bench_files[1], "b.bench");
}

TEST(ArgsTest, BenchAloneIsEnoughToRun) {
  EXPECT_NO_THROW(parse({"--bench", "x.bench"}));
  EXPECT_THROW(parse({"--csv"}), Error);
}

TEST(ArgsTest, UsageMentionsNewFlags) {
  const std::string text = usage();
  EXPECT_NE(text.find("--bench"), std::string::npos);
  EXPECT_NE(text.find("--jobs"), std::string::npos);
  EXPECT_NE(text.find("--fault-order"), std::string::npos);
  EXPECT_NE(text.find("--bench-dir"), std::string::npos);
  EXPECT_NE(text.find("--shard-faults"), std::string::npos);
  EXPECT_NE(text.find("--learn"), std::string::npos);
  EXPECT_NE(text.find("--learned-limit"), std::string::npos);
  EXPECT_NE(text.find("--on-error"), std::string::npos);
  EXPECT_NE(text.find("--fault-budget"), std::string::npos);
  EXPECT_NE(text.find("--journal"), std::string::npos);
  EXPECT_NE(text.find("--resume"), std::string::npos);
}

TEST(ArgsTest, RobustExecutionFlags) {
  const DriverConfig defaults = parse({"--all"});
  EXPECT_EQ(defaults.on_error.mode, run::ErrorPolicy::Mode::Abort);
  EXPECT_EQ(defaults.atpg.fault_budget, 0);
  EXPECT_TRUE(defaults.journal.empty());
  EXPECT_FALSE(defaults.resume);

  const DriverConfig skip = parse({"--all", "--on-error", "skip"});
  EXPECT_EQ(skip.on_error.mode, run::ErrorPolicy::Mode::Skip);
  const DriverConfig retry = parse({"--all", "--on-error", "retry:2"});
  EXPECT_EQ(retry.on_error.mode, run::ErrorPolicy::Mode::Retry);
  EXPECT_EQ(retry.on_error.retries, 2);
  EXPECT_THROW(parse({"--all", "--on-error", "retry:0"}), Error);
  EXPECT_THROW(parse({"--all", "--on-error", "never"}), Error);

  EXPECT_EQ(parse({"--all", "--fault-budget", "5000"}).atpg.fault_budget,
            5000);
  EXPECT_THROW(parse({"--all", "--fault-budget", "0"}), Error);

  const DriverConfig journaled =
      parse({"--all", "--journal", "run.j", "--resume"});
  EXPECT_EQ(journaled.journal, "run.j");
  EXPECT_TRUE(journaled.resume);
  // --resume without a journal has nothing to replay; --stages output is
  // not journaled, so the combination could not resume faithfully.
  EXPECT_THROW(parse({"--all", "--resume"}), Error);
  EXPECT_THROW(parse({"--all", "--journal", "run.j", "--stages"}), Error);
}

TEST(ArgsTest, RobustFlagsReachTheSweepSpec) {
  const DriverConfig config = parse(
      {"--circuit", "s27", "--on-error", "skip", "--journal", "run.j"});
  const run::SweepSpec spec = sweep_spec(config);
  EXPECT_EQ(spec.on_error.mode, run::ErrorPolicy::Mode::Skip);
}

TEST(ArgsTest, LearnModeChoices) {
  EXPECT_EQ(parse({"--all"}).atpg.learn, core::LearnMode::On);
  EXPECT_EQ(parse({"--all", "--learn", "on"}).atpg.learn,
            core::LearnMode::On);
  EXPECT_EQ(parse({"--all", "--learn", "off"}).atpg.learn,
            core::LearnMode::Off);
  EXPECT_THROW(parse({"--all", "--learn", "maybe"}), Error);
  EXPECT_EQ(parse({"--all"}).atpg.learned_limit, 512);
  EXPECT_EQ(parse({"--all", "--learned-limit", "64"}).atpg.learned_limit,
            64);
}

TEST(ArgsTest, DeletedModesAreInputErrors) {
  for (const auto& args :
       {std::initializer_list<const char*>{"--all", "--learn", "shared"},
        std::initializer_list<const char*>{"--all", "--per-fault-seconds",
                                           "1"},
        std::initializer_list<const char*>{"--all", "--adi-sequences", "8"},
        std::initializer_list<const char*>{"--all", "--restarts", "off"},
        std::initializer_list<const char*>{"--all", "--restart-base", "8"},
        std::initializer_list<const char*>{"--all", "--lanes", "64"},
        std::initializer_list<const char*>{"--all", "--shard-epoch", "8"},
        std::initializer_list<const char*>{"--all", "--tdsim", "exact"},
        std::initializer_list<const char*>{"--all", "--decision-limit",
                                           "5"}}) {
    try {
      parse(args);
      ADD_FAILURE() << "accepted " << *(args.begin() + 1);
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::Input) << e.what();
    }
  }
}

TEST(ArgsTest, ShardFlags) {
  const DriverConfig defaults = parse({"--all"});
  EXPECT_EQ(defaults.shard.policy, run::ShardConfig::Policy::Auto);

  const DriverConfig forced = parse({"--all", "--shard-faults", "8"});
  EXPECT_EQ(forced.shard.policy, run::ShardConfig::Policy::Forced);
  EXPECT_EQ(forced.shard.workers, 8u);
  EXPECT_EQ(sweep_spec(forced).shard, forced.shard);
  EXPECT_EQ(parse({"--all", "--shard-faults", "off"}).shard.policy,
            run::ShardConfig::Policy::Off);

  EXPECT_THROW(parse({"--all", "--shard-faults", "sideways"}), Error);
  EXPECT_THROW(parse({"--all", "--shard-faults", "0"}), Error);
  // A sweep that can shard starts this many threads, so the bound is
  // checked here and never by starting one.
  EXPECT_EQ(parse({"--all", "--shard-faults", "1024"}).shard.workers, 1024u);
  EXPECT_THROW(parse({"--all", "--shard-faults", "1025"}), Error);
  EXPECT_THROW(run::parse_shard_faults("1025"), Error);
}

TEST(ArgsTest, JobsAndBenchDir) {
  const DriverConfig config =
      parse({"--all", "--jobs", "4", "--bench-dir", "/tmp/iscas"});
  EXPECT_EQ(config.jobs, 4u);
  EXPECT_EQ(sweep_spec(config).jobs, 4u);
  EXPECT_EQ(config.bench_dir, "/tmp/iscas");
  EXPECT_EQ(parse({"--all"}).jobs, 0u);  // 0 = hardware concurrency
  EXPECT_EQ(parse({"--all", "--jobs", "1024"}).jobs, 1024u);
  EXPECT_THROW(parse({"--all", "--jobs", "1025"}), Error);
  EXPECT_THROW(parse({"--all", "-j", "100000"}), Error);
}

TEST(ArgsTest, MatrixAxesAreCommaLists) {
  const DriverConfig config = parse(
      {"--all", "--csv", "--backtracks", "10,100", "--modes",
       "robust,nonrobust", "--fault-order", "static,adi", "--seeds", "1,2",
       "--dropping", "on,off", "--fault-sites", "full,stems"});
  EXPECT_EQ(config.backtrack_limits, (std::vector<int>{10, 100}));
  EXPECT_EQ(config.modes,
            (std::vector<alg::Mode>{alg::Mode::Robust,
                                    alg::Mode::NonRobust}));
  EXPECT_EQ(config.fault_orders,
            (std::vector<run::FaultOrder>{run::FaultOrder::Static,
                                          run::FaultOrder::Adi}));
  EXPECT_EQ(config.seeds, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(config.fault_dropping, (std::vector<bool>{true, false}));
  EXPECT_EQ(config.full_sites, (std::vector<bool>{true, false}));
  EXPECT_EQ(sweep_spec(config).cells_per_circuit(), 64u);
}

TEST(ArgsTest, MatrixRequiresCsv) {
  EXPECT_THROW(parse({"--all", "--backtracks", "10,100"}), Error);
  EXPECT_NO_THROW(parse({"--all", "--csv", "--backtracks", "10,100"}));
  // A single-valued axis is not a matrix and stays text-table friendly.
  EXPECT_NO_THROW(parse({"--all", "--fault-order", "adi"}));
}

TEST(ArgsTest, BadAxisValuesThrow) {
  EXPECT_THROW(parse({"--all", "--csv", "--modes", "fast"}), Error);
  EXPECT_THROW(parse({"--all", "--csv", "--fault-order", "best"}), Error);
  EXPECT_THROW(parse({"--all", "--csv", "--dropping", "maybe"}), Error);
  EXPECT_THROW(parse({"--all", "--csv", "--fault-sites", "none"}), Error);
  EXPECT_THROW(parse({"--all", "--csv", "--seeds", "1,,2"}), Error);
}

// --bench round trip: a catalog circuit serialized to .bench and loaded
// back is accepted and runs through the same flow.
TEST(BenchFileSmokeTest, WrittenBenchFileLoadsAndRuns) {
  const net::Netlist original = circuits::load_circuit("s27");
  const std::string path = ::testing::TempDir() + "gdf_cli_s27.bench";
  {
    std::ofstream out(path);
    out << net::write_bench(original);
  }
  const net::Netlist loaded = net::read_bench_file(path);
  EXPECT_EQ(loaded.size(), original.size());
  const core::FogbusterResult result = core::run_delay_atpg(loaded);
  EXPECT_GT(result.tested(), 0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gdf::cli
