// The golden-judged determinism harness. Each entry is a gdf_atpg argument
// list run in-process through gdf_atpg's own path (cli::parse_args fills
// the run::SweepSpec that run::run_sweep runs) and rendered exactly as
// `gdf_atpg ... --csv --no-seconds` prints it. The bytes must equal a
// committed golden CSV, or that golden's header and its rows for the
// circuits swept; entries list circuits in golden (catalog) order so the
// kept rows line up.
//
// Behaviour entries (default, --learn off, --fault-budget, --modes
// nonrobust) pin verdicts to their golden. Invariance entries vary only what must not move the bytes
// (--jobs, --shard-faults, the implication schedule) and name the golden
// of the behaviour they vary, so no configuration runs just to produce a
// reference.
//
// tests/CMakeLists.txt registers this binary under one ctest per scope,
// each a gtest filter over the instantiation prefixes below:
//   cli_learning_determinism        Learning/*: --learn off over the
//                                   whole catalog
//   cli_shard_determinism           Shard/*: the default over the whole
//                                   catalog, unsharded and sharded
//   cli_learning_determinism_small  LearningSmall/*: those three points
//                                   on s27, s298 and c17, and
//                                   --modes nonrobust
//   cli_jobs_determinism            Jobs/*: the worker count alone
//   cli_shard_determinism_small     ShardSmall/*: sharding alone
//   cli_budget_determinism          BudgetAxis.*
//   cli_fixpoint_determinism        Fixpoint/*, under GDF_FULL_FIXPOINT=1
//   cli_fixpoint_determinism_small  FixpointSmall/*, likewise
//   test_determinism                Goldens.*: checks on the goldens
//                                   themselves, no sweep
// The whole-catalog scopes run three sweeps at the paper configuration;
// the sanitizer CI jobs run the small ones.
//
// A mismatch prints the produced CSV and the expected rows in full. A
// change that moves verdicts on purpose regenerates the golden with the
// command next to its name below.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "base/string_util.hpp"
#include "cli/args.hpp"
#include "run/sweep.hpp"
#include "tdgen/implication.hpp"

namespace gdf {
namespace {

// gdf_atpg --all --csv --no-seconds
constexpr const char* kDefault = "golden_catalog.csv";
// gdf_atpg --all --csv --no-seconds --learn off
constexpr const char* kLearnOff = "golden_catalog_learn_off.csv";
// gdf_atpg -c s298 -c s344 --csv --no-seconds --fault-budget 3000
constexpr const char* kBudget = "golden_budget.csv";
// gdf_atpg -c s27 -c s298 -c s386 -c c17 --csv --no-seconds
//     --modes nonrobust
constexpr const char* kNonRobust = "golden_nonrobust.csv";

struct Entry {
  const char* name;
  const char* golden;
  /// gdf_atpg arguments; the harness appends --csv --no-seconds.
  std::vector<const char*> args;
  /// Must run under GDF_FULL_FIXPOINT=1 (the exhaustive schedule).
  bool full_fixpoint = false;
};

void PrintTo(const Entry& entry, std::ostream* os) {
  *os << "gdf_atpg";
  for (const char* arg : entry.args) {
    *os << ' ' << arg;
  }
  *os << " --csv --no-seconds  [" << entry.golden << ']';
}

std::string read_golden(const char* name) {
  const std::string path = std::string(GDF_GOLDEN_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// The golden's header plus its rows for `circuits`, in golden order.
std::string golden_rows(const char* name,
                        const std::set<std::string>& circuits) {
  std::istringstream in(read_golden(name));
  std::string kept;
  std::string line;
  for (bool header = true; std::getline(in, line); header = false) {
    if (header || circuits.count(line.substr(0, line.find(','))) > 0) {
      kept += line + "\n";
    }
  }
  return kept;
}

struct Sweep {
  std::string csv;
  std::vector<run::SweepRow> rows;
};

/// Runs `entry` the way gdf_atpg does and judges its bytes against the
/// golden.
Sweep run_entry(const Entry& entry) {
  std::vector<const char*> argv = {"gdf_atpg"};
  argv.insert(argv.end(), entry.args.begin(), entry.args.end());
  argv.push_back("--csv");
  argv.push_back("--no-seconds");
  const run::SweepSpec spec =
      cli::parse_args(static_cast<int>(argv.size()), argv.data()).spec;

  Sweep sweep;
  run::run_sweep(
      spec,
      [&](const run::SweepRow& row) {
        sweep.csv += run::format_sweep_csv_row(spec, row) + "\n";
        sweep.rows.push_back(row);
      },
      [&] { sweep.csv += run::sweep_csv_header(spec) + "\n"; });

  std::set<std::string> circuits;
  for (const run::CircuitSource& source : spec.circuits) {
    circuits.insert(source.label);
  }
  const std::string expected = golden_rows(entry.golden, circuits);
  EXPECT_TRUE(sweep.csv == expected)
      << "=== produced ===\n"
      << sweep.csv << "=== expected (tests/" << entry.golden << ") ===\n"
      << expected;
  return sweep;
}

class Determinism : public ::testing::TestWithParam<Entry> {};

TEST_P(Determinism, MatchesGolden) {
  if (GetParam().full_fixpoint) {
    // The schedule is read once per process from the environment; without
    // it this entry would rerun the incremental schedule and prove nothing.
    ASSERT_TRUE(tdgen::full_fixpoint_requested())
        << "run under GDF_FULL_FIXPOINT=1 "
           "(ctest cli_fixpoint_determinism[_small])";
  }
  run_entry(GetParam());
}

std::string entry_name(const ::testing::TestParamInfo<Entry>& info) {
  return info.param.name;
}

// The whole catalog at the paper configuration, three sweeps: --learn off
// on unsharded workers, and the default at one worker and with forced
// four-way sharding.
INSTANTIATE_TEST_SUITE_P(
    Learning, Determinism,
    ::testing::Values(Entry{"LearnOff_Jobs3_ShardOff",
                            kLearnOff,
                            {"--all", "--learn", "off", "--jobs", "3",
                             "--shard-faults", "off"}}),
    entry_name);

INSTANTIATE_TEST_SUITE_P(
    Shard, Determinism,
    ::testing::Values(
        Entry{"Default_Jobs1", kDefault, {"--all", "--jobs", "1"}},
        Entry{"Default_Jobs4_Shard4",
              kDefault,
              {"--all", "--jobs", "4", "--shard-faults", "4"}}),
    entry_name);

// The whole-catalog points on s27, s298 and c17, and the non-robust
// algebra's rows (no whole-catalog scope runs that mode) on s27, s298,
// s386 and c17, sharded.
INSTANTIATE_TEST_SUITE_P(
    LearningSmall, Determinism,
    ::testing::Values(
        Entry{"Default_Jobs1",
              kDefault,
              {"-c", "s27", "-c", "s298", "-c", "c17", "--jobs", "1"}},
        Entry{"Default_Jobs4_Shard4",
              kDefault,
              {"-c", "s27", "-c", "s298", "-c", "c17", "--jobs", "4",
               "--shard-faults", "4"}},
        Entry{"LearnOff_Jobs3_ShardOff",
              kLearnOff,
              {"-c", "s27", "-c", "s298", "-c", "c17", "--learn", "off",
               "--jobs", "3", "--shard-faults", "off"}},
        Entry{"NonRobust_Jobs4_Shard4",
              kNonRobust,
              {"-c", "s27", "-c", "s298", "-c", "s386", "-c", "c17",
               "--modes", "nonrobust", "--jobs", "4", "--shard-faults",
               "4"}}),
    entry_name);

// The worker count alone on s27 and c17 (--jobs 4 shards automatically).
INSTANTIATE_TEST_SUITE_P(
    Jobs, Determinism,
    ::testing::Values(
        Entry{"S27C17_Jobs1",
              kDefault,
              {"-c", "s27", "-c", "c17", "--jobs", "1"}},
        Entry{"S27C17_Jobs4",
              kDefault,
              {"-c", "s27", "-c", "c17", "--jobs", "4"}}),
    entry_name);

// Sharding alone on s298 and s344.
INSTANTIATE_TEST_SUITE_P(
    ShardSmall, Determinism,
    ::testing::Values(
        Entry{"S298S344_Jobs2_ShardOff",
              kDefault,
              {"-c", "s298", "-c", "s344", "--jobs", "2", "--shard-faults",
               "off"}},
        Entry{"S298S344_Jobs2_Shard4",
              kDefault,
              {"-c", "s298", "-c", "s344", "--jobs", "2", "--shard-faults",
               "4"}}),
    entry_name);

// The exhaustive implication schedule must reproduce the incremental
// one's rows. Both schedules reach the same fixpoint, which is all the
// chronological search (--learn off) reads. The default search also
// analyzes each conflict along the implication trail, whose order the
// schedule changes, so its backjumps and decision activities could
// differ in principle; the small scope pins that they do not on s27 and
// s298.
INSTANTIATE_TEST_SUITE_P(
    Fixpoint, Determinism,
    ::testing::Values(Entry{"LearnOff",
                            kLearnOff,
                            {"-c", "s298", "-c", "s344", "-c", "s386", "-c",
                             "s420", "--learn", "off"},
                            true}),
    entry_name);

INSTANTIATE_TEST_SUITE_P(
    FixpointSmall, Determinism,
    ::testing::Values(Entry{"LearnOff_Jobs2",
                            kLearnOff,
                            {"-c", "s27", "-c", "s298", "--learn", "off",
                             "--jobs", "2"},
                            true},
                      Entry{"Default_Jobs2",
                            kDefault,
                            {"-c", "s27", "-c", "s298", "--jobs", "2"},
                            true}),
    entry_name);

// --fault-budget: the abort point is a pure function of the fault, so the
// budgeted rows and their budget-abort attribution are identical at every
// (jobs, shard) point. The budget must bite without starving the search:
// every row tests faults and aborts some on the budget, and the rows
// differ from the unbudgeted ones.
TEST(BudgetAxis, BitesAndIsShardAndJobsInvariant) {
  std::vector<long> first_budget_aborts;
  for (const char* jobs : {"1", "4"}) {
    for (const char* shard : {"off", "4"}) {
      const Entry entry{"", kBudget,
                        {"-c", "s298", "-c", "s344", "--fault-budget",
                         "3000", "--jobs", jobs, "--shard-faults", shard}};
      SCOPED_TRACE(::testing::PrintToString(entry));
      const Sweep sweep = run_entry(entry);
      std::vector<long> budget_aborts;
      for (const run::SweepRow& row : sweep.rows) {
        EXPECT_GT(row.table.tested, 0) << row.job.circuit.label;
        EXPECT_GT(row.stages.aborted_budget, 0) << row.job.circuit.label;
        budget_aborts.push_back(row.stages.aborted_budget);
      }
      if (first_budget_aborts.empty()) {
        first_budget_aborts = budget_aborts;
      }
      EXPECT_EQ(budget_aborts, first_budget_aborts);
    }
  }
  EXPECT_NE(golden_rows(kBudget, {"s298", "s344"}),
            golden_rows(kDefault, {"s298", "s344"}));
}

struct GoldenRow {
  std::string circuit;
  long tested = 0;
  long untestable = 0;
  long aborted = 0;
};

std::vector<GoldenRow> parse_golden(const char* name) {
  std::istringstream in(read_golden(name));
  std::vector<GoldenRow> rows;
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    const std::vector<std::string> cells = split(line, ',');
    EXPECT_EQ(cells.size(), 5u) << name << ": " << line;
    if (cells.size() == 5) {
      rows.push_back({cells[0], std::stol(cells[1]), std::stol(cells[2]),
                      std::stol(cells[3])});
    }
  }
  return rows;
}

// Learning moves faults between columns but keeps every circuit's fault
// total, and over the catalog it never aborts more than the chronological
// search. Checked on the committed goldens, so a regenerated pair stays
// honest without another sweep.
TEST(Goldens, LearningKeepsFaultTotalsAndAbortsNoMore) {
  const std::vector<GoldenRow> on = parse_golden(kDefault);
  const std::vector<GoldenRow> off = parse_golden(kLearnOff);
  ASSERT_EQ(on.size(), off.size());
  long on_aborted = 0;
  long off_aborted = 0;
  for (std::size_t i = 0; i < on.size(); ++i) {
    ASSERT_EQ(on[i].circuit, off[i].circuit);
    EXPECT_EQ(on[i].tested + on[i].untestable + on[i].aborted,
              off[i].tested + off[i].untestable + off[i].aborted)
        << on[i].circuit;
    on_aborted += on[i].aborted;
    off_aborted += off[i].aborted;
  }
  EXPECT_LE(on_aborted, off_aborted);
}

}  // namespace
}  // namespace gdf
