#include <gtest/gtest.h>

#include "base/error.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/builder.hpp"
#include "netlist/fanout.hpp"
#include "netlist/levelize.hpp"
#include "netlist/stats.hpp"
#include "netlist/validate.hpp"

namespace gdf::net {
namespace {

Netlist tiny() {
  NetlistBuilder b("tiny");
  b.input("a").input("b");
  b.output("y");
  b.gate("n", GateType::Nand, {"a", "b"});
  b.gate("y", GateType::Not, {"n"});
  return b.build();
}

TEST(GateTypeTest, ParseIsCaseInsensitive) {
  EXPECT_EQ(parse_gate_type("nand"), GateType::Nand);
  EXPECT_EQ(parse_gate_type("NAND"), GateType::Nand);
  EXPECT_EQ(parse_gate_type("BuFf"), GateType::Buf);
  EXPECT_EQ(parse_gate_type("dff"), GateType::Dff);
  EXPECT_THROW(parse_gate_type("latch"), Error);
}

TEST(GateTypeTest, InvertingClassification) {
  EXPECT_TRUE(is_inverting(GateType::Nand));
  EXPECT_TRUE(is_inverting(GateType::Nor));
  EXPECT_TRUE(is_inverting(GateType::Not));
  EXPECT_TRUE(is_inverting(GateType::Xnor));
  EXPECT_FALSE(is_inverting(GateType::And));
  EXPECT_FALSE(is_inverting(GateType::Buf));
}

TEST(BuilderTest, BuildsSmallCircuit) {
  const Netlist nl = tiny();
  EXPECT_EQ(nl.size(), 4u);
  EXPECT_EQ(nl.inputs().size(), 2u);
  EXPECT_EQ(nl.outputs().size(), 1u);
  EXPECT_EQ(nl.dffs().size(), 0u);
  const GateId n = nl.find("n");
  ASSERT_NE(n, kNoGate);
  EXPECT_EQ(nl.gate(n).type, GateType::Nand);
  EXPECT_EQ(nl.gate(n).fanin.size(), 2u);
  EXPECT_TRUE(nl.is_po(nl.find("y")));
  EXPECT_FALSE(nl.is_po(n));
}

TEST(BuilderTest, ForwardReferencesResolve) {
  NetlistBuilder b("fwd");
  b.input("a");
  b.output("y");
  b.gate("y", GateType::Not, {"later"});
  b.gate("later", GateType::Buf, {"a"});
  const Netlist nl = b.build();
  EXPECT_EQ(nl.gate(nl.find("y")).fanin[0], nl.find("later"));
}

TEST(BuilderTest, RejectsDuplicateNet) {
  NetlistBuilder b("dup");
  b.input("a");
  b.gate("a", GateType::Not, {"a"});
  EXPECT_THROW(b.build(), Error);
}

TEST(BuilderTest, RejectsUndefinedFanin) {
  NetlistBuilder b("undef");
  b.input("a");
  b.output("y");
  b.gate("y", GateType::Not, {"ghost"});
  EXPECT_THROW(b.build(), Error);
}

TEST(BuilderTest, RejectsUndefinedOutput) {
  NetlistBuilder b("badpo");
  b.input("a");
  b.output("ghost");
  EXPECT_THROW(b.build(), Error);
}

TEST(BuilderTest, RejectsWrongArity) {
  NetlistBuilder b("arity");
  b.input("a");
  b.input("b");
  b.output("y");
  b.gate("y", GateType::Not, {"a", "b"});
  EXPECT_THROW(b.build(), Error);
}

TEST(BenchIoTest, ParsesBasicFile) {
  const Netlist nl = parse_bench(R"(
# comment
INPUT(a)
INPUT(b)
OUTPUT(y)
s = DFF(y)
y = NAND(a, b)
)",
                                 "demo");
  EXPECT_EQ(nl.name(), "demo");
  EXPECT_EQ(nl.inputs().size(), 2u);
  EXPECT_EQ(nl.dffs().size(), 1u);
  EXPECT_EQ(nl.gate(nl.find("s")).fanin[0], nl.find("y"));
}

TEST(BenchIoTest, ReportsLineNumbers) {
  try {
    parse_bench("INPUT(a)\nbogus line\n", "x");
    FAIL() << "expected parse error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(BenchIoTest, RoundTripPreservesStructure) {
  const Netlist original = tiny();
  const Netlist reparsed = parse_bench(write_bench(original), "tiny");
  EXPECT_EQ(reparsed.size(), original.size());
  EXPECT_EQ(reparsed.inputs().size(), original.inputs().size());
  EXPECT_EQ(reparsed.outputs().size(), original.outputs().size());
  const GateId n = reparsed.find("n");
  ASSERT_NE(n, kNoGate);
  EXPECT_EQ(reparsed.gate(n).type, GateType::Nand);
}

TEST(LevelizeTest, LevelsAreMonotone) {
  const Netlist nl = tiny();
  const Levelization lev = levelize(nl);
  EXPECT_EQ(lev.order.size(), nl.size());
  for (GateId id = 0; id < nl.size(); ++id) {
    for (const GateId d : nl.gate(id).fanin) {
      if (nl.gate(id).type != GateType::Dff) {
        EXPECT_LT(lev.level[d], lev.level[id]);
      }
    }
  }
  EXPECT_EQ(lev.depth, 2);
}

TEST(LevelizeTest, DetectsCombinationalCycle) {
  NetlistBuilder b("cyc");
  b.input("a");
  b.output("y");
  b.gate("y", GateType::And, {"a", "z"});
  b.gate("z", GateType::Not, {"y"});
  const Netlist nl = b.build();
  EXPECT_THROW(levelize(nl), Error);
}

TEST(LevelizeTest, DffFeedbackIsLegal) {
  NetlistBuilder b("ff");
  b.input("a");
  b.output("q");
  b.dff("q", "d");
  b.gate("d", GateType::And, {"a", "q"});
  const Netlist nl = b.build();
  EXPECT_NO_THROW(levelize(nl));
}

TEST(DistanceTest, ObservationDistance) {
  const Netlist nl = tiny();
  const auto dist = distance_to_observation(nl);
  EXPECT_EQ(dist[nl.find("y")], 0);
  EXPECT_EQ(dist[nl.find("n")], 1);
  EXPECT_EQ(dist[nl.find("a")], 2);
}

TEST(FanoutTest, ExpansionInsertsBranches) {
  NetlistBuilder b("fan");
  b.input("a");
  b.output("y");
  b.output("z");
  b.gate("y", GateType::Not, {"a"});
  b.gate("z", GateType::Buf, {"a"});
  const Netlist nl = b.build();
  EXPECT_EQ(count_fanout_branches(nl), 2u);
  const Netlist ex = expand_fanout_branches(nl);
  EXPECT_EQ(ex.size(), nl.size() + 2);
  const GateId b0 = ex.find("a$b0");
  const GateId b1 = ex.find("a$b1");
  ASSERT_NE(b0, kNoGate);
  ASSERT_NE(b1, kNoGate);
  EXPECT_TRUE(ex.gate(b0).is_branch);
  // Each reader now sees its own branch.
  EXPECT_EQ(ex.gate(ex.find("y")).fanin[0], b0);
  EXPECT_EQ(ex.gate(ex.find("z")).fanin[0], b1);
  EXPECT_TRUE(validate(ex).ok());
}

TEST(FanoutTest, SingleReaderNetsUntouched) {
  const Netlist nl = tiny();
  const Netlist ex = expand_fanout_branches(nl);
  EXPECT_EQ(ex.size(), nl.size());
}

TEST(ValidateTest, AcceptsGoodCircuit) {
  EXPECT_TRUE(validate(tiny()).ok());
}

TEST(ValidateTest, WarnsOnDanglingGate) {
  NetlistBuilder b("dangle");
  b.input("a");
  b.output("y");
  b.gate("y", GateType::Not, {"a"});
  b.gate("dead", GateType::Buf, {"a"});
  const auto report = validate(b.build());
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.warnings.size(), 1u);
}

TEST(StatsTest, CountsTiny) {
  const NetlistStats s = compute_stats(tiny());
  EXPECT_EQ(s.primary_inputs, 2u);
  EXPECT_EQ(s.primary_outputs, 1u);
  EXPECT_EQ(s.logic_gates, 2u);
  EXPECT_EQ(s.inverters, 1u);
  EXPECT_EQ(s.depth, 2);
}

// Malformed-.bench corpus: every failure mode must surface as a
// structured Input error whose message names the offending source line,
// so a bad file in a thousand-circuit sweep is diagnosable from its
// `# error:` row alone.

/// Runs `body`, asserts it throws gdf::Error of kind Input, and returns
/// the message.
template <typename Fn>
std::string input_error_of(Fn&& body) {
  try {
    body();
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Input);
    return e.what();
  }
  ADD_FAILURE() << "expected a gdf::Error";
  return "";
}

TEST(BenchCorpusTest, TruncatedLineNamesTheLine) {
  const std::string msg = input_error_of(
      [] { parse_bench("INPUT(a)\nOUTPUT(y)\ny = NAND(a", "trunc"); });
  EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
}

TEST(BenchCorpusTest, DuplicateGateNamesTheLine) {
  const std::string msg = input_error_of([] {
    parse_bench(
        "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUF(a)\n", "dup");
  });
  EXPECT_NE(msg.find("'y' defined twice"), std::string::npos) << msg;
  EXPECT_NE(msg.find("(line 4)"), std::string::npos) << msg;
}

TEST(BenchCorpusTest, UndefinedFaninNamesTheLine) {
  const std::string msg = input_error_of([] {
    parse_bench("INPUT(a)\nOUTPUT(y)\ny = NAND(a, ghost)\n", "undef");
  });
  EXPECT_NE(msg.find("undefined net 'ghost'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("(line 3)"), std::string::npos) << msg;
}

TEST(BenchCorpusTest, UndefinedOutputNamesTheLine) {
  const std::string msg = input_error_of(
      [] { parse_bench("INPUT(a)\nOUTPUT(y)\n", "noout"); });
  EXPECT_NE(msg.find("'y' is never defined"), std::string::npos) << msg;
  EXPECT_NE(msg.find("(line 2)"), std::string::npos) << msg;
}

TEST(BenchCorpusTest, CombinationalCycleFailsValidation) {
  const Netlist nl = parse_bench(
      "INPUT(i)\nOUTPUT(a)\na = NAND(i, b)\nb = NOT(a)\n", "cyc");
  const std::string msg =
      input_error_of([&] { validate_or_throw(nl); });
  EXPECT_NE(msg.find("cycle"), std::string::npos) << msg;
}

TEST(BenchCorpusTest, EmptyFileFailsValidation) {
  const Netlist nl = parse_bench("", "empty");
  const std::string msg =
      input_error_of([&] { validate_or_throw(nl); });
  EXPECT_NE(msg.find("no primary inputs"), std::string::npos) << msg;
}

TEST(BenchCorpusTest, MissingFileIsAResourceError) {
  try {
    read_bench_file("/nonexistent/gdf-no-such-file.bench");
    FAIL() << "missing file did not throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Resource);
  }
}

}  // namespace
}  // namespace gdf::net
