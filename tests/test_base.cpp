#include <gtest/gtest.h>

#include <cstdlib>
#include <set>

#include "base/cancel.hpp"
#include "base/error.hpp"
#include "base/fault_injection.hpp"
#include "base/rng.hpp"
#include "base/string_util.hpp"
#include "base/timer.hpp"

namespace gdf {
namespace {

TEST(Error, CheckThrowsWithMessage) {
  EXPECT_NO_THROW(check(true, "fine"));
  try {
    check(false, "bad thing");
    FAIL() << "expected gdf::Error";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "bad thing");
  }
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowCoversRange) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(rng.next_below(8));
  }
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NextInInclusiveBounds) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.next_in(5, 7);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 7u);
  }
}

TEST(Rng, NextInFullDomainDoesNotOverflow) {
  // Regression: next_in(0, UINT64_MAX) used to compute next_below(0) via
  // wrap-around and trip the assertion.
  Rng rng(17);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 100; ++i) {
    seen.insert(rng.next_in(0, UINT64_MAX));
  }
  EXPECT_GT(seen.size(), 1u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_GE(rng.next_in(1, UINT64_MAX), 1u);
    EXPECT_LE(rng.next_in(0, UINT64_MAX - 1), UINT64_MAX - 1);
  }
  EXPECT_EQ(rng.next_in(UINT64_MAX, UINT64_MAX), UINT64_MAX);
}

TEST(Rng, PercentZeroAndHundred) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.next_percent(0));
    EXPECT_TRUE(rng.next_percent(100));
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(15);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(trim("  abc  "), "abc");
  EXPECT_EQ(trim("abc"), "abc");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("\t a b \n"), "a b");
}

TEST(StringUtil, Split) {
  const auto pieces = split("a, b ,c", ',');
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[1], "b");
  EXPECT_EQ(pieces[2], "c");
}

TEST(StringUtil, SplitKeepsEmptyPieces) {
  const auto pieces = split("a,,b", ',');
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[1], "");
}

TEST(StringUtil, ToLower) {
  EXPECT_EQ(to_lower("NaNd"), "nand");
  EXPECT_EQ(to_lower("G17"), "g17");
}

TEST(StringUtil, StartsWith) {
  EXPECT_TRUE(starts_with("INPUT(G0)", "INPUT"));
  EXPECT_FALSE(starts_with("IN", "INPUT"));
}

TEST(StringUtil, Padding) {
  EXPECT_EQ(pad_left("7", 4), "   7");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("12345", 3), "12345");
}

TEST(Stopwatch, MeasuresNonNegativeTime) {
  Stopwatch sw;
  EXPECT_GE(sw.seconds(), 0.0);
  sw.reset();
  EXPECT_GE(sw.millis(), 0.0);
}

TEST(ErrorTaxonomy, KindsNameAndDefault) {
  EXPECT_STREQ(error_kind_name(ErrorKind::Input), "input");
  EXPECT_STREQ(error_kind_name(ErrorKind::Resource), "resource");
  EXPECT_STREQ(error_kind_name(ErrorKind::Internal), "internal");
  EXPECT_STREQ(error_kind_name(ErrorKind::Cancelled), "cancelled");
  const Error plain("boom");
  EXPECT_EQ(plain.kind(), ErrorKind::Input);
  const Error typed(ErrorKind::Resource, "disk");
  EXPECT_EQ(typed.kind(), ErrorKind::Resource);
}

TEST(ErrorTaxonomy, CheckHelpersTagTheirKind) {
  try {
    check(false, "bad input");
    FAIL() << "check did not throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Input);
  }
  try {
    check_resource(false, "bad io");
    FAIL() << "check_resource did not throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Resource);
  }
  try {
    throw_cancelled();
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Cancelled);
  }
}

TEST(CancelTokenTest, LatchesAndFreeFunctionHandlesNull) {
  CancelToken token;
  EXPECT_FALSE(token.requested());
  EXPECT_FALSE(cancel_requested(&token));
  EXPECT_FALSE(cancel_requested(nullptr));
  token.request();
  EXPECT_TRUE(token.requested());
  EXPECT_TRUE(cancel_requested(&token));
  token.request();  // idempotent
  EXPECT_TRUE(token.requested());
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ::unsetenv("GDF_FI");
    fi::reset_for_testing();
  }
};

TEST_F(FaultInjectionTest, DisabledWithoutEnv) {
  ::unsetenv("GDF_FI");
  fi::reset_for_testing();
  EXPECT_FALSE(fi::enabled());
  EXPECT_NO_THROW(fi::fire_cell_throw("s27"));
  EXPECT_NO_THROW(fi::fire_read_fail("/any/path.bench"));
  EXPECT_FALSE(fi::fire_journal_truncate());
}

TEST_F(FaultInjectionTest, CellThrowHonorsLabelAndLimit) {
  ::setenv("GDF_FI", "cell-throw:s27:2", 1);
  fi::reset_for_testing();
  EXPECT_TRUE(fi::enabled());
  EXPECT_NO_THROW(fi::fire_cell_throw("c17"));  // other labels untouched
  for (int i = 0; i < 2; ++i) {
    try {
      fi::fire_cell_throw("s27");
      FAIL() << "armed cell-throw did not fire";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::Resource);
    }
  }
  // The [:2] budget is spent; the probe is inert now — exactly what an
  // --on-error retry:N run recovers from.
  EXPECT_NO_THROW(fi::fire_cell_throw("s27"));
  fi::reset_for_testing();  // re-arms
  EXPECT_THROW(fi::fire_cell_throw("s27"), Error);
}

TEST_F(FaultInjectionTest, ReadFailMatchesSubstring) {
  ::setenv("GDF_FI", "read-fail:missing", 1);
  fi::reset_for_testing();
  EXPECT_NO_THROW(fi::fire_read_fail("/tmp/present.bench"));
  try {
    fi::fire_read_fail("/tmp/missing.bench");
    FAIL() << "armed read-fail did not fire";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Resource);
  }
}

TEST_F(FaultInjectionTest, JournalTruncateFiresOnce) {
  ::setenv("GDF_FI", "journal-truncate", 1);
  fi::reset_for_testing();
  EXPECT_TRUE(fi::fire_journal_truncate());
  EXPECT_FALSE(fi::fire_journal_truncate());
}

TEST_F(FaultInjectionTest, StallReturnsEarlyOnCancel) {
  ::setenv("GDF_FI", "stall:s27:60000", 1);
  fi::reset_for_testing();
  CancelToken cancel;
  cancel.request();
  const Stopwatch sw;
  fi::fire_stall("s27", &cancel);  // must not sleep the full minute
  EXPECT_LT(sw.seconds(), 5.0);
}

}  // namespace
}  // namespace gdf
