#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>

#include "common/escape.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/str_util.h"

namespace rox {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad thing");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Result<int> Halve(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  ROX_ASSIGN_OR_RETURN(int h, Halve(x));
  ROX_ASSIGN_OR_RETURN(int q, Halve(h));
  return q;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Quarter(8), 2);
  EXPECT_FALSE(Quarter(6).ok());
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 3);
}

TEST(RngTest, BelowIsInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.Below(17), 17u);
}

TEST(RngTest, BetweenIsInclusive) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.Between(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all five values hit
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(13);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  Rng rng(15);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, SampleWithoutReplacementBasics) {
  Rng rng(17);
  auto s = rng.SampleWithoutReplacement(100, 10);
  ASSERT_EQ(s.size(), 10u);
  for (size_t i = 1; i < s.size(); ++i) EXPECT_LT(s[i - 1], s[i]);
  for (uint64_t v : s) EXPECT_LT(v, 100u);
}

TEST(RngTest, SampleWithoutReplacementWholePopulation) {
  Rng rng(19);
  auto s = rng.SampleWithoutReplacement(5, 10);
  ASSERT_EQ(s.size(), 5u);
  for (uint64_t i = 0; i < 5; ++i) EXPECT_EQ(s[i], i);
}

TEST(RngTest, SampleWithoutReplacementUniform) {
  Rng rng(21);
  std::vector<int> hits(10, 0);
  for (int trial = 0; trial < 5000; ++trial) {
    for (uint64_t v : rng.SampleWithoutReplacement(10, 3)) ++hits[v];
  }
  for (int h : hits) EXPECT_NEAR(h / 5000.0, 0.3, 0.05);
}

TEST(RngTest, ZipfInRangeAndSkewed) {
  Rng rng(23);
  std::vector<int> hits(50, 0);
  for (int i = 0; i < 20000; ++i) {
    uint64_t v = rng.Zipf(50, 1.0);
    ASSERT_LT(v, 50u);
    ++hits[v];
  }
  // Rank 0 must dominate rank 25 decisively under s=1.
  EXPECT_GT(hits[0], hits[25] * 5);
}

TEST(RngTest, ZipfZeroExponentIsUniform) {
  Rng rng(25);
  std::vector<int> hits(10, 0);
  for (int i = 0; i < 20000; ++i) ++hits[rng.Zipf(10, 0.0)];
  for (int h : hits) EXPECT_NEAR(h / 20000.0, 0.1, 0.02);
}

TEST(RngTest, ForkIsIndependent) {
  Rng a(31);
  Rng b = a.Fork();
  // Forked stream should not track the parent.
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 3);
}

TEST(StrUtilTest, StrCat) {
  EXPECT_EQ(StrCat("a", 1, "b", 2.5), "a1b2.5");
}

TEST(StrUtilTest, StrJoinAndSplit) {
  EXPECT_EQ(StrJoin({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(StrJoin({}, ","), "");
  auto parts = StrSplit("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
}

TEST(StrUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(EndsWith("ar", "bar"));
}

TEST(StrUtilTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(12 * 1024), "12.0 KB");
  EXPECT_EQ(HumanBytes(1100 * 1024), "1.1 MB");
}

TEST(StrUtilTest, HumanCount) {
  EXPECT_EQ(HumanCount(950), "950");
  EXPECT_EQ(HumanCount(43500), "43.5K");
  EXPECT_EQ(HumanCount(1200000), "1.2M");
}

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControls) {
  std::string out;
  AppendJsonEscaped(&out, "a\"b\\c\nd");
  EXPECT_EQ(out, "a\\\"b\\\\c\\nd");

  // Every byte, one at a time, against the JSON string grammar: quote
  // and backslash escaped, \n \r \t by name, other controls as
  // lowercase \u00xx, everything else (UTF-8 bytes included) verbatim.
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    std::string want;
    if (c == '"' || c == '\\') {
      want = {'\\', c};
    } else if (c == '\n') {
      want = "\\n";
    } else if (c == '\r') {
      want = "\\r";
    } else if (c == '\t') {
      want = "\\t";
    } else if (b < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", b);
      want = buf;
    } else {
      want = std::string(1, c);
    }
    std::string got;
    AppendJsonEscaped(&got, std::string_view(&c, 1));
    EXPECT_EQ(got, want) << "byte " << b;
  }
}

TEST(JsonEscapeTest, CopiesCleanRunsAroundReplacements) {
  std::string out = "prefix:";
  AppendJsonEscaped(&out, "");
  AppendJsonEscaped(&out, "\x01" "caf\xc3\xa9 \"x\"\t");
  EXPECT_EQ(out, "prefix:\\u0001caf\xc3\xa9 \\\"x\\\"\\t");

  // A table only replaces what it was told to.
  EscapeTable t;
  t.Set('&', "&amp;");
  out.clear();
  AppendEscaped(&out, "a&b&&", t);
  EXPECT_EQ(out, "a&amp;b&amp;&amp;");
}

}  // namespace
}  // namespace rox
