// Unit tests for the utility layer: Status/StatusOr, Arena, hashing, BigInt
// and the JSON codec (with a seeded mutation fuzzer over its parser).

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "src/obs/trace.h"
#include "src/util/arena.h"
#include "src/util/bigint.h"
#include "src/util/hash.h"
#include "src/util/json.h"
#include "src/util/status.h"

namespace coral {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad rule");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad rule");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

StatusOr<int> ParsePositive(int v) {
  if (v <= 0) return Status::OutOfRange("not positive");
  return v;
}

Status UseValue(int v, int* out) {
  CORAL_ASSIGN_OR_RETURN(int parsed, ParsePositive(v));
  *out = parsed * 2;
  return Status::OK();
}

TEST(StatusOrTest, ValueAndErrorPaths) {
  auto ok = ParsePositive(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 21);

  auto err = ParsePositive(-1);
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kOutOfRange);
}

TEST(StatusOrTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseValue(5, &out).ok());
  EXPECT_EQ(out, 10);
  EXPECT_FALSE(UseValue(-5, &out).ok());
}

TEST(ArenaTest, AllocationsAreAlignedAndDisjoint) {
  Arena arena(128);  // small blocks to force growth
  std::vector<int*> ptrs;
  for (int i = 0; i < 1000; ++i) {
    int* p = arena.New<int>(i);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % alignof(int), 0u);
    ptrs.push_back(p);
  }
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(*ptrs[i], i);
}

TEST(ArenaTest, CopyArray) {
  Arena arena;
  const char* words[3] = {"a", "b", "c"};
  const char** copy = arena.CopyArray(words, 3);
  EXPECT_NE(copy, nullptr);
  for (int i = 0; i < 3; ++i) EXPECT_STREQ(copy[i], words[i]);
  EXPECT_EQ(arena.CopyArray(words, 0), nullptr);
}

TEST(ArenaTest, LargeAllocationBiggerThanBlock) {
  Arena arena(64);
  void* p = arena.Allocate(4096);
  EXPECT_NE(p, nullptr);
  EXPECT_GE(arena.bytes_allocated(), 4096u);
}

TEST(HashTest, MixAvalanches) {
  EXPECT_NE(HashMix64(1), HashMix64(2));
  EXPECT_NE(HashCombine(0, 1), HashCombine(1, 0));
  EXPECT_EQ(HashString("coral"), HashString(std::string("coral")));
  EXPECT_NE(HashString("coral"), HashString("coral "));
}

TEST(BigIntTest, FromInt64RoundTrip) {
  for (int64_t v : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{1} << 40,
                    INT64_MAX, INT64_MIN}) {
    BigInt b(v);
    int64_t back = 123;
    ASSERT_TRUE(b.FitsInt64(&back)) << v;
    EXPECT_EQ(back, v);
    EXPECT_EQ(b.ToString(), std::to_string(v));
  }
}

TEST(BigIntTest, ParseAndPrint) {
  auto b = BigInt::FromString("123456789012345678901234567890");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->ToString(), "123456789012345678901234567890");
  auto neg = BigInt::FromString("-42");
  ASSERT_TRUE(neg.ok());
  EXPECT_EQ(neg->ToString(), "-42");
  EXPECT_FALSE(BigInt::FromString("").ok());
  EXPECT_FALSE(BigInt::FromString("12x3").ok());
  // "-0" normalizes to zero.
  auto zero = BigInt::FromString("-0");
  ASSERT_TRUE(zero.ok());
  EXPECT_TRUE(zero->is_zero());
  EXPECT_FALSE(zero->is_negative());
}

TEST(BigIntTest, ArithmeticMatchesInt64) {
  // Property check over a grid of values against native arithmetic.
  std::vector<int64_t> vals = {0, 1, -1, 7, -13, 123456, -99999, 1 << 20};
  for (int64_t a : vals) {
    for (int64_t b : vals) {
      BigInt ba(a), bb(b);
      int64_t got;
      ASSERT_TRUE((ba + bb).FitsInt64(&got));
      EXPECT_EQ(got, a + b) << a << "+" << b;
      ASSERT_TRUE((ba - bb).FitsInt64(&got));
      EXPECT_EQ(got, a - b);
      ASSERT_TRUE((ba * bb).FitsInt64(&got));
      EXPECT_EQ(got, a * b);
      if (b != 0) {
        ASSERT_TRUE((ba / bb).FitsInt64(&got));
        EXPECT_EQ(got, a / b) << a << "/" << b;
        ASSERT_TRUE((ba % bb).FitsInt64(&got));
        EXPECT_EQ(got, a % b) << a << "%" << b;
      }
      EXPECT_EQ(ba.Compare(bb), a < b ? -1 : (a > b ? 1 : 0));
    }
  }
}

TEST(BigIntTest, LargeMultiplyDivide) {
  auto a = BigInt::FromString("340282366920938463463374607431768211456");
  ASSERT_TRUE(a.ok());  // 2^128
  BigInt sq = *a * *a;
  EXPECT_EQ(sq / *a, *a);
  EXPECT_TRUE((sq % *a).is_zero());
  // (2^128)^2 = 2^256
  auto expect = BigInt::FromString(
      "115792089237316195423570985008687907853269984665640564039457584007913129"
      "639936");
  ASSERT_TRUE(expect.ok());
  EXPECT_EQ(sq, *expect);
}

TEST(BigIntTest, DivisionByZeroIsStatus) {
  BigInt q, r;
  EXPECT_FALSE(BigInt::DivMod(BigInt(1), BigInt(0), &q, &r).ok());
}

TEST(BigIntTest, TruncationSemantics) {
  // C semantics: -7 / 2 == -3, -7 % 2 == -1.
  int64_t got;
  ASSERT_TRUE((BigInt(-7) / BigInt(2)).FitsInt64(&got));
  EXPECT_EQ(got, -3);
  ASSERT_TRUE((BigInt(-7) % BigInt(2)).FitsInt64(&got));
  EXPECT_EQ(got, -1);
  ASSERT_TRUE((BigInt(7) / BigInt(-2)).FitsInt64(&got));
  EXPECT_EQ(got, -3);
  ASSERT_TRUE((BigInt(7) % BigInt(-2)).FitsInt64(&got));
  EXPECT_EQ(got, 1);
}

TEST(BigIntTest, HashConsistentWithEquality) {
  auto a = BigInt::FromString("98765432109876543210");
  auto b = BigInt::FromString("98765432109876543210");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->Hash(), b->Hash());
  EXPECT_NE(a->Hash(), (-*b).Hash());
}

TEST(BigIntTest, FitsInt64Boundaries) {
  int64_t out;
  auto max = BigInt::FromString("9223372036854775807");
  ASSERT_TRUE(max.ok());
  EXPECT_TRUE(max->FitsInt64(&out));
  EXPECT_EQ(out, INT64_MAX);
  auto min = BigInt::FromString("-9223372036854775808");
  ASSERT_TRUE(min.ok());
  EXPECT_TRUE(min->FitsInt64(&out));
  EXPECT_EQ(out, INT64_MIN);
  auto over = BigInt::FromString("9223372036854775808");
  ASSERT_TRUE(over.ok());
  EXPECT_FALSE(over->FitsInt64(&out));
  auto under = BigInt::FromString("-9223372036854775809");
  ASSERT_TRUE(under.ok());
  EXPECT_FALSE(under->FitsInt64(&out));
}

// ---- JSON codec ------------------------------------------------------------

TEST(JsonTest, ParsesNestedDocument) {
  auto parsed = ParseJson(
      R"({"op":"query","q":"?- p(X).","n":42,"neg":-7,"f":1.5,)"
      R"("flag":true,"null":null,"arr":[1,"two",{}],"obj":{"k":"v"}})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& v = parsed.value();
  EXPECT_EQ(v.GetString("op"), "query");
  EXPECT_EQ(v.GetString("q"), "?- p(X).");
  EXPECT_EQ(v.GetInt("n"), 42);
  EXPECT_EQ(v.GetInt("neg"), -7);
  EXPECT_TRUE(v.Find("flag")->bool_value);
  EXPECT_EQ(v.Find("arr")->array.size(), 3u);
  EXPECT_EQ(v.Find("obj")->GetString("k"), "v");
}

TEST(JsonTest, EscapesRoundTrip) {
  std::string nasty = "a\"b\\c\nd\te\rf";
  std::string doc = JsonWriter().Field("s", nasty).Build();
  auto parsed = ParseJson(doc);
  ASSERT_TRUE(parsed.ok()) << doc;
  EXPECT_EQ(parsed.value().GetString("s"), nasty);
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson(R"({"a":})").ok());
  EXPECT_FALSE(ParseJson(R"({"a":1} trailing)").ok());
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson(R"({"s":"unterminated})").ok());
}


TEST(JsonTest, RejectsDeepNesting) {
  // Both documents overflowed the recursive parser's stack before
  // nesting was bounded.
  EXPECT_EQ(ParseJson(std::string(100000, '[')).status().code(),
            StatusCode::kInvalidArgument);
  std::string chain;
  for (int i = 0; i < 100000; ++i) chain += "{\"a\":";
  EXPECT_EQ(ParseJson(chain).status().code(), StatusCode::kInvalidArgument);

  // The bound is exact: kMaxJsonDepth levels parse, one more does not.
  auto nested = [](int depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_TRUE(ParseJson(nested(kMaxJsonDepth)).ok());
  EXPECT_EQ(ParseJson(nested(kMaxJsonDepth + 1)).status().code(),
            StatusCode::kInvalidArgument);
}

// ---- JSON mutation fuzzing -------------------------------------------------

// Valid documents to mutate: wire requests and responses, and trace
// lines as TraceEvent::ToJson writes them.
std::vector<std::string> FuzzCorpus() {
  std::vector<std::string> corpus = {
      R"({"op":"query","q":"?- path(1, X)."})",
      R"({"op":"consult","program":"edge(1, 2).\nedge(2, 3).\n"})",
      R"({"op":"load","facts":"edge(3, 4)."})",
      R"({"op":"bind","name":"src","value":-17})",
      R"({"op":"deadline","ms":2.5e3})",
      R"({"ok":true,"epoch":3,"count":2,"rows":[{"X":"2"},{"X":"3"}]})",
      R"({"a":[1,[2,[3,{"b":null,"c":false,"d":"é\t"}]]]})",
  };
  obs::TraceEvent ev;
  ev.kind = obs::TraceKind::kRuleFire;
  ev.module = "m1";
  ev.pred = "p/2";
  ev.detail = "p(a, \"quo\\ted\nline\")";
  ev.scc = 3;
  ev.rule = 7;
  ev.iter = 12;
  ev.count = 42;
  ev.ns = 1234567;
  corpus.push_back(ev.ToJson());
  obs::TraceEvent bare;
  bare.kind = obs::TraceKind::kIterBegin;
  corpus.push_back(bare.ToJson());
  return corpus;
}

// One to four edits: byte flips, truncations, runs of brackets (deep
// enough to cross kMaxJsonDepth) and runs of quotes or backslashes.
std::string Mutate(std::string s, std::mt19937* rng) {
  auto pick = [rng](size_t n) { return static_cast<size_t>((*rng)() % n); };
  size_t edits = 1 + pick(4);
  for (size_t e = 0; e < edits; ++e) {
    size_t pos = pick(s.size() + 1);
    switch (pick(4)) {
      case 0:
        if (!s.empty()) {
          s[pos % s.size()] ^= static_cast<char>(1 + pick(255));
        }
        break;
      case 1:
        s.resize(pos);
        break;
      case 2:
        s.insert(pos, 1 + pick(100), "[{]}"[pick(4)]);
        break;
      default:
        s.insert(pos, 1 + pick(8), pick(2) == 0 ? '"' : '\\');
        break;
    }
  }
  return s;
}

TEST(JsonFuzzTest, MutantsParseOrAreRejected) {
  // Every mutant must parse, or be rejected with InvalidArgument, by both
  // ParseJson and the trace reader built on it. A trace event that is
  // accepted must survive its own round trip.
  const std::vector<std::string> corpus = FuzzCorpus();
  for (uint32_t seed : {1u, 2u, 3u, 17u, 42u, 1993u, 31337u, 0xC0DEu}) {
    SCOPED_TRACE("fuzz seed " + std::to_string(seed));
    std::mt19937 rng(seed);
    for (int i = 0; i < 500; ++i) {
      std::string doc = Mutate(corpus[rng() % corpus.size()], &rng);
      StatusOr<JsonValue> parsed = ParseJson(doc);
      if (!parsed.ok()) {
        ASSERT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
            << doc;
      }
      StatusOr<obs::TraceEvent> ev = obs::TraceEvent::FromJson(doc);
      if (!ev.ok()) {
        ASSERT_EQ(ev.status().code(), StatusCode::kInvalidArgument) << doc;
        continue;
      }
      ASSERT_TRUE(parsed.ok()) << doc;
      StatusOr<obs::TraceEvent> again = obs::TraceEvent::FromJson(ev->ToJson());
      ASSERT_TRUE(again.ok()) << doc;
      EXPECT_EQ(again->ToJson(), ev->ToJson()) << doc;
    }
  }
}

}  // namespace
}  // namespace coral
