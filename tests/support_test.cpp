//===- tests/support_test.cpp - BigInt, Rational, GF2 ----------------------===//

#include "support/BigInt.h"
#include "support/Decimal.h"
#include "support/GF2.h"
#include "support/Rational.h"
#include "support/SmallVec.h"
#include "support/TextIO.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

#include <unistd.h>
#include <string>
#include <vector>

using namespace cai;

TEST(BigIntTest, ConstructAndRender) {
  EXPECT_EQ(BigInt(0).toString(), "0");
  EXPECT_EQ(BigInt(42).toString(), "42");
  EXPECT_EQ(BigInt(-7).toString(), "-7");
  EXPECT_EQ(BigInt(INT64_MIN).toString(), "-9223372036854775808");
  EXPECT_EQ(BigInt(INT64_MAX).toString(), "9223372036854775807");
}

TEST(BigIntTest, FromStringRoundTrip) {
  const char *Cases[] = {"0", "1", "-1", "123456789012345678901234567890",
                         "-999999999999999999999999999999999"};
  for (const char *Text : Cases)
    EXPECT_EQ(BigInt::fromString(Text).toString(), Text);
}

TEST(BigIntTest, ValidationRejectsGarbage) {
  EXPECT_FALSE(BigInt::isValidDecimal(""));
  EXPECT_FALSE(BigInt::isValidDecimal("-"));
  EXPECT_FALSE(BigInt::isValidDecimal("12a"));
  EXPECT_FALSE(BigInt::isValidDecimal("1.5"));
  EXPECT_TRUE(BigInt::isValidDecimal("-0"));
}

TEST(BigIntTest, ArithmeticSmall) {
  EXPECT_EQ(BigInt(3) + BigInt(4), BigInt(7));
  EXPECT_EQ(BigInt(3) - BigInt(4), BigInt(-1));
  EXPECT_EQ(BigInt(-3) * BigInt(4), BigInt(-12));
  EXPECT_EQ(BigInt(17) / BigInt(5), BigInt(3));
  EXPECT_EQ(BigInt(17) % BigInt(5), BigInt(2));
  EXPECT_EQ(BigInt(-17) / BigInt(5), BigInt(-3)); // Truncates toward zero.
  EXPECT_EQ(BigInt(-17) % BigInt(5), BigInt(-2));
}

TEST(BigIntTest, CarryChains) {
  BigInt A = BigInt::fromString("4294967295"); // 2^32 - 1
  EXPECT_EQ((A + BigInt(1)).toString(), "4294967296");
  BigInt B = BigInt::fromString("18446744073709551615"); // 2^64 - 1
  EXPECT_EQ((B + BigInt(1)).toString(), "18446744073709551616");
  EXPECT_EQ((B * B).toString(), "340282366920938463426481119284349108225");
}

TEST(BigIntTest, MultiLimbDivision) {
  BigInt A = BigInt::fromString("340282366920938463426481119284349108225");
  BigInt B = BigInt::fromString("18446744073709551615");
  EXPECT_EQ((A / B).toString(), "18446744073709551615");
  EXPECT_EQ((A % B).toString(), "0");
  BigInt C = A + BigInt(12345);
  EXPECT_EQ((C / B).toString(), "18446744073709551615");
  EXPECT_EQ((C % B).toString(), "12345");
}

TEST(BigIntTest, DivisionRandomizedAgainstReconstruction) {
  std::mt19937_64 Rng(12345);
  for (int Trial = 0; Trial < 500; ++Trial) {
    // Random magnitudes of varied widths to exercise Knuth D corner cases.
    auto RandomBig = [&](int Limbs) {
      BigInt Acc(0);
      for (int I = 0; I < Limbs; ++I)
        Acc = Acc * BigInt::fromString("4294967296") +
              BigInt(static_cast<int64_t>(Rng() & 0xFFFFFFFFull));
      return Acc;
    };
    BigInt A = RandomBig(1 + Trial % 5);
    BigInt B = RandomBig(1 + Trial % 3);
    if (B.isZero())
      continue;
    BigInt Q = A / B, R = A % B;
    EXPECT_EQ(Q * B + R, A) << "trial " << Trial;
    EXPECT_TRUE(R.abs() < B.abs()) << "trial " << Trial;
  }
}

TEST(BigIntTest, GcdLcmPow) {
  EXPECT_EQ(BigInt::gcd(BigInt(12), BigInt(18)), BigInt(6));
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(-5)), BigInt(5));
  EXPECT_EQ(BigInt::lcm(BigInt(4), BigInt(6)), BigInt(12));
  EXPECT_EQ(BigInt::lcm(BigInt(0), BigInt(3)), BigInt(0));
  EXPECT_EQ(BigInt::pow(BigInt(2), 100).toString(),
            "1267650600228229401496703205376");
  EXPECT_EQ(BigInt::pow(BigInt(7), 0), BigInt(1));
}

TEST(BigIntTest, ComparisonTotalOrder) {
  std::vector<BigInt> Sorted = {BigInt::fromString("-100000000000000000000"),
                                BigInt(-2), BigInt(0), BigInt(1),
                                BigInt::fromString("99999999999999999999")};
  for (size_t I = 0; I < Sorted.size(); ++I)
    for (size_t J = 0; J < Sorted.size(); ++J) {
      EXPECT_EQ(Sorted[I] < Sorted[J], I < J);
      EXPECT_EQ(Sorted[I] == Sorted[J], I == J);
      EXPECT_EQ(Sorted[I] <= Sorted[J], I <= J);
    }
}

TEST(BigIntTest, Int64Bounds) {
  EXPECT_TRUE(BigInt(INT64_MAX).fitsInt64());
  EXPECT_TRUE(BigInt(INT64_MIN).fitsInt64());
  EXPECT_FALSE((BigInt(INT64_MAX) + BigInt(1)).fitsInt64());
  EXPECT_FALSE((BigInt(INT64_MIN) - BigInt(1)).fitsInt64());
  EXPECT_EQ(BigInt(INT64_MIN).toInt64(), INT64_MIN);
  EXPECT_EQ((BigInt(INT64_MAX)).toInt64(), INT64_MAX);
}

TEST(BigIntTest, Int64MinNegationDivisionRemainder) {
  // INT64_MIN is the one small value whose magnitude (2^63) is not
  // itself small: negation, division by -1, and the remainder at that
  // point all have to promote instead of relying on hardware int64 ops
  // (where -INT64_MIN and INT64_MIN / -1 are undefined behavior).
  const BigInt Min(INT64_MIN);
  BigInt Neg = -Min;
  EXPECT_FALSE(Neg.fitsInt64());
  EXPECT_EQ(Neg.toString(), "9223372036854775808");
  EXPECT_EQ(-Neg, Min); // ... and the return trip demotes to small.
  EXPECT_TRUE((-Neg).fitsInt64());

  BigInt Q = Min / BigInt(-1);
  EXPECT_FALSE(Q.fitsInt64());
  EXPECT_EQ(Q, Neg);
  EXPECT_EQ(Min % BigInt(-1), BigInt(0));

  EXPECT_EQ(Min / Min, BigInt(1));
  EXPECT_EQ(Min % Min, BigInt(0));
  EXPECT_EQ(Min / BigInt(2), BigInt(INT64_MIN / 2));
  EXPECT_EQ(Min % BigInt(7), BigInt(INT64_MIN % 7));
}

TEST(BigIntTest, DemotionRoundTripsAtTheBoundary) {
  // Big never holds an int64-representable value (fitsInt64's contract),
  // so every arithmetic trip past the boundary and back must demote.
  BigInt Past = BigInt(INT64_MAX) + BigInt(1);
  EXPECT_FALSE(Past.fitsInt64());
  BigInt Back = Past - BigInt(1);
  EXPECT_TRUE(Back.fitsInt64());
  EXPECT_EQ(Back.toInt64(), INT64_MAX);

  BigInt Doubled = BigInt(INT64_MIN) * BigInt(2);
  EXPECT_FALSE(Doubled.fitsInt64());
  BigInt Halved = Doubled / BigInt(2);
  EXPECT_TRUE(Halved.fitsInt64());
  EXPECT_EQ(Halved.toInt64(), INT64_MIN);
  EXPECT_EQ(Doubled % BigInt(2), BigInt(0));

  EXPECT_EQ(BigInt::fromString("-9223372036854775808"), BigInt(INT64_MIN));
  EXPECT_TRUE(BigInt::fromString("-9223372036854775808").fitsInt64());
  EXPECT_FALSE(BigInt::fromString("-9223372036854775809").fitsInt64());
  EXPECT_EQ(BigInt::fromString("-9223372036854775809") + BigInt(1),
            BigInt(INT64_MIN));
}

TEST(BigIntTest, GcdAtInt64Min) {
  // gcd's fast loop computes on uint64 magnitudes; a result of exactly
  // 2^63 (|INT64_MIN|) cannot be returned as a small value and must
  // take the slow path.  Results below the boundary stay fast.
  const BigInt Min(INT64_MIN);
  EXPECT_EQ(BigInt::gcd(Min, BigInt(0)).toString(), "9223372036854775808");
  EXPECT_FALSE(BigInt::gcd(Min, BigInt(0)).fitsInt64());
  EXPECT_EQ(BigInt::gcd(Min, Min).toString(), "9223372036854775808");
  EXPECT_EQ(BigInt::gcd(Min, BigInt(3)), BigInt(1));
  EXPECT_EQ(BigInt::gcd(Min, BigInt(6)), BigInt(2));
  EXPECT_EQ(BigInt::gcd(Min, BigInt(INT64_MAX)), BigInt(1));
  // The mixed small/big pairing exercises gcdSlow's limb loop too.
  EXPECT_EQ(BigInt::gcd(-Min, BigInt(6)), BigInt(2));
  EXPECT_EQ(BigInt::gcd(-Min, Min).toString(), "9223372036854775808");
}

TEST(RationalTest, NormalizationLowestTerms) {
  Rational R(BigInt(4), BigInt(6));
  EXPECT_EQ(R.numerator(), BigInt(2));
  EXPECT_EQ(R.denominator(), BigInt(3));
  Rational Neg(BigInt(3), BigInt(-6));
  EXPECT_EQ(Neg.numerator(), BigInt(-1));
  EXPECT_EQ(Neg.denominator(), BigInt(2));
  EXPECT_EQ(Rational(BigInt(0), BigInt(-7)), Rational(0));
}

TEST(RationalTest, FieldAxiomsSpotChecks) {
  Rational Half(BigInt(1), BigInt(2));
  Rational Third(BigInt(1), BigInt(3));
  EXPECT_EQ(Half + Third, Rational(BigInt(5), BigInt(6)));
  EXPECT_EQ(Half * Third, Rational(BigInt(1), BigInt(6)));
  EXPECT_EQ(Half - Half, Rational(0));
  EXPECT_EQ(Half / Third, Rational(BigInt(3), BigInt(2)));
  EXPECT_EQ(Half.inverse(), Rational(2));
  EXPECT_TRUE(Third < Half);
}

TEST(RationalTest, FloorCeil) {
  EXPECT_EQ(Rational(BigInt(7), BigInt(2)).floor(), BigInt(3));
  EXPECT_EQ(Rational(BigInt(7), BigInt(2)).ceil(), BigInt(4));
  EXPECT_EQ(Rational(BigInt(-7), BigInt(2)).floor(), BigInt(-4));
  EXPECT_EQ(Rational(BigInt(-7), BigInt(2)).ceil(), BigInt(-3));
  EXPECT_EQ(Rational(5).floor(), BigInt(5));
  EXPECT_EQ(Rational(5).ceil(), BigInt(5));
  EXPECT_EQ(Rational(-5).floor(), BigInt(-5));
}

TEST(RationalTest, ToStringForms) {
  EXPECT_EQ(Rational(BigInt(1), BigInt(2)).toString(), "1/2");
  EXPECT_EQ(Rational(-3).toString(), "-3");
  EXPECT_EQ(Rational(BigInt(-2), BigInt(4)).toString(), "-1/2");
}

TEST(GF2Test, FieldTable) {
  GF2 Zero, One = GF2::one();
  EXPECT_EQ(Zero + Zero, Zero);
  EXPECT_EQ(Zero + One, One);
  EXPECT_EQ(One + One, Zero);
  EXPECT_EQ(One * One, One);
  EXPECT_EQ(Zero * One, Zero);
  EXPECT_EQ(One - One, Zero);
  EXPECT_EQ(-One, One);
  EXPECT_EQ(One / One, One);
  EXPECT_EQ(One.inverse(), One);
  EXPECT_EQ(GF2::fromInt(5), One);
  EXPECT_EQ(GF2::fromInt(-4), Zero);
  EXPECT_EQ(GF2::fromInt(-3), One);
}

// Property sweep: rational arithmetic agrees with double arithmetic on
// small values (no overflow regime) for all four operators.
class RationalOpProperty : public ::testing::TestWithParam<int> {};

TEST_P(RationalOpProperty, MatchesExactFractions) {
  int Seed = GetParam();
  std::mt19937 Rng(Seed);
  std::uniform_int_distribution<int> Dist(-30, 30);
  for (int Trial = 0; Trial < 200; ++Trial) {
    int An = Dist(Rng), Ad = Dist(Rng), Bn = Dist(Rng), Bd = Dist(Rng);
    if (Ad == 0 || Bd == 0)
      continue;
    Rational A = Rational(BigInt(An), BigInt(Ad));
    Rational B = Rational(BigInt(Bn), BigInt(Bd));
    // (a + b) * d_a * d_b is integral and equals an*bd + bn*ad.
    Rational Sum = A + B;
    EXPECT_EQ(Sum * Rational(BigInt(Ad * Bd)),
              Rational(BigInt(An * Bd + Bn * Ad)));
    Rational Prod = A * B;
    EXPECT_EQ(Prod * Rational(BigInt(Ad * Bd)), Rational(BigInt(An * Bn)));
    if (!B.isZero()) {
      Rational Quot = A / B;
      EXPECT_EQ(Quot * B, A);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RationalOpProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(BigIntTest, RemainderTruncatedSemantics) {
  // operator/ rounds toward zero, so the remainder always takes the
  // dividend's sign (C semantics).  Pinned for all four sign combinations
  // and across the inline/limb boundary, because the declared-inline %
  // fast path and the limb path must agree exactly -- Rational
  // normalization and the interpreter's mod both build on this.
  EXPECT_EQ(BigInt(7) % BigInt(3), BigInt(1));
  EXPECT_EQ(BigInt(-7) % BigInt(3), BigInt(-1));
  EXPECT_EQ(BigInt(7) % BigInt(-3), BigInt(1));
  EXPECT_EQ(BigInt(-7) % BigInt(-3), BigInt(-1));
  EXPECT_EQ(BigInt(INT64_MIN) % BigInt(-1), BigInt(0));
  EXPECT_EQ(BigInt(INT64_MIN) % BigInt(1), BigInt(0));

  // Reconstruction invariant a == (a/b)*b + a%b on both tiers.
  const BigInt Wide = BigInt::fromString("170141183460469231731687303715884");
  for (const BigInt &A :
       {BigInt(INT64_MIN), BigInt(INT64_MAX), Wide, -Wide, BigInt(-7)})
    for (const BigInt &B : {BigInt(-1), BigInt(3), BigInt(-3), Wide, -Wide}) {
      BigInt Q = A / B, R = A % B;
      EXPECT_EQ(Q * B + R, A);
      if (!R.isZero()) {
        EXPECT_EQ(R.sign(), A.sign());
      }
      EXPECT_TRUE(R.abs() < B.abs());
    }
}

TEST(SmallVecTest, InlineThenSpill) {
  SmallVec<int, 4> V;
  EXPECT_TRUE(V.isInline());
  EXPECT_TRUE(V.empty());
  for (int I = 0; I < 4; ++I)
    V.push_back(I);
  EXPECT_TRUE(V.isInline());
  V.push_back(4); // First heap allocation.
  EXPECT_FALSE(V.isInline());
  EXPECT_EQ(V.size(), 5u);
  for (int I = 0; I < 5; ++I)
    EXPECT_EQ(V[I], I);
}

TEST(SmallVecTest, CopyAndMovePreserveElements) {
  SmallVec<std::string, 2> Small{"a", "b"};
  SmallVec<std::string, 2> Large{"a", "b", "c", "d"};

  SmallVec<std::string, 2> SmallCopy = Small;
  SmallVec<std::string, 2> LargeCopy = Large;
  EXPECT_EQ(SmallCopy, Small);
  EXPECT_EQ(LargeCopy, Large);

  SmallVec<std::string, 2> SmallMoved = std::move(SmallCopy);
  SmallVec<std::string, 2> LargeMoved = std::move(LargeCopy);
  EXPECT_EQ(SmallMoved, Small);
  EXPECT_EQ(LargeMoved, Large);
  EXPECT_TRUE(LargeCopy.empty()); // Heap buffer was stolen.

  LargeMoved = Small;
  EXPECT_EQ(LargeMoved, Small);
  SmallMoved = std::move(LargeMoved);
  EXPECT_EQ(SmallMoved, Small);
}

TEST(SmallVecTest, ImplicitVectorConversion) {
  std::vector<int> Source{1, 2, 3, 4, 5, 6};
  SmallVec<int, 4> V = Source; // Implicit: rows flow in from vector APIs.
  EXPECT_EQ(V.size(), 6u);
  EXPECT_EQ(V.back(), 6);
}

TEST(SmallVecTest, InsertEraseResizeAssign) {
  SmallVec<int, 4> V{1, 3};
  V.insert(V.begin() + 1, 2);
  EXPECT_EQ(V, (SmallVec<int, 4>{1, 2, 3}));
  V.erase(V.begin());
  EXPECT_EQ(V, (SmallVec<int, 4>{2, 3}));
  V.resize(5);
  EXPECT_EQ(V, (SmallVec<int, 4>{2, 3, 0, 0, 0}));
  V.erase(V.begin() + 1, V.end() - 1);
  EXPECT_EQ(V, (SmallVec<int, 4>{2, 0}));
  V.assign(3, 9);
  EXPECT_EQ(V, (SmallVec<int, 4>{9, 9, 9}));
  V.resize(1);
  EXPECT_EQ(V, (SmallVec<int, 4>{9}));
  EXPECT_TRUE((SmallVec<int, 4>{1, 2}) < (SmallVec<int, 4>{1, 3}));
  EXPECT_TRUE((SmallVec<int, 4>{1, 2}) < (SmallVec<int, 4>{1, 2, 0}));
}

TEST(SmallVecTest, RationalRowsSurviveGrowth) {
  // The real payload: rows of 48-byte Rationals crossing the inline
  // boundary during Fourier-Motzkin-style row building.
  SmallVec<Rational, 4> Row;
  for (int I = 0; I < 12; ++I)
    Row.push_back(Rational(BigInt(I), BigInt(I + 1)));
  for (int I = 0; I < 12; ++I)
    EXPECT_EQ(Row[I], Rational(BigInt(I), BigInt(I + 1)));
}

TEST(Decimal, ReadsPlainDigitsUpToTheMaximum) {
  uint64_t U = 7;
  EXPECT_TRUE(parseDecimal("0", U));
  EXPECT_EQ(U, 0u);
  EXPECT_TRUE(parseDecimal("18446744073709551615", U));
  EXPECT_EQ(U, UINT64_MAX);
  U = 7;
  for (const char *Bad : {"", "-1", "+1", " 1", "1 ", "1x", "0x10",
                          "18446744073709551616", "99999999999999999999999"}) {
    EXPECT_FALSE(parseDecimal(Bad, U)) << Bad;
    EXPECT_EQ(U, 7u) << Bad;
  }
  // The destination's own range, with no silent truncation.
  unsigned W = 0;
  EXPECT_TRUE(parseDecimal("4294967295", W));
  EXPECT_EQ(W, 4294967295u);
  EXPECT_FALSE(parseDecimal("4294967297", W));
  uint16_t Port = 0;
  EXPECT_TRUE(parseDecimal("65535", Port));
  EXPECT_FALSE(parseDecimal("65536", Port));
  // An explicit maximum below the type's.
  EXPECT_TRUE(parseDecimal("10", U, uint64_t(10)));
  EXPECT_FALSE(parseDecimal("11", U, uint64_t(10)));
  EXPECT_EQ(U, 10u);
}

TEST(TextIO, ReadFileWholeMissingAndDirectory) {
  namespace fs = std::filesystem;
  fs::path Dir = fs::temp_directory_path() /
                 ("cai_textio_test_" + std::to_string(::getpid()));
  fs::create_directories(Dir);
  std::string Text("x := 1;\r\n\0assert(x = 1);\n", 25);
  std::ofstream(Dir / "p.imp", std::ios::binary) << Text;
  std::string Out = "stale";
  ASSERT_TRUE(readFile((Dir / "p.imp").string(), Out));
  EXPECT_EQ(Out, Text);
  // A missing file and a directory are refused and leave Out alone.
  EXPECT_FALSE(readFile((Dir / "missing.imp").string(), Out));
  EXPECT_EQ(Out, Text);
  EXPECT_FALSE(readFile(Dir.string(), Out));
  EXPECT_EQ(Out, Text);
  fs::remove_all(Dir);
}

TEST(TextIO, WriteJsonStringEscapes) {
  std::ostringstream OS;
  writeJsonString(OS, std::string("a\"b\\c\n\r\t\x01\0\xc3\xa9", 12));
  EXPECT_EQ(OS.str(), "\"a\\\"b\\\\c\\n\\r\\t\\u0001\\u0000\xc3\xa9\"");
}
