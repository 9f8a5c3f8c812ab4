//===- tests/affine_system_fuzz_test.cpp - Row kernel differential fuzzer -===//
///
/// \file
/// Differential testing of AffineSystem, and of the in-place Gauss-Jordan
/// kernel under it, against a textbook dense Gauss-Jordan oracle kept in
/// this file.  The oracle works on plain std::vector rows, scales and
/// clears every entry (no zero skipping, no unit-pivot shortcut), and
/// computes the join by a different route: the equations valid on both
/// operands are the intersection of their augmented row spaces, found as
/// the orthogonal complement of the sum of their null spaces.  Reduced row
/// echelon form is unique for a given row space and column order, so every
/// answer must agree exactly.
///
/// Each trial builds random small systems over Rational (fractions, zero,
/// duplicate and contradictory rows) or GF2 and asks each query of a
/// fresh, not yet canonicalized system, so a query that tests for
/// inconsistency before canonicalizing is caught too.  Two more seeds
/// draw equality-rich systems and check the classes of equal variables
/// (VE_T) against the oracle's variable representatives.  Trials are
/// seeded (the failing seed and trial are in the message).
///
//===----------------------------------------------------------------------===//

#include "linalg/AffineSystem.h"
#include "support/GF2.h"
#include "support/Rational.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <vector>

using namespace cai;

namespace {

/// Trials per seed: about 0.1 s per seed.
constexpr unsigned TrialsPerSeed = 1500;

template <typename F> using DenseRow = std::vector<F>;
template <typename F> using Dense = std::vector<DenseRow<F>>;

std::vector<size_t> identityOrder(size_t N) {
  std::vector<size_t> Order(N);
  for (size_t I = 0; I < N; ++I)
    Order[I] = I;
  return Order;
}

/// Textbook Gauss-Jordan over the columns of \p Order; returns the pivot
/// column of each leading row.
template <typename F>
std::vector<size_t> oracleRref(Dense<F> &M, const std::vector<size_t> &Order) {
  std::vector<size_t> Pivots;
  for (size_t Col : Order) {
    size_t Lead = Pivots.size();
    if (Lead == M.size())
      break;
    size_t R = Lead;
    while (R < M.size() && M[R][Col] == F())
      ++R;
    if (R == M.size())
      continue;
    std::swap(M[R], M[Lead]);
    F Inv = F::one() / M[Lead][Col];
    for (F &X : M[Lead])
      X = X * Inv;
    for (size_t I = 0; I < M.size(); ++I) {
      if (I == Lead)
        continue;
      F Factor = M[I][Col];
      for (size_t C = 0; C < M[I].size(); ++C)
        M[I][C] = M[I][C] - Factor * M[Lead][C];
    }
    Pivots.push_back(Col);
  }
  return Pivots;
}

/// Null space over all columns of \p M (which is reduced in place).
template <typename F> Dense<F> oracleNullspace(Dense<F> M, size_t NumCols) {
  std::vector<size_t> Pivots = oracleRref(M, identityOrder(NumCols));
  Dense<F> Basis;
  for (size_t Free = 0; Free < NumCols; ++Free) {
    if (std::find(Pivots.begin(), Pivots.end(), Free) != Pivots.end())
      continue;
    DenseRow<F> V(NumCols);
    V[Free] = F::one();
    for (size_t R = 0; R < Pivots.size(); ++R)
      V[Pivots[R]] = F() - M[R][Free];
    Basis.push_back(V);
  }
  return Basis;
}

/// The oracle's model of a system: canonical rows over N variables.
template <typename F> struct Model {
  size_t N = 0;
  bool Inconsistent = false;
  Dense<F> Rows;

  static Model of(size_t N, Dense<F> Input) {
    Model Out;
    Out.N = N;
    size_t Rank = oracleRref(Input, identityOrder(N)).size();
    for (size_t R = Rank; R < Input.size(); ++R)
      if (!(Input[R][N] == F())) {
        Out.Inconsistent = true;
        return Out;
      }
    Input.resize(Rank);
    Out.Rows = Input;
    return Out;
  }

  bool entails(const DenseRow<F> &Row) const {
    if (Inconsistent)
      return true;
    Dense<F> M = Rows;
    M.push_back(Row);
    return oracleRref(M, identityOrder(N + 1)).size() == Rows.size();
  }

  Model project(const std::vector<bool> &Eliminate) const {
    if (Inconsistent)
      return *this;
    std::vector<size_t> Order;
    for (size_t I = 0; I < N; ++I)
      if (Eliminate[I])
        Order.push_back(I);
    for (size_t I = 0; I < N; ++I)
      if (!Eliminate[I])
        Order.push_back(I);
    Dense<F> M = Rows;
    size_t Rank = oracleRref(M, Order).size();
    Dense<F> Kept;
    for (size_t R = 0; R < Rank; ++R) {
      bool Touches = false;
      for (size_t I = 0; I < N; ++I)
        Touches |= Eliminate[I] && !(M[R][I] == F());
      if (!Touches)
        Kept.push_back(M[R]);
    }
    return of(N, Kept);
  }

  /// Var = c - sum f_j x_j read off a row with unit coefficient on Var.
  DenseRow<F> definition(const DenseRow<F> &Row, size_t Var) const {
    DenseRow<F> Def(N + 1);
    for (size_t C = 0; C < N; ++C)
      if (C != Var)
        Def[C] = F() - Row[C];
    Def[N] = Row[N];
    return Def;
  }

  std::optional<DenseRow<F>> solveFor(size_t Var,
                                      std::vector<bool> Avoid) const {
    if (Inconsistent)
      return std::nullopt;
    Avoid[Var] = false;
    Model P = project(Avoid);
    std::vector<size_t> Order{Var};
    for (size_t I = 0; I < N; ++I)
      if (I != Var)
        Order.push_back(I);
    Dense<F> M = P.Rows;
    std::vector<size_t> Pivots = oracleRref(M, Order);
    for (size_t R = 0; R < Pivots.size(); ++R)
      if (Pivots[R] == Var)
        return definition(M[R], Var);
    return std::nullopt;
  }

  std::vector<std::pair<size_t, DenseRow<F>>>
  solveForMany(const std::vector<bool> &Targets) const {
    std::vector<std::pair<size_t, DenseRow<F>>> Out;
    if (Inconsistent)
      return Out;
    std::vector<size_t> Order;
    for (size_t I = 0; I < N; ++I)
      if (Targets[I])
        Order.push_back(I);
    for (size_t I = 0; I < N; ++I)
      if (!Targets[I])
        Order.push_back(I);
    Dense<F> M = Rows;
    std::vector<size_t> Pivots = oracleRref(M, Order);
    for (size_t R = 0; R < Pivots.size(); ++R) {
      size_t P = Pivots[R];
      if (!Targets[P])
        continue;
      bool Clean = true;
      for (size_t C = 0; C < N; ++C)
        Clean &= C == P || !Targets[C] || M[R][C] == F();
      if (Clean)
        Out.emplace_back(P, definition(M[R], P));
    }
    return Out;
  }

  Dense<F> varRepresentatives() const {
    Dense<F> Reps;
    if (Inconsistent)
      return Reps;
    for (size_t V = 0; V < N; ++V) {
      DenseRow<F> Rep(N + 1);
      Rep[V] = F::one();
      for (const DenseRow<F> &Row : Rows) {
        size_t P = 0;
        while (Row[P] == F())
          ++P;
        if (P == V)
          Rep = definition(Row, V);
      }
      Reps.push_back(Rep);
    }
    return Reps;
  }

  static Model join(const Model &A, const Model &B) {
    if (A.Inconsistent)
      return B;
    if (B.Inconsistent)
      return A;
    // Equations valid on both = rowspace(A) /\ rowspace(B)
    //                         = (nullspace(A) + nullspace(B))^perp.
    Dense<F> Perp = oracleNullspace(A.Rows, A.N + 1);
    for (const DenseRow<F> &V : oracleNullspace(B.Rows, B.N + 1))
      Perp.push_back(V);
    return of(A.N, oracleNullspace(Perp, A.N + 1));
  }
};

template <typename F> LinRow<F> toLin(const DenseRow<F> &Row) {
  return LinRow<F>(Row.begin(), Row.end());
}

template <typename F> DenseRow<F> toDense(const LinRow<F> &Row) {
  return DenseRow<F>(Row.begin(), Row.end());
}

template <typename F>
AffineSystem<F> systemOf(size_t N, const Dense<F> &Input) {
  AffineSystem<F> S(N);
  for (const DenseRow<F> &Row : Input)
    S.addRow(toLin(Row));
  return S;
}

template <typename F> Dense<F> toDense(const std::vector<LinRow<F>> &Rows) {
  Dense<F> Out;
  for (const LinRow<F> &Row : Rows)
    Out.push_back(toDense(Row));
  return Out;
}

/// Field entries: zero half the time; fractions over Rational.
Rational drawEntry(std::mt19937_64 &Rng, Rational) {
  static const Rational Pool[] = {
      Rational(1),  Rational(-1), Rational(2), Rational(-2),
      Rational(3),  Rational(BigInt(1), BigInt(2)),
      Rational(BigInt(-2), BigInt(3)), Rational(BigInt(5), BigInt(3))};
  if (Rng() % 2)
    return Rational();
  return Pool[Rng() % (sizeof(Pool) / sizeof(Pool[0]))];
}

GF2 drawEntry(std::mt19937_64 &Rng, GF2) { return GF2(Rng() % 2 == 1); }

/// 0-6 random rows over N variables; some duplicate an earlier row up to
/// a factor, some contradict one (same coefficients, another constant).
template <typename F> Dense<F> drawRows(std::mt19937_64 &Rng, size_t N) {
  Dense<F> Rows;
  size_t Count = Rng() % 7;
  for (size_t R = 0; R < Count; ++R) {
    unsigned Kind = Rng() % 10;
    if (!Rows.empty() && Kind < 2) {
      DenseRow<F> Copy = Rows[Rng() % Rows.size()];
      F Factor = drawEntry(Rng, F());
      if (!(Factor == F()))
        for (F &X : Copy)
          X = X * Factor;
      Rows.push_back(Copy);
      continue;
    }
    if (!Rows.empty() && Kind < 3) {
      DenseRow<F> Copy = Rows[Rng() % Rows.size()];
      Copy[N] = Copy[N] + F::one();
      Rows.push_back(Copy);
      continue;
    }
    DenseRow<F> Row(N + 1);
    for (F &X : Row)
      X = drawEntry(Rng, F());
    Rows.push_back(Row);
  }
  return Rows;
}

/// Rows x_i = S, each S one of one to three shared affine forms (half of
/// them a single variable), so that variables fall into classes of equal
/// ones: through a free variable, a constant, or a longer form.
template <typename F>
Dense<F> drawEqualities(std::mt19937_64 &Rng, size_t N) {
  std::vector<DenseRow<F>> Forms(1 + Rng() % 3, DenseRow<F>(N + 1));
  for (DenseRow<F> &Form : Forms) {
    if (Rng() % 2) {
      Form[Rng() % N] = F::one();
      continue;
    }
    for (F &X : Form)
      if (Rng() % 3 == 0)
        X = drawEntry(Rng, F());
  }
  Dense<F> Rows;
  for (size_t Count = Rng() % (N + 1); Count > 0; --Count) {
    const DenseRow<F> &Form = Forms[Rng() % Forms.size()];
    DenseRow<F> Row(N + 1);
    for (size_t C = 0; C < N; ++C)
      Row[C] = F() - Form[C];
    Row[N] = Form[N];
    size_t Var = Rng() % N;
    Row[Var] = Row[Var] + F::one();
    Rows.push_back(Row);
  }
  return Rows;
}

/// For each variable, the first one with the same oracle representative.
template <typename F> std::vector<size_t> leadersOf(const Dense<F> &Reps) {
  std::vector<size_t> Leader;
  for (size_t V = 0; V < Reps.size(); ++V)
    Leader.push_back(static_cast<size_t>(
        std::find(Reps.begin(), Reps.end(), Reps[V]) - Reps.begin()));
  return Leader;
}

std::vector<bool> drawMask(std::mt19937_64 &Rng, size_t N) {
  std::vector<bool> Mask(N);
  for (size_t I = 0; I < N; ++I)
    Mask[I] = Rng() % 3 == 0;
  return Mask;
}

/// A row to test for entailment: half the time a combination of the
/// input rows (entailed when consistent), else random.
template <typename F>
DenseRow<F> drawQuery(std::mt19937_64 &Rng, size_t N, const Dense<F> &Input) {
  DenseRow<F> Row(N + 1);
  if (Input.empty() || Rng() % 2) {
    for (F &X : Row)
      X = drawEntry(Rng, F());
    return Row;
  }
  for (const DenseRow<F> &In : Input) {
    F Factor = drawEntry(Rng, F());
    for (size_t C = 0; C <= N; ++C)
      Row[C] = Row[C] + Factor * In[C];
  }
  return Row;
}

template <typename F> void runTrial(std::mt19937_64 &Rng, const char *Tag) {
  SCOPED_TRACE(Tag);
  size_t N = 1 + Rng() % 5;
  Dense<F> Input = drawRows<F>(Rng, N);
  Model<F> M = Model<F>::of(N, Input);

  // The kernel alone, on a random order of all N + 1 columns.
  {
    std::vector<size_t> Order = identityOrder(N + 1);
    std::shuffle(Order.begin(), Order.end(), Rng);
    std::vector<LinRow<F>> Rows;
    for (const DenseRow<F> &Row : Input)
      Rows.push_back(toLin(Row));
    Dense<F> Oracle = Input;
    PivotList Pivots = reducedRowEchelon(Rows, Order);
    ASSERT_EQ(std::vector<size_t>(Pivots.begin(), Pivots.end()),
              oracleRref(Oracle, Order));
    for (size_t R = 0; R < Rows.size(); ++R) {
      if (R < Pivots.size()) {
        ASSERT_EQ(toDense(Rows[R]), Oracle[R]) << "row " << R;
        continue;
      }
      for (size_t C = 0; C <= N; ++C)
        ASSERT_TRUE(Rows[R][C].isZero()) << "trailing row " << R;
    }
  }

  ASSERT_EQ(systemOf(N, Input).isInconsistent(), M.Inconsistent);
  ASSERT_EQ(toDense(systemOf(N, Input).rows()), M.Rows);

  std::vector<bool> Mask = drawMask(Rng, N);
  AffineSystem<F> P = systemOf(N, Input).project(Mask);
  Model<F> PM = M.project(Mask);
  ASSERT_EQ(P.isInconsistent(), PM.Inconsistent);
  ASSERT_EQ(toDense(P.rows()), PM.Rows);

  size_t Var = Rng() % N;
  std::optional<LinRow<F>> Sol = systemOf(N, Input).solveFor(Var, Mask);
  std::optional<DenseRow<F>> SolM = M.solveFor(Var, Mask);
  ASSERT_EQ(Sol.has_value(), SolM.has_value());
  if (Sol) {
    ASSERT_EQ(toDense(*Sol), *SolM);
  }

  auto Many = systemOf(N, Input).solveForMany(Mask);
  auto ManyM = M.solveForMany(Mask);
  ASSERT_EQ(Many.size(), ManyM.size());
  for (size_t I = 0; I < Many.size(); ++I) {
    ASSERT_EQ(Many[I].first, ManyM[I].first);
    ASSERT_EQ(toDense(Many[I].second), ManyM[I].second);
  }

  for (int Q = 0; Q < 3; ++Q) {
    DenseRow<F> Row = drawQuery(Rng, N, Input);
    ASSERT_EQ(systemOf(N, Input).entails(toLin(Row)), M.entails(Row));
  }

  ASSERT_EQ(systemOf(N, Input).equalVarLeaders(),
            leadersOf(M.varRepresentatives()));

  // Embedding into a wider space: sorted targets keep the rows canonical
  // as they are, shuffled ones need a new elimination.
  size_t Wide = N + Rng() % 3;
  std::vector<size_t> Targets = identityOrder(Wide);
  std::shuffle(Targets.begin(), Targets.end(), Rng);
  Targets.resize(N);
  if (Rng() % 2)
    std::sort(Targets.begin(), Targets.end());
  Dense<F> Moved;
  for (const DenseRow<F> &Row : Input) {
    DenseRow<F> To(Wide + 1);
    for (size_t C = 0; C < N; ++C)
      To[Targets[C]] = Row[C];
    To[Wide] = Row[N];
    Moved.push_back(To);
  }
  AffineSystem<F> Embedded = systemOf(N, Input).embed(Targets, Wide);
  Model<F> EM = Model<F>::of(Wide, Moved);
  ASSERT_EQ(Embedded.isInconsistent(), EM.Inconsistent);
  ASSERT_EQ(toDense(Embedded.rows()), EM.Rows);

  Dense<F> Other = drawRows<F>(Rng, N);
  AffineSystem<F> J =
      AffineSystem<F>::join(systemOf(N, Input), systemOf(N, Other));
  Model<F> JM = Model<F>::join(M, Model<F>::of(N, Other));
  ASSERT_EQ(J.isInconsistent(), JM.Inconsistent);
  ASSERT_EQ(toDense(J.rows()), JM.Rows);
}

/// The classes of equal variables on equality-rich systems of up to eight
/// variables, against the oracle's representatives.
template <typename F> void runClassSeed(uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  for (unsigned T = 0; T < TrialsPerSeed; ++T) {
    size_t N = 1 + Rng() % 8;
    Dense<F> Input = drawEqualities<F>(Rng, N);
    ASSERT_EQ(systemOf(N, Input).equalVarLeaders(),
              leadersOf(Model<F>::of(N, Input).varRepresentatives()))
        << "seed " << Seed << " trial " << T;
  }
}

template <typename F> void runSeed(uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  for (unsigned T = 0; T < TrialsPerSeed; ++T) {
    std::string Tag =
        "seed " + std::to_string(Seed) + " trial " + std::to_string(T);
    runTrial<F>(Rng, Tag.c_str());
    if (::testing::Test::HasFatalFailure())
      return;
  }
}

} // namespace

TEST(AffineSystemFuzz, RationalSeed1) { runSeed<Rational>(1); }
TEST(AffineSystemFuzz, RationalSeed2) { runSeed<Rational>(2); }
TEST(AffineSystemFuzz, GF2Seed1) { runSeed<GF2>(1); }
TEST(AffineSystemFuzz, GF2Seed2) { runSeed<GF2>(2); }
TEST(AffineSystemFuzz, EqualVarClassesRational) { runClassSeed<Rational>(3); }
TEST(AffineSystemFuzz, EqualVarClassesGF2) { runClassSeed<GF2>(3); }
