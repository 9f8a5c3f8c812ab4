//===- domains/poly/Polyhedron.cpp - Constraint-form polyhedra -------------===//

#include "domains/poly/Polyhedron.h"

#include "obs/Metrics.h"
#include "support/Hash.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <optional>
#include <unordered_map>

using namespace cai;

/// Process-wide row cap (one analysis per process; cai-analyze sets it from
/// --poly-max-rows before running).
static thread_local size_t RowCap = DefaultPolyRowCap;

size_t cai::polyRowCap() { return RowCap; }
void cai::setPolyRowCap(size_t Cap) { RowCap = Cap; }

/// Strict lexicographic order on rows (coefficients, then rhs): the sort
/// key of the parallel-row dedupe in Fourier-Motzkin projection.
static bool rowLexLess(const LinearConstraint &A, const LinearConstraint &B) {
  if (A.Coeffs != B.Coeffs) {
    for (size_t I = 0; I < A.Coeffs.size() && I < B.Coeffs.size(); ++I)
      if (A.Coeffs[I] != B.Coeffs[I])
        return A.Coeffs[I] < B.Coeffs[I];
    return A.Coeffs.size() < B.Coeffs.size();
  }
  return A.Rhs < B.Rhs;
}

/// Coeffs . x = Rhs as an equation row of an AffineSystem.
static LinRow<Rational> equationOf(const LinearConstraint &C) {
  LinRow<Rational> Row(C.Coeffs.begin(), C.Coeffs.end());
  Row.push_back(C.Rhs);
  return Row;
}

bool Polyhedron::normalizeRow(LinearConstraint &C) const {
  // Scale so coefficients are integral with gcd 1 (positive scale only,
  // preserving the inequality's direction).
  BigInt Lcm(1);
  for (const Rational &Coef : C.Coeffs)
    Lcm = BigInt::lcm(Lcm, Coef.denominator());
  Lcm = BigInt::lcm(Lcm, C.Rhs.denominator());
  BigInt Gcd;
  for (const Rational &Coef : C.Coeffs)
    Gcd = BigInt::gcd(Gcd, (Coef * Rational(Lcm)).numerator());
  if (Gcd.isZero()) {
    // 0 . x <= Rhs: trivially true or trivially false.
    return C.Rhs.sign() >= 0;
  }
  Rational Scale = Rational(Lcm) / Rational(Gcd);
  for (Rational &Coef : C.Coeffs)
    Coef *= Scale;
  C.Rhs *= Scale;
  return true;
}

void Polyhedron::addLe(CoeffVec Coeffs, Rational Rhs) {
  assert(Coeffs.size() == NumVars && "constraint dimension mismatch");
  LinearConstraint C{std::move(Coeffs), std::move(Rhs)};
  if (!normalizeRow(C)) {
    Rows.push_back(std::move(C)); // Trivially false row: keeps emptiness.
    Minimal = false;
    return;
  }
  bool Zero = true;
  for (const Rational &Coef : C.Coeffs)
    Zero &= Coef.isZero();
  if (Zero)
    return; // Trivially true.
  if (std::find_if(Rows.begin(), Rows.end(), [&](const LinearConstraint &R) {
        return R.Coeffs == C.Coeffs && R.Rhs <= C.Rhs;
      }) != Rows.end())
    return; // A tighter or equal parallel row already exists.
  Rows.push_back(std::move(C));
  Minimal = false;
}

void Polyhedron::addEq(const CoeffVec &Coeffs, const Rational &Rhs) {
  addLe(Coeffs, Rhs);
  addLe(negated(Coeffs), -Rhs);
}

bool Polyhedron::isEmpty() const { return !isFeasible(Rows, NumVars); }

bool Polyhedron::eliminateByEquality(std::vector<TrackedRow> &Work,
                                     size_t Col) const {
  // An equality shows up as a row plus its exact negation (addEq produces
  // that shape, and normalizeRow keeps both sides in the same scale).  Find
  // one with a nonzero coefficient at Col; hash rows so the negation lookup
  // is not a quadratic scan.
  auto RowHash = [](const LinearConstraint &C) {
    return hashCombine(hashRange(C.Coeffs.begin(), C.Coeffs.end()),
                       C.Rhs.hash());
  };
  std::unordered_map<uint64_t, std::vector<size_t>> ByHash;
  ByHash.reserve(Work.size());
  for (size_t I = 0; I < Work.size(); ++I)
    ByHash[RowHash(Work[I].C)].push_back(I);

  size_t EqI = Work.size(), EqJ = Work.size();
  LinearConstraint Negated;
  for (size_t I = 0; I < Work.size() && EqI == Work.size(); ++I) {
    if (Work[I].C.Coeffs[Col].isZero())
      continue;
    Negated.Coeffs.resize(NumVars);
    for (size_t K = 0; K < NumVars; ++K)
      Negated.Coeffs[K] = -Work[I].C.Coeffs[K];
    Negated.Rhs = -Work[I].C.Rhs;
    auto It = ByHash.find(RowHash(Negated));
    if (It == ByHash.end())
      continue;
    for (size_t J : It->second)
      if (J != I && Work[J].C == Negated) {
        EqI = I;
        EqJ = J;
        break;
      }
  }
  if (EqI == Work.size())
    return false;

  // E . x = E.Rhs holds on the whole polyhedron: substitute it into every
  // other row to zero out Col, then drop the pair.  Exact Gaussian step --
  // the row count only shrinks.
  const LinearConstraint E = Work[EqI].C; // Copy: Work is edited below.
  const Rational &Pivot = E.Coeffs[Col];
  std::vector<TrackedRow> Next;
  Next.reserve(Work.size() - 2);
  for (size_t I = 0; I < Work.size(); ++I) {
    if (I == EqI || I == EqJ)
      continue;
    TrackedRow R = std::move(Work[I]);
    LinearConstraint &C = R.C;
    if (!C.Coeffs[Col].isZero()) {
      Rational F = C.Coeffs[Col] / Pivot;
      for (size_t K = 0; K < NumVars; ++K)
        C.Coeffs[K] -= F * E.Coeffs[K];
      C.Rhs -= F * E.Rhs;
      if (normalizeRow(C)) {
        bool AllZero = true;
        for (const Rational &Coef : C.Coeffs)
          AllZero &= Coef.isZero();
        if (AllZero)
          continue; // Trivially true after substitution.
      }
      // Rows failing normalizeRow are infeasibility witnesses: keep them.
    }
    Next.push_back(std::move(R));
  }
  Work = std::move(Next);
  return true;
}

Polyhedron Polyhedron::project(const std::vector<bool> &Eliminate) const {
  assert(Eliminate.size() == NumVars && "eliminate mask size mismatch");
  std::vector<TrackedRow> Work;
  Work.reserve(Rows.size());
  for (const LinearConstraint &C : Rows)
    Work.push_back({C, 0});

  // Kohler's acceleration: any FM-derived row whose derivation uses more
  // than k+1 rows of the system tracking started from (k = FM steps since
  // then) is redundant in the k-th projection, and the essential
  // inequality it subsumes is re-derived elsewhere with a smaller history
  // (FM enumerates every pairing), so skipping it is exact.  Equality
  // substitution materializes only one derivation per row, so tracking
  // restarts from the post-substitution system instead of threading
  // histories through it.
  bool TrackHist = false;
  size_t FMSteps = 0;
  auto ResetHist = [&](std::vector<TrackedRow> &Rs) {
    TrackHist = Rs.size() <= 64;
    FMSteps = 0;
    if (TrackHist)
      for (size_t I = 0; I < Rs.size(); ++I)
        Rs[I].Hist = uint64_t(1) << I;
  };
  ResetHist(Work);

  auto Dedupe = [](std::vector<TrackedRow> &Rs) {
    std::sort(Rs.begin(), Rs.end(),
              [](const TrackedRow &A, const TrackedRow &B) {
                if (rowLexLess(A.C, B.C))
                  return true;
                if (rowLexLess(B.C, A.C))
                  return false;
                // Exact duplicates: surface the cheapest derivation, the
                // copy Kohler's criterion is entitled to keep.
                return std::popcount(A.Hist) < std::popcount(B.Hist);
              });
    // Among parallel rows keep only the tightest.
    std::vector<TrackedRow> Out;
    for (TrackedRow &R : Rs)
      if (Out.empty() || Out.back().C.Coeffs != R.C.Coeffs)
        Out.push_back(std::move(R));
    Rs = std::move(Out);
  };

  // Termination backstop: when FM growth blows an intermediate system past
  // the cap, drop the densest rows (a sound over-approximation -- fewer
  // constraints is a larger polyhedron).  Bounds-like sparse rows survive.
  auto Havoc = [](std::vector<TrackedRow> &Rs) {
    size_t Cap = polyRowCap();
    if (Cap == 0 || Rs.size() <= Cap)
      return;
    std::vector<size_t> NonZeros(Rs.size());
    for (size_t I = 0; I < Rs.size(); ++I)
      for (const Rational &Coef : Rs[I].C.Coeffs)
        NonZeros[I] += !Coef.isZero();
    std::vector<size_t> Order(Rs.size());
    for (size_t I = 0; I < Order.size(); ++I)
      Order[I] = I;
    std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
      return NonZeros[A] < NonZeros[B];
    });
    std::vector<TrackedRow> Kept;
    Kept.reserve(Cap);
    for (size_t I = 0; I < Cap; ++I)
      Kept.push_back(std::move(Rs[Order[I]]));
    CAI_METRIC_INC("poly.havoc.events");
    CAI_METRIC_ADD("poly.havoc.rows_dropped", Rs.size() - Cap);
    Rs = std::move(Kept);
  };

  for (size_t Col = 0; Col < NumVars; ++Col) {
    if (!Eliminate[Col])
      continue;
    // Exact, growth-free elimination first: the lifted hull systems are
    // mostly equality pairs, and substituting them out is what keeps the
    // quadratic FM cascade from ever starting.  One successful substitution
    // zeroes the column in every remaining row.
    if (eliminateByEquality(Work, Col)) {
      Dedupe(Work);
      ResetHist(Work);
      continue;
    }
    std::vector<TrackedRow> Zero, Pos, Neg;
    for (TrackedRow &R : Work) {
      int S = R.C.Coeffs[Col].sign();
      (S == 0 ? Zero : S > 0 ? Pos : Neg).push_back(std::move(R));
    }
    std::vector<TrackedRow> Next = std::move(Zero);
    for (const TrackedRow &P : Pos) {
      for (const TrackedRow &N : Neg) {
        uint64_t Hist = P.Hist | N.Hist;
        if (TrackHist &&
            static_cast<size_t>(std::popcount(Hist)) > FMSteps + 2)
          continue; // Kohler: redundant in the post-step projection.
        // Combine so the column cancels: P/p + N/(-n).
        Rational Pc = P.C.Coeffs[Col];
        Rational Nc = -N.C.Coeffs[Col];
        LinearConstraint C;
        C.Coeffs.resize(NumVars);
        for (size_t I = 0; I < NumVars; ++I)
          C.Coeffs[I] = P.C.Coeffs[I] / Pc + N.C.Coeffs[I] / Nc;
        C.Rhs = P.C.Rhs / Pc + N.C.Rhs / Nc;
        if (normalizeRow(C)) {
          bool AllZero = true;
          for (const Rational &Coef : C.Coeffs)
            AllZero &= Coef.isZero();
          if (!AllZero)
            Next.push_back({std::move(C), Hist});
        } else {
          Next.push_back({std::move(C), Hist}); // Infeasibility witness.
        }
      }
    }
    Dedupe(Next);
    Havoc(Next);
    Work = std::move(Next);
    ++FMSteps;
  }

  Polyhedron Out(NumVars);
  Out.Rows.reserve(Work.size());
  for (TrackedRow &R : Work)
    Out.Rows.push_back(std::move(R.C));
  return Out.minimized();
}

Polyhedron Polyhedron::hull(const Polyhedron &A, const Polyhedron &B) {
  if (A.isEmpty())
    return B;
  if (B.isEmpty())
    return A;
  return hullOfNonEmpty(A, B);
}

Polyhedron Polyhedron::hullOfNonEmpty(const Polyhedron &A,
                                      const Polyhedron &B) {
  assert(A.NumVars == B.NumVars && "hull of different spaces");
  size_t N = A.NumVars;
  // Lifted space: x (result), y (the A-scaled point), lambda.
  size_t Lifted = 2 * N + 1;
  size_t LambdaCol = 2 * N;
  Polyhedron L(Lifted);
  for (const LinearConstraint &C : A.Rows) {
    // a . y <= lambda * c.
    CoeffVec Row(Lifted);
    for (size_t I = 0; I < N; ++I)
      Row[N + I] = C.Coeffs[I];
    Row[LambdaCol] = -C.Rhs;
    L.addLe(std::move(Row), Rational());
  }
  for (const LinearConstraint &C : B.Rows) {
    // g . (x - y) <= (1 - lambda) * d.
    CoeffVec Row(Lifted);
    for (size_t I = 0; I < N; ++I) {
      Row[I] = C.Coeffs[I];
      Row[N + I] = -C.Coeffs[I];
    }
    Row[LambdaCol] = C.Rhs;
    L.addLe(std::move(Row), C.Rhs);
  }
  {
    CoeffVec Row(Lifted);
    Row[LambdaCol] = Rational(-1);
    L.addLe(Row, Rational()); // lambda >= 0.
    Row[LambdaCol] = Rational(1);
    L.addLe(std::move(Row), Rational(1)); // lambda <= 1.
  }
  std::vector<bool> Mask(Lifted, false);
  for (size_t I = N; I < Lifted; ++I)
    Mask[I] = true;
  Polyhedron Projected = L.project(Mask);
  // Re-home into the N-column space.  The projection is minimal, and stays
  // so as long as re-homing drops none of its rows.
  Polyhedron Out(N);
  for (const LinearConstraint &C : Projected.Rows) {
    CoeffVec Coeffs(C.Coeffs.begin(), C.Coeffs.begin() + N);
    Out.addLe(std::move(Coeffs), C.Rhs);
  }
  Out.Minimal = Out.Rows.size() == Projected.Rows.size();
  return Out;
}

Polyhedron Polyhedron::embed(const std::vector<size_t> &NewCol,
                             size_t NewNumVars) const {
  assert(NewCol.size() == NumVars && "column map size mismatch");
  Polyhedron Out(NewNumVars);
  Out.Minimal = Minimal;
  Out.Rows.reserve(Rows.size());
  for (const LinearConstraint &C : Rows) {
    LinearConstraint R{CoeffVec(NewNumVars), C.Rhs};
    for (size_t I = 0; I < NumVars; ++I)
      R.Coeffs[NewCol[I]] = C.Coeffs[I];
    Out.Rows.push_back(std::move(R));
  }
  return Out;
}

std::vector<LinearConstraint>
Polyhedron::affineHull(SimplexSolver &Solver) const {
  // Row I is an implicit equality iff min C_I . x reaches Rhs_I.  Rows are
  // decided for free where possible: both halves of an equality pair are
  // equalities, and a row some point of the polyhedron satisfies strictly
  // is not.  The remaining rows each take one warm-started LP, whose
  // optimum is such a point for the rows after it.
  enum Verdict : uint8_t { Open, Equality, Strict };
  std::vector<Verdict> Is(Rows.size(), Open);
  for (size_t I = 0; I < Rows.size(); ++I)
    for (size_t J = I + 1; J < Rows.size() && Is[I] == Open; ++J)
      if (Rows[I].negates(Rows[J]))
        Is[I] = Is[J] = Equality;
  std::vector<LinearConstraint> Eqs;
  for (size_t I = 0; I < Rows.size(); ++I) {
    const LinearConstraint &C = Rows[I];
    if (Is[I] == Open) {
      LPResult R = Solver.maximize(negated(C.Coeffs));
      Is[I] = R.Status == LPStatus::Optimal && R.Value == -C.Rhs ? Equality
                                                                   : Strict;
      if (R.Status == LPStatus::Optimal)
        for (size_t J = I + 1; J < Rows.size(); ++J) {
          if (Is[J] != Open)
            continue;
          Rational Lhs;
          for (size_t K = 0; K < NumVars; ++K)
            if (!Rows[J].Coeffs[K].isZero())
              Lhs += Rows[J].Coeffs[K] * R.Point[K];
          if (Lhs < Rows[J].Rhs)
            Is[J] = Strict;
        }
    }
    if (Is[I] == Equality)
      Eqs.push_back(C);
  }
  return Eqs;
}

AffineSystem<Rational> Polyhedron::equalities(SimplexSolver &Solver) const {
  AffineSystem<Rational> S(NumVars);
  for (const LinearConstraint &C : affineHull(Solver))
    S.addRow(equationOf(C));
  return S;
}

Polyhedron Polyhedron::minimized() const {
  // Minimization is idempotent: a row irredundant against some rows stays
  // irredundant when others leave.
  if (Minimal)
    return *this;
  // Row I is redundant iff max C_I . x over the other rows is at most its
  // rhs: one LP each.  A row that alone bounds some column in its own
  // direction needs none when the polyhedron is nonempty: moving along
  // that column keeps every other row and raises C_I . x without bound.
  std::vector<LinearConstraint> Kept = Rows;
  auto AloneBounds = [&](size_t I) {
    for (size_t V = 0; V < NumVars; ++V) {
      int Sign = Kept[I].Coeffs[V].sign();
      bool Alone = Sign != 0;
      for (size_t J = 0; J < Kept.size() && Alone; ++J)
        Alone = J == I || Kept[J].Coeffs[V].sign() != Sign;
      if (Alone)
        return true;
    }
    return false;
  };
  std::optional<bool> NonEmpty;
  for (size_t I = 0; I < Kept.size();) {
    if (AloneBounds(I)) {
      if (!NonEmpty)
        NonEmpty = isFeasible(Rows, NumVars);
      if (*NonEmpty) {
        ++I;
        continue;
      }
    }
    std::vector<LinearConstraint> Others;
    Others.reserve(Kept.size() - 1);
    for (size_t J = 0; J < Kept.size(); ++J)
      if (J != I)
        Others.push_back(Kept[J]);
    if (boundedBy(maximize(Others, Kept[I].Coeffs, NumVars), Kept[I].Rhs))
      Kept.erase(Kept.begin() + I);
    else
      ++I;
  }
  Polyhedron Out(NumVars);
  Out.Rows = std::move(Kept);
  Out.Minimal = true;
  return Out;
}

Polyhedron Polyhedron::widen(const Polyhedron &Newer,
                             const AffineSystem<Rational> &OwnHull,
                             const AffineSystem<Rational> &NewerHull) const {
  // Every kept row is one entailment LP over the same Newer system:
  // warm-start them all off a single phase 1.
  SimplexSolver Entails(Newer.Rows, NumVars);
  Polyhedron Out(NumVars);
  for (const LinearConstraint &C : Rows)
    if (boundedBy(Entails.maximize(C.Coeffs), C.Rhs))
      Out.Rows.push_back(C);
  // Equality-aware refinement.  CH78 keeps only syntactic rows of the old
  // polyhedron, so an equality implied by its rows without being written
  // as one -- p = x + 1 from {u = p, u = x + 1} -- is lost even when the
  // newer operand satisfies it too.  The equalities valid on an operand
  // span exactly its affine hull, so the equalities valid on both are the
  // affine join; keep them all.  Termination is preserved: the common
  // equality rank can only decrease along a widening sequence (at most
  // NumVars + 1 times), and once it is stable these canonical rows are
  // already rows of the old operand that CH78 itself keeps.
  AffineSystem<Rational> Common =
      AffineSystem<Rational>::join(OwnHull, NewerHull);
  for (const LinRow<Rational> &Row : Common.rows()) {
    CoeffVec Coeffs(Row.begin(), Row.begin() + NumVars);
    Out.addEq(Coeffs, Row[NumVars]);
  }
  return Out;
}
