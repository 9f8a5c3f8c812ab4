//===- check/CheckedLattice.cpp - Online lattice-contract checker ----------===//

#include "check/CheckedLattice.h"

#include "obs/Metrics.h"
#include "term/Printer.h"

#include <algorithm>

using namespace cai;
using namespace cai::check;

const char *CheckedLattice::contractName(CheckViolation::Contract C) {
  switch (C) {
  case CheckViolation::Contract::JoinUpperBound:
    return "join-upper-bound";
  case CheckViolation::Contract::WidenUpperBound:
    return "widen-upper-bound";
  case CheckViolation::Contract::MeetLowerBound:
    return "meet-lower-bound";
  case CheckViolation::Contract::QuantElimination:
    return "quantifier-elimination";
  case CheckViolation::Contract::QuantEntailment:
    return "quantifier-entailment";
  case CheckViolation::Contract::VarEqUnsound:
    return "implied-equality-unsound";
  case CheckViolation::Contract::AlternateUnsound:
    return "alternate-unsound";
  }
  return "unknown";
}

bool CheckedLattice::innerEntailsAll(const Conjunction &E,
                                     const Conjunction &C) const {
  ++Checks;
  return Inner.entailsAll(E, C);
}

void CheckedLattice::report(CheckViolation::Contract Kind,
                            const char *Operation, std::string Detail,
                            const Conjunction &LHS, const Conjunction &RHS,
                            const Conjunction &Result) const {
  CAI_METRIC_INC("check.contracts.violations");
  if (Violations.size() >= MaxViolations)
    return;
  CheckViolation V;
  V.Kind = Kind;
  V.Operation = Operation;
  V.Detail = std::move(Detail);
  V.LHS = LHS;
  V.RHS = RHS;
  V.Result = Result;
  if (const obs::ProvenanceRecorder *R = obs::ProvenanceRecorder::active())
    V.Where = R->context();
  Violations.push_back(std::move(V));
}

std::string CheckedLattice::describe(const CheckViolation &V) const {
  const TermContext &Ctx = context();
  std::string Out = std::string("lattice contract violated: ") +
                    contractName(V.Kind) + " in " + V.Operation;
  if (V.Where.Valid) {
    Out += " during " +
           std::string(obs::ProvenanceRecorder::stepName(V.Where.Kind)) +
           " of node " + std::to_string(V.Where.Node) + ", update " +
           std::to_string(V.Where.Update);
  }
  Out += " [domain: " + Inner.name() + "]\n";
  Out += "  " + V.Detail + "\n";
  Out += "  lhs:    " + toString(Ctx, V.LHS) + "\n";
  Out += "  rhs:    " + toString(Ctx, V.RHS) + "\n";
  Out += "  result: " + toString(Ctx, V.Result);
  return Out;
}

Conjunction CheckedLattice::join(const Conjunction &A,
                                 const Conjunction &B) const {
  Conjunction R = Inner.join(A, B);
  if (!Enabled)
    return R;
  CAI_METRIC_INC("check.contracts.join");
  if (!innerEntailsAll(A, R))
    report(CheckViolation::Contract::JoinUpperBound, "join",
           "left argument does not entail the result", A, B, R);
  if (!innerEntailsAll(B, R))
    report(CheckViolation::Contract::JoinUpperBound, "join",
           "right argument does not entail the result", A, B, R);
  return R;
}

Conjunction CheckedLattice::widen(const Conjunction &Old,
                                  const Conjunction &New) const {
  Conjunction R = Inner.widen(Old, New);
  if (!Enabled)
    return R;
  CAI_METRIC_INC("check.contracts.widen");
  if (!innerEntailsAll(Old, R))
    report(CheckViolation::Contract::WidenUpperBound, "widen",
           "old element does not entail the result", Old, New, R);
  if (!innerEntailsAll(New, R))
    report(CheckViolation::Contract::WidenUpperBound, "widen",
           "new element does not entail the result", Old, New, R);
  return R;
}

Conjunction CheckedLattice::meet(const Conjunction &A,
                                 const Conjunction &B) const {
  Conjunction R = Inner.meet(A, B);
  if (!Enabled)
    return R;
  CAI_METRIC_INC("check.contracts.meet");
  if (!innerEntailsAll(R, A))
    report(CheckViolation::Contract::MeetLowerBound, "meet",
           "result does not entail the left argument", A, B, R);
  if (!innerEntailsAll(R, B))
    report(CheckViolation::Contract::MeetLowerBound, "meet",
           "result does not entail the right argument", A, B, R);
  return R;
}

Conjunction CheckedLattice::existQuant(const Conjunction &E,
                                       const std::vector<Term> &Vars) const {
  Conjunction R = Inner.existQuant(E, Vars);
  if (!Enabled)
    return R;
  CAI_METRIC_INC("check.contracts.quant");
  std::vector<Term> Left = R.vars();
  for (Term V : Vars) {
    if (std::binary_search(Left.begin(), Left.end(), V, TermStructLess())) {
      report(CheckViolation::Contract::QuantElimination, "existQuant",
             "requested variable '" + toString(context(), V) +
                 "' survives in the result",
             E, Conjunction::top(), R);
      break;
    }
  }
  if (!innerEntailsAll(E, R))
    report(CheckViolation::Contract::QuantEntailment, "existQuant",
           "argument does not entail the result", E, Conjunction::top(), R);
  return R;
}

bool CheckedLattice::entails(const Conjunction &E, const Atom &A) const {
  // Nothing checkable without a second procedure to compare against; the
  // oracle (interp/Oracle.h) covers entailment soundness end to end.
  return Inner.entails(E, A);
}

bool CheckedLattice::isUnsat(const Conjunction &E) const {
  return Inner.isUnsat(E);
}

std::vector<std::pair<Term, Term>>
CheckedLattice::impliedVarEqualities(const Conjunction &E) const {
  std::vector<std::pair<Term, Term>> R = Inner.impliedVarEqualitiesCached(E);
  if (!Enabled)
    return R;
  CAI_METRIC_INC("check.contracts.vareq");
  for (const auto &[X, Y] : R) {
    ++Checks;
    if (!Inner.entails(E, Atom::mkEq(context(), X, Y))) {
      Conjunction Claim;
      Claim.add(Atom::mkEq(context(), X, Y));
      report(CheckViolation::Contract::VarEqUnsound, "impliedVarEqualities",
             "returned equality is not entailed by the argument", E, Claim,
             Conjunction::top());
    }
  }
  return R;
}

std::optional<Term>
CheckedLattice::alternate(const Conjunction &E, Term Var,
                          const std::vector<Term> &Avoid) const {
  std::optional<Term> R = Inner.alternate(E, Var, Avoid);
  if (!Enabled || !R)
    return R;
  CAI_METRIC_INC("check.contracts.alternate");
  std::vector<Term> Used;
  collectVars(*R, Used);
  for (Term U : Used) {
    if (U == Var || std::find(Avoid.begin(), Avoid.end(), U) != Avoid.end()) {
      Conjunction Claim;
      Claim.add(Atom::mkEq(context(), Var, *R));
      report(CheckViolation::Contract::AlternateUnsound, "alternate",
             "definition mentions avoided variable '" +
                 toString(context(), U) + "'",
             E, Claim, Conjunction::top());
      break;
    }
  }
  ++Checks;
  if (!Inner.entails(E, Atom::mkEq(context(), Var, *R))) {
    Conjunction Claim;
    Claim.add(Atom::mkEq(context(), Var, *R));
    report(CheckViolation::Contract::AlternateUnsound, "alternate",
           "claimed definition is not entailed by the argument", E, Claim,
           Conjunction::top());
  }
  return R;
}

std::vector<std::pair<Term, Term>>
CheckedLattice::alternateBatch(const Conjunction &E,
                               const std::vector<Term> &Targets) const {
  std::vector<std::pair<Term, Term>> R = Inner.alternateBatch(E, Targets);
  if (!Enabled)
    return R;
  CAI_METRIC_INC("check.contracts.alternate");
  for (const auto &[Var, Def] : R) {
    std::vector<Term> Used;
    collectVars(Def, Used);
    bool Bad = false;
    for (Term U : Used)
      if (std::find(Targets.begin(), Targets.end(), U) != Targets.end()) {
        Conjunction Claim;
        Claim.add(Atom::mkEq(context(), Var, Def));
        report(CheckViolation::Contract::AlternateUnsound, "alternateBatch",
               "definition mentions target variable '" +
                   toString(context(), U) + "'",
               E, Claim, Conjunction::top());
        Bad = true;
        break;
      }
    if (Bad)
      continue;
    ++Checks;
    if (!Inner.entails(E, Atom::mkEq(context(), Var, Def))) {
      Conjunction Claim;
      Claim.add(Atom::mkEq(context(), Var, Def));
      report(CheckViolation::Contract::AlternateUnsound, "alternateBatch",
             "claimed definition is not entailed by the argument", E, Claim,
             Conjunction::top());
    }
  }
  return R;
}
