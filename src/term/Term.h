//===- term/Term.h - Hash-consed first-order terms --------------*- C++ -*-===//
///
/// \file
/// First-order terms: variables, rational numerals, and applications of
/// function symbols.  Terms are hash-consed by the owning TermContext, so
/// structural equality is pointer equality.  Term ordering
/// (structuralCompare / TermStructLess) is purely structural — names,
/// values, argument lists — and independent of the order in which a context
/// happened to intern its nodes.  That invariant is what makes analysis
/// results a pure function of program structure: the incremental
/// re-analysis path (analysis/Snapshot.h) relies on it to replay fixpoints
/// recorded in one context inside another bit-identically.  Never order by
/// pointer, and never order by creation id in any result-affecting place.
///
//===----------------------------------------------------------------------===//

#ifndef CAI_TERM_TERM_H
#define CAI_TERM_TERM_H

#include "support/Rational.h"
#include "term/Symbol.h"

#include <utility>
#include <vector>

namespace cai {

class TermContext;
template <typename V> class TermMap;

/// The three structural kinds of term.
enum class TermKind : uint8_t {
  Variable, ///< A named variable (program variable or fresh internal one).
  Number,   ///< A rational numeral.
  App,      ///< Application of a function Symbol to argument terms.
};

/// An immutable, hash-consed term node.  Always access through `Term`
/// (a const pointer); nodes are created only by TermContext.
class TermNode {
public:
  TermKind kind() const { return Kind; }
  /// Stable creation index.  Useful as a per-context hash/cache key; NOT a
  /// structural property — never use it to order terms in result-affecting
  /// code (use structuralCompare / TermStructLess instead).
  uint32_t id() const { return Id; }

  bool isVariable() const { return Kind == TermKind::Variable; }
  bool isNumber() const { return Kind == TermKind::Number; }
  bool isApp() const { return Kind == TermKind::App; }

  /// Variable name; valid only for Variable nodes.
  const std::string &varName() const {
    assert(Kind == TermKind::Variable && "not a variable");
    return Name;
  }

  /// Numeral value; valid only for Number nodes.
  const Rational &number() const {
    assert(Kind == TermKind::Number && "not a numeral");
    return Value;
  }

  /// Applied symbol; valid only for App nodes.
  Symbol symbol() const {
    assert(Kind == TermKind::App && "not an application");
    return Sym;
  }

  /// Argument list; valid only for App nodes.
  const std::vector<const TermNode *> &args() const {
    assert(Kind == TermKind::App && "not an application");
    return Args;
  }

private:
  friend class TermContext;
  friend unsigned termDepth(const TermNode *T);
  TermNode() = default;

  TermKind Kind = TermKind::Variable;
  uint32_t Id = 0;
  std::string Name;                   // Variable
  Rational Value;                     // Number
  Symbol Sym;                         // App
  uint32_t Depth = 1;                 // Recorded when interned.
  std::vector<const TermNode *> Args; // App
};

/// The user-facing term handle.
using Term = const TermNode *;

/// Collects the set of variables occurring in \p T into \p Out (deduped,
/// in structural order).
void collectVars(Term T, std::vector<Term> &Out);

/// Appends to \p Out every variable of \p T not yet in \p Seen, and adds
/// it to \p Seen; \p Out is left unsorted.  Callers gathering the
/// variables of many terms share one \p Seen and sort once at the end.
void appendNewVars(Term T, TermMap<bool> &Seen, std::vector<Term> &Out);

/// Returns true if variable \p Var occurs in \p T.
bool occursIn(Term Var, Term T);

/// Returns the maximum nesting depth of \p T (variables and numerals have
/// depth 1), which its node recorded when it was interned.
inline unsigned termDepth(Term T) { return T->Depth; }

/// Returns the number of nodes in \p T counted as a tree.
unsigned termSize(Term T);

/// Total structural order on hash-consed terms: 0 iff A == B (pointer
/// equality), otherwise a sign determined only by the terms' structure.
/// Keys, in order: kind (variables, applications, numerals), variable name
/// / symbol / numeric value, arity, then arguments recursively.  Because
/// fresh-variable names embed a zero-padded counter, the order is invariant
/// under any counter-start shift — two runs that draw different fresh names
/// for corresponding variables still make identical ordering decisions.
int structuralCompare(Term A, Term B);

/// Deterministic, context-independent ordering helper for containers of
/// terms.  Unlike ordering by creation id, this order is a pure function
/// of term structure, so it agrees between a from-scratch analysis and an
/// incremental one replaying a snapshot recorded elsewhere.
struct TermStructLess {
  bool operator()(Term A, Term B) const { return structuralCompare(A, B) < 0; }
};

/// One addend c * t of a linear sum: a term and its rational coefficient.
using TermCoeff = std::pair<Term, Rational>;

/// Sorts [\p First, \p Last) by TermStructLess on the terms.  Every sort of
/// linear addends (sum building, row rendering) goes through this one
/// instantiation.
void sortByTerm(TermCoeff *First, TermCoeff *Last);

} // namespace cai

#endif // CAI_TERM_TERM_H
