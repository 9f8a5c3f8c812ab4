//===- term/TermContext.h - Term and symbol interner ------------*- C++ -*-===//
///
/// \file
/// The TermContext owns all symbols and hash-consed terms used by one
/// analysis.  It pre-interns the arithmetic function symbols (+, *), the
/// core predicates (=, <=) and the theory predicates (even, odd, positive,
/// negative), and provides builders that keep arithmetic terms in a
/// lightly-normalized form.  All lattices, products and programs in a
/// run must share one context.
///
//===----------------------------------------------------------------------===//

#ifndef CAI_TERM_TERMCONTEXT_H
#define CAI_TERM_TERMCONTEXT_H

#include "term/Term.h"

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <unordered_set>

namespace cai {

/// A variable-to-term substitution, applied simultaneously.
using Substitution = std::unordered_map<Term, Term>;

/// Owns and interns symbols and terms.
class TermContext {
public:
  TermContext();
  TermContext(const TermContext &) = delete;
  TermContext &operator=(const TermContext &) = delete;

  /// \name Symbol interning
  /// @{

  /// Returns the function symbol \p Name / \p Arity, creating it on first
  /// use.  Asserts if the name was previously interned with different
  /// metadata.
  Symbol getFunction(const std::string &Name, unsigned Arity);

  /// Returns the predicate symbol \p Name / \p Arity, creating it on first
  /// use.
  Symbol getPredicate(const std::string &Name, unsigned Arity);

  /// Looks up a symbol by name without creating it.
  Symbol findSymbol(const std::string &Name) const;

  const SymbolInfo &info(Symbol S) const {
    assert(S.index() < Symbols.size() && "foreign symbol");
    return Symbols[S.index()];
  }

  /// The n-ary arithmetic sum symbol.
  Symbol addSymbol() const { return SymAdd; }
  /// The binary scale symbol; first argument is always a numeral.
  Symbol mulSymbol() const { return SymMul; }
  /// The binary equality predicate.
  Symbol eqSymbol() const { return SymEq; }
  /// The binary <= predicate.
  Symbol leSymbol() const { return SymLe; }

  /// @}
  /// \name Term builders
  /// @{

  Term mkVar(const std::string &Name);

  /// Returns a fresh variable whose name cannot collide with user names
  /// (names beginning with '$' are reserved for the library).
  Term freshVar(const std::string &Hint = "v");

  Term mkNum(Rational Value);
  Term mkNum(int64_t Value) { return mkNum(Rational(Value)); }

  /// Applies \p Fn to \p Args.  Asserts on arity mismatch for non-variadic
  /// symbols.
  Term mkApp(Symbol Fn, std::vector<Term> Args) {
    return mkApp(Fn, Args.data(), Args.size());
  }
  /// Applies \p Fn to the \p NumArgs terms at \p Args.  The lookup borrows
  /// the arguments; they are copied only into a newly interned node.
  Term mkApp(Symbol Fn, const Term *Args, size_t NumArgs);

  /// Builds the sum of the \p NumAddends terms at \p Addends, flattening
  /// nested sums, merging like addends and folding numerals; the empty sum
  /// is 0.  The addends end in structural order, so every build of one sum
  /// interns the same node, and only that node: no partial sums.
  Term mkSum(const Term *Addends, size_t NumAddends);
  /// Builds Left + Right (mkSum of two addends).
  Term mkAdd(Term Left, Term Right) {
    Term Addends[] = {Left, Right};
    return mkSum(Addends, 2);
  }
  /// Builds Left - Right.
  Term mkSub(Term Left, Term Right);
  /// Builds Coeff * T, folding the trivial cases 0*t and 1*t.
  Term mkMul(Rational Coeff, Term T);
  Term mkNeg(Term T) { return mkMul(Rational(-1), T); }

  /// @}

  /// Applies \p Subst simultaneously to \p T, rebuilding affected nodes.
  Term substitute(Term T, const Substitution &Subst);

  /// Number of terms interned so far (diagnostic).
  size_t numTerms() const { return Nodes.size(); }

  /// \name Fresh-variable counter state
  /// The incremental re-analysis path records the counter value at each
  /// reuse boundary and restores it before resuming live computation, so
  /// fresh names allocated after a replayed prefix match the names a
  /// from-scratch run would have allocated at the same point.
  /// @{
  uint64_t freshCounter() const { return FreshCounter; }
  void setFreshCounter(uint64_t Value) { FreshCounter = Value; }
  /// @}

private:
  Symbol internSymbol(const std::string &Name, unsigned Arity, SymbolKind Kind,
                      bool Arithmetic);
  Term internNode(TermNode Node);

  /// A borrowed (symbol, arguments) view of an application: the key mkApp
  /// looks an application up by before any node exists.
  struct AppView {
    uint32_t Sym;
    const Term *Args;
    size_t NumArgs;
  };
  static AppView viewOf(Term T) {
    return {T->symbol().index(), T->args().data(), T->args().size()};
  }
  /// Hash and equality over interned App nodes that also accept an AppView
  /// (C++20 heterogeneous lookup), so the table holds the nodes themselves.
  struct AppHash {
    using is_transparent = void;
    size_t operator()(const AppView &K) const {
      size_t H = K.Sym;
      for (size_t I = 0; I < K.NumArgs; ++I)
        H = H * 1099511628211ull ^ reinterpret_cast<size_t>(K.Args[I]);
      return H;
    }
    size_t operator()(Term T) const { return (*this)(viewOf(T)); }
  };
  struct AppEq {
    using is_transparent = void;
    bool operator()(Term A, Term B) const { return A == B; }
    bool operator()(const AppView &K, Term T) const {
      return K.Sym == T->symbol().index() && K.NumArgs == T->args().size() &&
             std::equal(K.Args, K.Args + K.NumArgs, T->args().begin());
    }
    bool operator()(Term T, const AppView &K) const { return (*this)(K, T); }
  };
  struct RationalHash {
    size_t operator()(const Rational &R) const { return R.hash(); }
  };

  std::deque<TermNode> Nodes; // Stable addresses.
  std::vector<SymbolInfo> Symbols;
  std::unordered_map<std::string, uint32_t> SymbolByName;
  std::unordered_map<std::string, Term> VarByName;
  std::unordered_map<Rational, Term, RationalHash> NumByValue;
  std::unordered_set<Term, AppHash, AppEq> Apps;
  uint64_t FreshCounter = 0;

  Symbol SymAdd, SymMul, SymEq, SymLe;
};

} // namespace cai

#endif // CAI_TERM_TERMCONTEXT_H
