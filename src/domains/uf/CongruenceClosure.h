//===- domains/uf/CongruenceClosure.h - Congruence closure ------*- C++ -*-===//
///
/// \file
/// Congruence closure over hash-consed terms: union-find plus a signature
/// table, the decision procedure for the theory of uninterpreted functions
/// (and, with the projection rules layered on by the list domain, for the
/// theory of lists).  This is the E-DAG the paper's UF lattice operations
/// are built on.
///
//===----------------------------------------------------------------------===//

#ifndef CAI_DOMAINS_UF_CONGRUENCECLOSURE_H
#define CAI_DOMAINS_UF_CONGRUENCECLOSURE_H

#include "support/SmallVec.h"
#include "term/Conjunction.h"
#include "term/TermMap.h"

namespace cai {

/// A growable congruence-closed E-graph.
///
/// Nodes are created per distinct subterm via addTerm; equalities are
/// asserted with addEquality and congruence is restored eagerly, so
/// queries (find/areEqual) are always exact for the facts added so far.
class CongruenceClosure {
public:
  /// The argument nodes of one App node, inline up to three (an array
  /// store's arity; most symbols take one or two, and a larger arity
  /// spills to the heap).
  using NodeList = SmallVec<unsigned, 3>;

  explicit CongruenceClosure(const TermContext &Ctx) : Ctx(Ctx) {}

  /// Adds \p T and all its subterms; returns T's node.
  unsigned addTerm(Term T);

  /// Asserts A = B (adding both terms if needed) and restores congruence.
  void addEquality(Term A, Term B);

  /// Loads every equality atom of \p E (other atoms are ignored, which is
  /// the sound over-approximation for a theory that only speaks equality).
  void addConjunction(const Conjunction &E);

  bool hasTerm(Term T) const { return NodeOf.find(T) != nullptr; }

  /// Class representative of node \p N (path-compressing).
  unsigned find(unsigned N) const;

  /// True if both terms are present and congruent.  Terms are added on
  /// demand, which cannot change existing congruences.
  bool areEqual(Term A, Term B);

  unsigned numNodes() const { return static_cast<unsigned>(Terms.size()); }
  Term termOf(unsigned N) const { return Terms[N]; }
  bool isApp(unsigned N) const { return Terms[N]->isApp(); }
  Symbol symbolOf(unsigned N) const { return Terms[N]->symbol(); }
  /// Argument nodes of an App node (original nodes, not class reps).
  const NodeList &argsOf(unsigned N) const {
    assert(isApp(N) && "argsOf on a leaf node");
    return Args[N];
  }

  /// Merges the classes of two nodes and restores congruence (exposed so
  /// theory-specific rewrite rules, e.g. the list projections, can drive
  /// extra merges).
  void merge(unsigned A, unsigned B);

  /// All congruence classes, in ascending order of their representatives
  /// (each class's smallest node), each listing its members in ascending
  /// order.
  std::vector<std::vector<unsigned>> allClasses() const;

  const TermContext &context() const { return Ctx; }

private:
  /// Adds \p T and its subterms without restoring congruence; sets Pending
  /// when a new App node (which may complete a congruence) appears.
  unsigned addTermImpl(Term T);
  /// Merges two classes without restoring congruence; returns true if the
  /// classes were distinct.  The representative is always the smallest node
  /// index in the class, so the final partition is independent of the
  /// order in which a batch of merges is applied.
  bool unionClasses(unsigned A, unsigned B);
  /// Runs the deferred propagate(), if any merges or App nodes are pending.
  void flush();
  /// Restores congruence by fixpoint over the signature table.
  void propagate();
  /// Hash of App node \p N's signature: its symbol and the current class
  /// representatives of its arguments.
  uint64_t signatureHash(unsigned N) const;
  /// True if App nodes \p A and \p B have the same symbol and congruent
  /// arguments under the current classes.
  bool sameSignature(unsigned A, unsigned B) const;

  const TermContext &Ctx;
  bool Pending = false;
  std::vector<Term> Terms;                 // Node -> term.
  std::vector<NodeList> Args;              // Node -> argument nodes.
  mutable std::vector<unsigned> Parent;    // Union-find.
  TermMap<unsigned> NodeOf;
};

} // namespace cai

#endif // CAI_DOMAINS_UF_CONGRUENCECLOSURE_H
