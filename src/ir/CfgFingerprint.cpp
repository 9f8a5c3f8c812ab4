//===- ir/CfgFingerprint.cpp - Per-WTO-component CFG fingerprints ---------===//

#include "ir/CfgFingerprint.h"

#include "support/Hash.h"
#include "term/StateCodec.h"

using namespace cai;

namespace {

void hashAction(const TermContext &Ctx, const Action &Act, Fnv1a &F) {
  F.byte(static_cast<uint8_t>(Act.Kind));
  std::string Enc;
  switch (Act.Kind) {
  case ActionKind::Skip:
    break;
  case ActionKind::Assign:
    codec::encodeTerm(Ctx, Act.Var, Enc);
    codec::encodeTerm(Ctx, Act.Value, Enc);
    break;
  case ActionKind::Havoc:
    codec::encodeTerm(Ctx, Act.Var, Enc);
    break;
  case ActionKind::Assume:
    Enc = codec::encodeConjunction(Ctx, Act.Cond);
    break;
  }
  F.bytes(Enc);
}

} // namespace

ComponentFingerprints cai::fingerprintComponents(const TermContext &Ctx,
                                                 const Program &P,
                                                 const WTO &Order) {
  ComponentFingerprints FP;
  const std::vector<NodeId> &Linear = Order.order();

  // Element index and in-element offset per node.
  std::vector<unsigned> ElementOf(P.numNodes(), 0);
  std::vector<unsigned> OffsetOf(P.numNodes(), 0);
  for (unsigned S = 0; S < Linear.size(); S = Order.componentEnd(S)) {
    unsigned E = Order.componentEnd(S);
    unsigned K = static_cast<unsigned>(FP.Starts.size());
    FP.Starts.push_back(S);
    for (unsigned Pos = S; Pos < E; ++Pos) {
      ElementOf[Linear[Pos]] = K;
      OffsetOf[Linear[Pos]] = Pos - S;
    }
  }

  std::vector<Fnv1a> Local(FP.numElements());
  for (size_t K = 0; K < FP.numElements(); ++K) {
    unsigned S = FP.Starts[K];
    unsigned E = Order.componentEnd(S);
    Fnv1a &F = Local[K];
    F.word(E - S);
    for (unsigned Pos = S; Pos < E; ++Pos) {
      NodeId N = Linear[Pos];
      F.byte(N == P.entry());
      F.byte(Order.isHead(N));
      F.word(Order.depth(N));
      for (const Assertion &A : P.assertions()) {
        if (A.Node != N)
          continue;
        std::string Enc;
        codec::encodeAtom(Ctx, A.Fact, Enc);
        F.bytes(Enc);
        // The label is part of the serialized result, so a label-only edit
        // must dirty the element that re-checks the assertion.
        F.bytes(A.Label);
      }
    }
  }

  // Every edge is charged to its *target's* element: under the staged
  // engine an element's final states depend on its incoming edges (and,
  // through the chain, everything upstream) but never on where its own
  // out-edges point.  The global edge index pins the evaluation order that
  // the engine's successor lists follow.
  const std::vector<Edge> &Edges = P.edges();
  for (size_t Idx = 0; Idx < Edges.size(); ++Idx) {
    const Edge &Ed = Edges[Idx];
    Fnv1a &F = Local[ElementOf[Ed.To]];
    F.word(Idx);
    F.word(ElementOf[Ed.From]);
    F.word(OffsetOf[Ed.From]);
    F.word(OffsetOf[Ed.To]);
    hashAction(Ctx, Ed.Act, F);
  }

  FP.Local.resize(FP.numElements());
  FP.Chain.resize(FP.numElements());
  uint64_t Prev = 0x2545f4914f6cdd1dull; // Chain seed.
  for (size_t K = 0; K < FP.numElements(); ++K) {
    FP.Local[K] = Local[K].value();
    Fnv1a C;
    C.word(Prev);
    C.word(FP.Local[K]);
    FP.Chain[K] = C.value();
    Prev = FP.Chain[K];
  }
  return FP;
}
