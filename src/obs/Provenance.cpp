//===- obs/Provenance.cpp - Precision-loss provenance ----------------------===//

#include "obs/Provenance.h"

#include "term/Printer.h"
#include "theory/LogicalLattice.h"

#include <set>
#include <sstream>

using namespace cai;
using namespace cai::obs;

thread_local ProvenanceRecorder *ProvenanceRecorder::Active = nullptr;

const char *ProvenanceRecorder::stepName(Step S) {
  switch (S) {
  case Step::Join:
    return "join";
  case Step::Widen:
    return "widening";
  case Step::Narrow:
    return "narrowing meet";
  case Step::ComponentJoin:
    return "component join";
  case Step::ComponentWiden:
    return "component widening";
  case Step::Quantification:
    return "dummy elimination (existQuant)";
  }
  return "?";
}

bool ProvenanceRecorder::recorded(const Atom &A) const {
  // The same (node, update) context covers at most a handful of events, all
  // at the tail of the record.
  for (auto It = Events.rbegin(); It != Events.rend(); ++It) {
    if (It->Node != Cur.Node || It->Update != Cur.Update)
      return false;
    if (It->Lost == A)
      return true;
  }
  return false;
}

std::string ProvenanceRecorder::describe(const TermContext &Ctx,
                                         const LossEvent &E) const {
  std::ostringstream OS;
  OS << "node " << E.Node << ", update #" << E.Update << ": "
     << stepName(E.Kind) << " dropped '" << toString(Ctx, E.Lost) << "'"
     << " [domain: " << E.Domain << "]";
  if (E.SaturationRounds)
    OS << " (after " << E.SaturationRounds << " saturation rounds)";
  return OS.str();
}

std::string ProvenanceRecorder::explain(const TermContext &Ctx, unsigned Node,
                                        const Atom &Fact) const {
  if (Events.empty())
    return "";
  std::set<uint64_t> FactVars;
  std::vector<Term> Vars;
  Fact.collectVars(Vars);
  for (Term V : Vars)
    FactVars.insert(V->id());
  auto Shares = [&](const LossEvent &E) {
    std::vector<Term> EV;
    E.Lost.collectVars(EV);
    for (Term V : EV)
      if (FactVars.count(V->id()))
        return true;
    return false;
  };
  std::ostringstream OS;
  bool Any = false;
  // Losses at the assertion's own node first, then related losses upstream.
  for (int Pass = 0; Pass < 2; ++Pass) {
    for (const LossEvent &E : Events) {
      bool AtNode = E.Node == Node;
      if ((Pass == 0) != AtNode || !Shares(E))
        continue;
      OS << "  " << describe(Ctx, E) << "\n";
      Any = true;
    }
  }
  if (!Any)
    for (const LossEvent &E : Events)
      OS << "  " << describe(Ctx, E) << "\n";
  return OS.str();
}

void cai::obs::diffStep(const LogicalLattice &L, const Conjunction &Before,
                        const Conjunction *Incoming,
                        const Conjunction &After) {
  ProvenanceRecorder *R = ProvenanceRecorder::active();
  if (!R || !R->context().Valid)
    return;
  const ProvenanceRecorder::Context &Cur = R->context();
  std::set<Atom> Seen;
  auto Check = [&](const Conjunction &Input) {
    if (Input.isBottom())
      return;
    for (const Atom &A : Input.atoms()) {
      if (!Seen.insert(A).second || R->recorded(A))
        continue;
      if (!After.isBottom() && L.entails(After, A))
        continue;
      ProvenanceRecorder::LossEvent E;
      E.Kind = Cur.Kind;
      E.Node = Cur.Node;
      E.Update = Cur.Update;
      E.Lost = A;
      E.Domain = L.attributeAtom(A);
      E.SaturationRounds = 0;
      R->record(std::move(E));
    }
  };
  Check(Before);
  if (Incoming)
    Check(*Incoming);
}
