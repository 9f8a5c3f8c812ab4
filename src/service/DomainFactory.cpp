//===- service/DomainFactory.cpp - --domain spec parsing -------------------===//

#include "service/DomainFactory.h"

#include "domains/affine/AffineDomain.h"
#include "domains/arrays/ArrayDomain.h"
#include "domains/lists/ListDomain.h"
#include "domains/parity/ParityDomain.h"
#include "domains/poly/PolyDomain.h"
#include "domains/sign/SignDomain.h"
#include "domains/uf/UFDomain.h"
#include "product/DirectProduct.h"
#include "product/LogicalProduct.h"

#include <cstring>
#include <set>

using namespace cai;
using namespace cai::service;

DomainFactory::DomainFactory(TermContext &Ctx) : Ctx(Ctx) {}
DomainFactory::~DomainFactory() = default;

LogicalLattice *DomainFactory::keep(std::unique_ptr<LogicalLattice> L) {
  Owned.push_back(std::move(L));
  return Owned.back().get();
}

LogicalLattice *DomainFactory::build(const std::string &Spec) {
  // Pre-scan: if the spec mentions lists, build the symbol donor first so
  // UF cedes car/cdr/cons wherever it appears in the tree.
  if (!ListsInstance && Spec.find("lists") != std::string::npos)
    ListsInstance = std::make_unique<ListDomain>(Ctx);
  size_t Pos = 0;
  LogicalLattice *L = parse(Spec, Pos);
  if (!L)
    return nullptr;
  if (Pos != Spec.size()) {
    Error = "trailing input in domain spec";
    return nullptr;
  }
  return L;
}

LogicalLattice *DomainFactory::parse(const std::string &S, size_t &Pos) {
  auto StartsWith = [&](const char *Word) {
    size_t Len = std::strlen(Word);
    return S.compare(Pos, Len, Word) == 0;
  };
  if (Pos < S.size() && S[Pos] == '(') {
    ++Pos;
    LogicalLattice *Inner = parse(S, Pos);
    if (!Inner)
      return nullptr;
    if (Pos >= S.size() || S[Pos] != ')') {
      Error = "expected ')' in domain spec";
      return nullptr;
    }
    ++Pos;
    return Inner;
  }
  for (const char *Kind : {"direct", "reduced", "logical"}) {
    if (!StartsWith(Kind) || S[Pos + std::strlen(Kind)] != ':')
      continue;
    Pos += std::strlen(Kind) + 1;
    LogicalLattice *First = parse(S, Pos);
    if (!First)
      return nullptr;
    if (Pos >= S.size() || S[Pos] != ',') {
      Error = "expected ',' between product components";
      return nullptr;
    }
    ++Pos;
    LogicalLattice *Second = parse(S, Pos);
    if (!Second)
      return nullptr;
    if (std::strcmp(Kind, "direct") == 0)
      return keep(std::make_unique<DirectProduct>(Ctx, *First, *Second));
    auto Mode = std::strcmp(Kind, "reduced") == 0
                    ? LogicalProduct::Mode::Reduced
                    : LogicalProduct::Mode::Logical;
    return keep(std::make_unique<LogicalProduct>(Ctx, *First, *Second, Mode));
  }
  auto Take = [&](const char *Word) {
    if (!StartsWith(Word))
      return false;
    Pos += std::strlen(Word);
    return true;
  };
  std::unique_ptr<LogicalLattice> L;
  if (Take("affine")) {
    L = std::make_unique<AffineDomain>(Ctx);
  } else if (Take("poly")) {
    L = std::make_unique<PolyDomain>(Ctx);
  } else if (Take("uf")) {
    // If a lists domain participates anywhere in the spec, cede its
    // symbols so the nested product dispatches them correctly.
    std::set<Symbol> Excluded;
    if (ListsInstance)
      Excluded = {ListsInstance->carSym(), ListsInstance->cdrSym(),
                  ListsInstance->consSym()};
    L = std::make_unique<UFDomain>(Ctx, Excluded);
  } else if (Take("parity")) {
    L = std::make_unique<ParityDomain>(Ctx);
  } else if (Take("sign")) {
    L = std::make_unique<SignDomain>(Ctx);
  } else if (Take("lists")) {
    L = std::make_unique<ListDomain>(Ctx);
  } else if (Take("arrays")) {
    L = std::make_unique<ArrayDomain>(Ctx);
  } else {
    Error = "unknown domain at '" + S.substr(Pos) + "'";
    return nullptr;
  }
  return keep(std::move(L));
}
