//===- term/StateCodec.cpp - Context-free term/state serialization --------===//

#include "term/StateCodec.h"

#include <vector>

using namespace cai;

namespace {

void appendName(char Tag, const std::string &Name, std::string &Out) {
  Out += Tag;
  Out += std::to_string(Name.size());
  Out += ':';
  Out += Name;
}

/// Parses "<len>:<bytes>" at Pos; empty optional on malformed input.
std::optional<std::string> readName(const std::string &Text, size_t &Pos) {
  size_t Len = 0;
  bool Any = false;
  while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9') {
    Len = Len * 10 + static_cast<size_t>(Text[Pos] - '0');
    ++Pos;
    Any = true;
    if (Len > Text.size())
      return std::nullopt; // Cheap overflow/garbage guard.
  }
  if (!Any || Pos >= Text.size() || Text[Pos] != ':')
    return std::nullopt;
  ++Pos;
  if (Text.size() - Pos < Len)
    return std::nullopt;
  std::string Name = Text.substr(Pos, Len);
  Pos += Len;
  return Name;
}

/// Parses a decimal count followed by ':'.
std::optional<size_t> readCount(const std::string &Text, size_t &Pos) {
  size_t N = 0;
  bool Any = false;
  while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9') {
    N = N * 10 + static_cast<size_t>(Text[Pos] - '0');
    ++Pos;
    Any = true;
    if (N > Text.size())
      return std::nullopt;
  }
  if (!Any || Pos >= Text.size() || Text[Pos] != ':')
    return std::nullopt;
  ++Pos;
  return N;
}

/// Parses the "n" / "n/d" rendering produced by Rational::toString.
std::optional<Rational> parseRational(const std::string &Text) {
  auto ParseInt = [](const std::string &S) -> std::optional<BigInt> {
    if (!BigInt::isValidDecimal(S))
      return std::nullopt;
    return BigInt::fromString(S);
  };
  size_t Slash = Text.find('/');
  if (Slash == std::string::npos) {
    std::optional<BigInt> Num = ParseInt(Text);
    if (!Num)
      return std::nullopt;
    return Rational(std::move(*Num));
  }
  std::optional<BigInt> Num = ParseInt(Text.substr(0, Slash));
  std::optional<BigInt> Den = ParseInt(Text.substr(Slash + 1));
  if (!Num || !Den || Den->isZero())
    return std::nullopt;
  return Rational(std::move(*Num), std::move(*Den));
}

/// Looks up \p Name without creating it and checks kind/arity.  The
/// variadic sum symbol accepts any argument count.
Symbol lookupSymbol(const TermContext &Ctx, const std::string &Name,
                    SymbolKind Kind, size_t NumArgs) {
  Symbol S = Ctx.findSymbol(Name);
  if (!S.isValid())
    return Symbol();
  const SymbolInfo &Info = Ctx.info(S);
  if (Info.Kind != Kind)
    return Symbol();
  if (Info.Arity != ~0u && Info.Arity != NumArgs)
    return Symbol();
  return S;
}

} // namespace

void codec::encodeTerm(const TermContext &Ctx, Term T, std::string &Out) {
  switch (T->kind()) {
  case TermKind::Variable:
    appendName('V', T->varName(), Out);
    return;
  case TermKind::Number:
    appendName('N', T->number().toString(), Out);
    return;
  case TermKind::App:
    appendName('A', Ctx.info(T->symbol()).Name, Out);
    Out += '#';
    Out += std::to_string(T->args().size());
    Out += ':';
    for (Term Arg : T->args())
      encodeTerm(Ctx, Arg, Out);
    return;
  }
}

void codec::encodeAtom(const TermContext &Ctx, const Atom &A,
                       std::string &Out) {
  appendName('P', Ctx.info(A.predicate()).Name, Out);
  Out += '#';
  Out += std::to_string(A.args().size());
  Out += ':';
  for (Term Arg : A.args())
    encodeTerm(Ctx, Arg, Out);
}

std::string codec::encodeConjunction(const TermContext &Ctx,
                                     const Conjunction &C) {
  if (C.isBottom())
    return "F";
  std::string Out;
  Out += 'C';
  Out += std::to_string(C.size());
  Out += ':';
  for (const Atom &A : C)
    encodeAtom(Ctx, A, Out);
  return Out;
}

Term codec::decodeTerm(TermContext &Ctx, const std::string &Text,
                       size_t &Pos) {
  if (Pos >= Text.size())
    return nullptr;
  char Tag = Text[Pos++];
  std::optional<std::string> Name = readName(Text, Pos);
  if (!Name)
    return nullptr;
  switch (Tag) {
  case 'V':
    return Name->empty() ? nullptr : Ctx.mkVar(*Name);
  case 'N': {
    std::optional<Rational> R = parseRational(*Name);
    return R ? Ctx.mkNum(std::move(*R)) : nullptr;
  }
  case 'A': {
    if (Pos >= Text.size() || Text[Pos] != '#')
      return nullptr;
    ++Pos;
    std::optional<size_t> Count = readCount(Text, Pos);
    if (!Count)
      return nullptr;
    std::vector<Term> Args;
    Args.reserve(*Count);
    for (size_t I = 0; I < *Count; ++I) {
      Term Arg = decodeTerm(Ctx, Text, Pos);
      if (!Arg)
        return nullptr;
      Args.push_back(Arg);
    }
    Symbol S = lookupSymbol(Ctx, *Name, SymbolKind::Function, *Count);
    if (!S.isValid())
      return nullptr;
    // Raw mkApp, not mkAdd/mkMul: the encoded term was already in the
    // builders' canonical form, so re-interning it verbatim reproduces the
    // identical node.
    return Ctx.mkApp(S, std::move(Args));
  }
  default:
    return nullptr;
  }
}

std::optional<Atom> codec::decodeAtom(TermContext &Ctx,
                                      const std::string &Text, size_t &Pos) {
  if (Pos >= Text.size() || Text[Pos] != 'P')
    return std::nullopt;
  ++Pos;
  std::optional<std::string> Name = readName(Text, Pos);
  if (!Name || Pos >= Text.size() || Text[Pos] != '#')
    return std::nullopt;
  ++Pos;
  std::optional<size_t> Count = readCount(Text, Pos);
  if (!Count)
    return std::nullopt;
  std::vector<Term> Args;
  Args.reserve(*Count);
  for (size_t I = 0; I < *Count; ++I) {
    Term Arg = decodeTerm(Ctx, Text, Pos);
    if (!Arg)
      return std::nullopt;
    Args.push_back(Arg);
  }
  Symbol S = lookupSymbol(Ctx, *Name, SymbolKind::Predicate, *Count);
  if (!S.isValid())
    return std::nullopt;
  return Atom(S, std::move(Args));
}

std::optional<Conjunction> codec::decodeConjunction(TermContext &Ctx,
                                                    const std::string &Text) {
  if (Text == "F")
    return Conjunction::bottom();
  size_t Pos = 0;
  if (Pos >= Text.size() || Text[Pos] != 'C')
    return std::nullopt;
  ++Pos;
  std::optional<size_t> Count = readCount(Text, Pos);
  if (!Count)
    return std::nullopt;
  Conjunction::AtomList Atoms;
  Atoms.reserve(*Count);
  for (size_t I = 0; I < *Count; ++I) {
    std::optional<Atom> A = decodeAtom(Ctx, Text, Pos);
    if (!A)
      return std::nullopt;
    Atoms.push_back(std::move(*A));
  }
  if (Pos != Text.size())
    return std::nullopt;
  // Conjunction::of re-sorts under this context's predicate indices, which
  // may order atoms differently than the encoding context did; the sorted
  // result is exactly what a from-scratch run in this context would hold.
  return Conjunction::of(std::move(Atoms));
}
