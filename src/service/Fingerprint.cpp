//===- service/Fingerprint.cpp - Canonical job fingerprints ----------------===//

#include "service/Fingerprint.h"

#include "support/Hash.h"

#include <cstdio>

using namespace cai;
using namespace cai::service;

std::string cai::service::canonicalProgramText(const std::string &Text) {
  std::string Out;
  Out.reserve(Text.size());
  std::string Line;
  auto Flush = [&] {
    // Blank `//` comments (the mini-language has no string literals, so
    // the scan cannot misfire inside one), then drop trailing blanks.
    size_t Comment = Line.find("//");
    if (Comment != std::string::npos)
      Line.resize(Comment);
    size_t End = Line.find_last_not_of(" \t");
    Line.resize(End == std::string::npos ? 0 : End + 1);
    // Lines that canonicalize to nothing (blank or comment-only) are
    // dropped entirely -- they cannot affect the parse.
    if (!Line.empty()) {
      Out += Line;
      Out += '\n';
    }
    Line.clear();
  };
  for (char C : Text) {
    if (C == '\r')
      continue;
    if (C == '\n') {
      Flush();
      continue;
    }
    Line += C;
  }
  if (!Line.empty())
    Flush();
  return Out;
}

namespace {

void hashOptions(Fnv1a &F, const JobOptions &Opts) {
  F.word(CacheSchemaVersion);
  F.bytes(Opts.DomainSpec);
  F.bytes(Opts.Encode);
  F.word(Opts.WideningDelay);
  F.word(Opts.NarrowingPasses);
  F.word(Opts.SemanticConvergence ? 1 : 0);
  F.word(Opts.Memoize ? 1 : 0);
  F.word(static_cast<uint64_t>(Opts.PolyMaxRows));
  F.word(Opts.Lint ? 1 : 0);
  F.bytes(Opts.LintChecks);
}

uint64_t hashKey(const JobSpec &Spec, const std::string &Canon,
                 uint64_t Seed) {
  Fnv1a F(Seed);
  F.bytes(Canon);
  hashOptions(F, Spec.Opts);
  return F.value();
}

} // namespace

std::string cai::service::fingerprintJob(const JobSpec &Spec) {
  std::string Canon = canonicalProgramText(Spec.ProgramText);
  uint64_t Lo = hashKey(Spec, Canon, Fnv1a::OffsetBasis);
  uint64_t Hi = hashKey(Spec, Canon, 0x9e3779b97f4a7c15ull);
  char Buf[33];
  std::snprintf(Buf, sizeof(Buf), "%016llx%016llx",
                static_cast<unsigned long long>(Hi),
                static_cast<unsigned long long>(Lo));
  return Buf;
}

std::string cai::service::optionsFingerprint(const JobOptions &Opts) {
  Fnv1a F;
  hashOptions(F, Opts);
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(F.value()));
  return Buf;
}
