//===- service/Fingerprint.h - Canonical job fingerprints -------*- C++ -*-===//
///
/// \file
/// The ResultCache key: a 128-bit hex fingerprint over everything that
/// determines a job's result -- the program text, the domain spec, the
/// encode scheme, and the analyzer options that change invariants or
/// reported stats.  Two submissions with equal fingerprints are the same
/// analysis by construction, so a warm cache may answer the second from
/// memory.
///
/// The fingerprint is *canonical* in the sense that semantically inert
/// presentation differences are normalized away before hashing: line
/// endings (CRLF -> LF), trailing horizontal whitespace, blank and
/// comment-only lines, and `//` comments (the parser blanks them too, see
/// ProgramParser).  Differences
/// that could change the analysis -- any other byte of the program, any
/// option in the key -- always produce distinct fingerprints.
///
//===----------------------------------------------------------------------===//

#ifndef CAI_SERVICE_FINGERPRINT_H
#define CAI_SERVICE_FINGERPRINT_H

#include "service/Job.h"

#include <string>

namespace cai {
namespace service {

/// Version of the cache key schema, hashed into every fingerprint.  Bump
/// it whenever the meaning of a cached result changes without any key
/// field changing (an engine rework, a serialization change): old entries
/// then miss instead of replaying stale bytes.  Version history:
///   1  original schema (implicit -- nothing hashed)
///   2  element-staged fixpoint engine (different join/widen sequences,
///      so stats differ from the pre-staged engine on the same inputs)
///   3  persistent cache tier: results now outlive the process via the
///      on-disk record log (persist/PersistStore.h), so the version also
///      guards the disk format -- it is embedded in every log file's
///      header and a mismatch rejects the file on load
///   4  logical products whose first component's join commutes with
///      projection (logical:affine,uf) hand it only the dummy pairs the
///      second component's join keeps: equivalent invariants, different
///      bytes and engine counters
constexpr uint64_t CacheSchemaVersion = 4;

/// Version of the result-affecting option-fingerprint *format*: which
/// JobOptions fields hashOptions() folds in and in what order.  Also
/// embedded in the persist log header -- two processes can only share a
/// disk cache if they agree on what "same options" means.  Bump when a
/// field is added to or removed from the options key.  Version history:
///   1  DomainSpec, Encode, WideningDelay, NarrowingPasses,
///      SemanticConvergence, Memoize, PolyMaxRows, Lint, LintChecks
constexpr uint64_t OptionsFormatVersion = 1;

/// The canonicalized program text the fingerprint hashes (exposed for
/// tests).
std::string canonicalProgramText(const std::string &Text);

/// 32 hex characters, deterministic across processes and platforms.
std::string fingerprintJob(const JobSpec &Spec);

/// 16 hex characters over the result-affecting *options* only (domain
/// spec, encode scheme, analyzer knobs, schema version) -- no program
/// text.  The snapshot tier requires equal options fingerprints before
/// reusing a fixpoint snapshot across versions of a program.
std::string optionsFingerprint(const JobOptions &Opts);

} // namespace service
} // namespace cai

#endif // CAI_SERVICE_FINGERPRINT_H
