//===- tests/persist_test.cpp - Persistent cache tier unit tests -----------===//
//
// The disk tier end to end at the library level: the CRC32 checksum, the
// shard-file header versioning (stale schema/options files rejected
// whole), record payload round-trips, the PersistStore's warm-restart
// index and LRU replay, the three corruption paths (torn tail,
// bit-flipped payload, wrong checksum) each degrading to a counted miss
// rather than a crash or a wrong result, read-time re-verification, and
// byte-budget GC via log compaction.
//
//===----------------------------------------------------------------------===//

#include "persist/PersistLog.h"
#include "persist/PersistStore.h"
#include "service/Fingerprint.h"
#include "service/Protocol.h"
#include "service/ResultCache.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

using namespace cai;
using namespace cai::persist;
using namespace cai::service;

namespace {

namespace fs = std::filesystem;

/// A unique scratch directory per test, removed on destruction.
struct TempDir {
  fs::path Path;
  explicit TempDir(const std::string &Tag) {
    Path = fs::temp_directory_path() /
           ("cai_persist_test_" + Tag + "_" +
            std::to_string(::getpid()));
    fs::remove_all(Path);
  }
  ~TempDir() {
    std::error_code EC;
    fs::remove_all(Path, EC);
  }
  std::string str() const { return Path.string(); }
};

/// A fingerprint whose leading hex digit pins its shard.
std::string fpInShard(unsigned Shard, char Fill = 'a') {
  std::string FP(32, Fill);
  FP[0] = "0123456789abcdef"[Shard];
  return FP;
}

JobResult makeResult(const std::string &FP, uint64_t Id = 0) {
  JobResult R;
  R.Id = Id;
  R.Name = "job-" + std::to_string(Id);
  R.Status = JobStatus::AssertionsFailed;
  R.Fingerprint = FP;
  R.Domain = "affine >< uf";
  R.Assertions = {{"assert@10", true}, {"assert@20", false}};
  R.NumVerified = 1;
  R.Stats.Joins = 3;
  R.Stats.Transfers = 7;
  R.Stats.MaxNodeUpdates = 2;
  return R;
}

/// The shard file a fingerprint's records land in.
fs::path shardPath(const TempDir &D, const std::string &FP) {
  return D.Path / shardFileName(shardOfFingerprint(FP));
}

// --- Container primitives ------------------------------------------------

TEST(PersistLog, Crc32KnownVector) {
  // The standard CRC-32 check value ("123456789" -> 0xCBF43926).
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
}

TEST(PersistLog, ShardOfFingerprintIsLeadingNibble) {
  EXPECT_EQ(shardOfFingerprint(fpInShard(0)), 0u);
  EXPECT_EQ(shardOfFingerprint(fpInShard(9)), 9u);
  EXPECT_EQ(shardOfFingerprint(fpInShard(15)), 15u);
  EXPECT_EQ(shardFileName(0), "shard-0.log");
  EXPECT_EQ(shardFileName(15), "shard-f.log");
}

TEST(PersistLog, HeaderVersionMismatchRejected) {
  std::string H = encodeHeader(3, 1);
  ASSERT_EQ(H.size(), PersistHeaderBytes);
  EXPECT_TRUE(checkHeader(H, 3, 1));
  EXPECT_FALSE(checkHeader(H, 2, 1)); // Stale cache schema.
  EXPECT_FALSE(checkHeader(H, 3, 2)); // Stale options format.
  std::string BadMagic = H;
  BadMagic[0] = 'X';
  EXPECT_FALSE(checkHeader(BadMagic, 3, 1));
  EXPECT_FALSE(checkHeader(H.substr(0, 8), 3, 1)); // Short header.
  // Container version 1: records whose payload predates the wire line.
  std::string OldContainer = H;
  OldContainer.replace(4, 4, std::string("\x01\0\0\0", 4));
  EXPECT_FALSE(checkHeader(OldContainer, 3, 1));
}

TEST(PersistLog, RecordFrameCarriesLengthAndChecksum) {
  std::string Frame = encodeRecordFrame("hello");
  ASSERT_EQ(Frame.size(), PersistRecordOverhead + 5);
  EXPECT_EQ(Frame.substr(PersistRecordOverhead), "hello");
}

// --- Payload round-trip --------------------------------------------------
//
// A record's payload is the result's wire line (service/Protocol.h).

TEST(PersistPayload, RoundTripsEveryField) {
  JobResult R = makeResult(fpInShard(4), 42);
  R.Linted = true;
  R.Findings.push_back(
      {"dead-branch", "warning", 12, 3, 5, "branch never taken",
       "poly >< uf"});
  std::optional<JobResult> Decoded = resultFromJsonLine(resultToJsonLine(R));
  ASSERT_TRUE(Decoded);
  const JobResult &Out = *Decoded;
  EXPECT_EQ(Out.Fingerprint, R.Fingerprint);
  EXPECT_EQ(Out.Status, R.Status);
  EXPECT_EQ(Out.Domain, R.Domain);
  EXPECT_EQ(Out.NumVerified, R.NumVerified);
  ASSERT_EQ(Out.Assertions.size(), 2u);
  EXPECT_EQ(Out.Assertions[0].Label, "assert@10");
  EXPECT_TRUE(Out.Assertions[0].Verified);
  EXPECT_FALSE(Out.Assertions[1].Verified);
  EXPECT_TRUE(Out.Linted);
  ASSERT_EQ(Out.Findings.size(), 1u);
  EXPECT_EQ(Out.Findings[0].Rule, "dead-branch");
  EXPECT_EQ(Out.Findings[0].Line, 12u);
  EXPECT_EQ(Out.Stats.Joins, 3u);
  EXPECT_EQ(Out.Stats.Transfers, 7u);
  EXPECT_EQ(Out.Stats.MaxNodeUpdates, 2u);
  // Serving a disk record is never a memory hit and carries no timing.
  EXPECT_FALSE(Out.CacheHit);
  EXPECT_EQ(Out.DurationMs, 0.0);
}

TEST(PersistPayload, DecodeRejectsMalformedInput) {
  EXPECT_FALSE(resultFromJsonLine("not json"));
  EXPECT_FALSE(resultFromJsonLine("{}")); // No fingerprint.
  JobResult R = makeResult(fpInShard(1));
  R.Linted = true;
  std::string Good = resultToJsonLine(R);
  ASSERT_TRUE(resultFromJsonLine(Good));
  std::string BadStatus = Good;
  size_t At = BadStatus.find("assertions-failed");
  ASSERT_NE(At, std::string::npos);
  BadStatus.replace(At, 17, "no-such-status-xx");
  EXPECT_FALSE(resultFromJsonLine(BadStatus));
  // Good with the value of field Key replaced by V.
  const Json GoodJson = *Json::parse(Good);
  auto With = [&](const std::string &Key, Json V) {
    Json Line = Json::object();
    for (const auto &[Field, Value] : GoodJson.fields())
      Line.set(Field, Field == Key ? V : Value);
    return Line.dump();
  };
  EXPECT_FALSE(resultFromJsonLine(With("assertions", Json::str("x"))));
  EXPECT_FALSE(resultFromJsonLine(With("findings", Json::object())));
  EXPECT_FALSE(resultFromJsonLine(With("stats", Json::array())));
}

// --- Store round-trip and warm restart -----------------------------------

TEST(PersistStore, RoundTripAcrossReopen) {
  TempDir D("roundtrip");
  std::string FP = fpInShard(7);
  {
    PersistStore Store(D.str(), /*ByteBudget=*/0);
    std::string Error;
    ASSERT_TRUE(Store.open(&Error)) << Error;
    Store.append(makeResult(FP, 1));
    EXPECT_TRUE(Store.flush());
    // Same-process lookup hits too (the scheduler's miss path).
    auto Hit = Store.lookup(FP);
    ASSERT_NE(Hit, nullptr);
    EXPECT_EQ(Hit->Fingerprint, FP);
  }
  PersistStore Store(D.str(), 0);
  std::string Error;
  ASSERT_TRUE(Store.open(&Error)) << Error;
  EXPECT_EQ(Store.stats().LiveRecords, 1u);
  auto Hit = Store.lookup(FP);
  ASSERT_NE(Hit, nullptr);
  EXPECT_EQ(Hit->Status, JobStatus::AssertionsFailed);
  EXPECT_EQ(Hit->NumVerified, 1u);
  EXPECT_EQ(Store.lookup(fpInShard(7, 'b')), nullptr); // Different job.
  EXPECT_EQ(Store.stats().Hits, 1u);
  EXPECT_EQ(Store.stats().Misses, 1u);
}

TEST(PersistStore, NewestRecordPerFingerprintWins) {
  TempDir D("newest");
  std::string FP = fpInShard(2);
  PersistStore Store(D.str(), 0);
  std::string Error;
  ASSERT_TRUE(Store.open(&Error)) << Error;
  JobResult Old = makeResult(FP, 1);
  Old.Status = JobStatus::AssertionsFailed;
  JobResult New = makeResult(FP, 2);
  New.Status = JobStatus::Verified;
  Store.append(Old);
  Store.append(New);
  ASSERT_TRUE(Store.flush());

  PersistStore Reopened(D.str(), 0);
  ASSERT_TRUE(Reopened.open(&Error)) << Error;
  EXPECT_EQ(Reopened.stats().LiveRecords, 1u);
  auto Hit = Reopened.lookup(FP);
  ASSERT_NE(Hit, nullptr);
  EXPECT_EQ(Hit->Status, JobStatus::Verified);
}

TEST(PersistStore, UncacheableAndUnfingerprintedResultsNotAppended) {
  TempDir D("uncacheable");
  PersistStore Store(D.str(), 0);
  std::string Error;
  ASSERT_TRUE(Store.open(&Error)) << Error;
  JobResult Timeout = makeResult(fpInShard(1));
  Timeout.Status = JobStatus::Timeout;
  Store.append(Timeout);
  JobResult NoFP = makeResult("");
  Store.append(NoFP);
  EXPECT_EQ(Store.stats().Appends, 0u);
  EXPECT_EQ(Store.stats().LiveRecords, 0u);
}

TEST(PersistStore, ReplayIntoSeedsTheMemoryTier) {
  TempDir D("replay");
  std::string Error;
  {
    PersistStore Store(D.str(), 0);
    ASSERT_TRUE(Store.open(&Error)) << Error;
    for (unsigned I = 0; I < 4; ++I)
      Store.append(makeResult(fpInShard(I), I));
    ASSERT_TRUE(Store.flush());
  }
  PersistStore Store(D.str(), 0);
  ASSERT_TRUE(Store.open(&Error)) << Error;
  ResultCache Cache(1 << 20);
  EXPECT_EQ(Store.replayInto(Cache), 4u);
  EXPECT_EQ(Store.stats().Replayed, 4u);
  EXPECT_EQ(Cache.stats().Entries, 4u);
  auto Hit = Cache.lookup(fpInShard(2));
  ASSERT_NE(Hit, nullptr);
  EXPECT_EQ(Hit->Fingerprint, fpInShard(2));
}

// --- Version guards ------------------------------------------------------

TEST(PersistStore, StaleSchemaFileRejectedWholesale) {
  TempDir D("stale");
  std::string FP = fpInShard(5);
  {
    // A log written under the previous cache schema: every record in it
    // keyed by fingerprints the current code would compute differently.
    PersistLog OldLog(D.str(), CacheSchemaVersion - 1, OptionsFormatVersion);
    std::string Error;
    ASSERT_TRUE(OldLog.open(&Error)) << Error;
    OldLog.append(shardOfFingerprint(FP), resultToJsonLine(makeResult(FP)));
    ASSERT_TRUE(OldLog.flush(&Error)) << Error;
    OldLog.closeFiles();
  }
  PersistStore Store(D.str(), 0);
  std::string Error;
  ASSERT_TRUE(Store.open(&Error)) << Error;
  EXPECT_GE(Store.stats().StaleFiles, 1u);
  EXPECT_EQ(Store.stats().LiveRecords, 0u);
  EXPECT_EQ(Store.lookup(FP), nullptr);
  // The stale file was truncated and restamped: new appends round-trip
  // under the current schema.
  Store.append(makeResult(FP));
  ASSERT_TRUE(Store.flush());
  PersistStore Reopened(D.str(), 0);
  ASSERT_TRUE(Reopened.open(&Error)) << Error;
  EXPECT_EQ(Reopened.stats().StaleFiles, 0u);
  ASSERT_NE(Reopened.lookup(FP), nullptr);
}

// --- Corruption paths ----------------------------------------------------

TEST(PersistStore, TruncatedTailSkippedEarlierRecordsSurvive) {
  TempDir D("torn");
  std::string FP = fpInShard(3);
  std::string Error;
  {
    PersistStore Store(D.str(), 0);
    ASSERT_TRUE(Store.open(&Error)) << Error;
    Store.append(makeResult(FP));
    ASSERT_TRUE(Store.flush());
  }
  // Simulate a crash mid-append: half a frame at the end of the shard.
  {
    std::ofstream Tail(shardPath(D, FP), std::ios::app | std::ios::binary);
    std::string Frame = encodeRecordFrame("payload never finished");
    Tail.write(Frame.data(), static_cast<std::streamsize>(Frame.size() / 2));
  }
  PersistStore Store(D.str(), 0);
  ASSERT_TRUE(Store.open(&Error)) << Error;
  EXPECT_GE(Store.stats().Corrupt, 1u);
  auto Hit = Store.lookup(FP); // The complete record still serves.
  ASSERT_NE(Hit, nullptr);
  EXPECT_EQ(Hit->Fingerprint, FP);
}

TEST(PersistStore, BitFlippedPayloadIsACountedMiss) {
  TempDir D("bitflip");
  std::string FP = fpInShard(6);
  std::string Error;
  {
    PersistStore Store(D.str(), 0);
    ASSERT_TRUE(Store.open(&Error)) << Error;
    Store.append(makeResult(FP));
    ASSERT_TRUE(Store.flush());
  }
  {
    std::fstream F(shardPath(D, FP),
                   std::ios::in | std::ios::out | std::ios::binary);
    // Flip a bit in the payload, well past the header and frame words.
    F.seekp(static_cast<std::streamoff>(PersistHeaderBytes +
                                        PersistRecordOverhead + 10));
    char C;
    F.seekg(F.tellp());
    F.get(C);
    F.seekp(static_cast<std::streamoff>(PersistHeaderBytes +
                                        PersistRecordOverhead + 10));
    F.put(static_cast<char>(C ^ 0x40));
  }
  PersistStore Store(D.str(), 0);
  ASSERT_TRUE(Store.open(&Error)) << Error;
  EXPECT_GE(Store.stats().Corrupt, 1u);
  EXPECT_EQ(Store.stats().LiveRecords, 0u);
  EXPECT_EQ(Store.lookup(FP), nullptr);
}

TEST(PersistStore, WrongChecksumIsACountedMiss) {
  TempDir D("badcrc");
  std::string FP = fpInShard(9);
  std::string Error;
  {
    PersistStore Store(D.str(), 0);
    ASSERT_TRUE(Store.open(&Error)) << Error;
    Store.append(makeResult(FP));
    ASSERT_TRUE(Store.flush());
  }
  {
    std::fstream F(shardPath(D, FP),
                   std::ios::in | std::ios::out | std::ios::binary);
    // The CRC word sits right after the length word.
    F.seekp(static_cast<std::streamoff>(PersistHeaderBytes + 4));
    F.put('\x5a');
  }
  PersistStore Store(D.str(), 0);
  ASSERT_TRUE(Store.open(&Error)) << Error;
  EXPECT_GE(Store.stats().Corrupt, 1u);
  EXPECT_EQ(Store.lookup(FP), nullptr);
}

TEST(PersistStore, LookupReverifiesAtReadTime) {
  // The file can rot *after* open() indexed it; lookup() must catch that
  // too, drop the entry and serve a miss instead of a wrong result.
  TempDir D("readtime");
  std::string FP = fpInShard(11);
  std::string Error;
  PersistStore Store(D.str(), 0);
  ASSERT_TRUE(Store.open(&Error)) << Error;
  Store.append(makeResult(FP));
  ASSERT_TRUE(Store.flush());
  {
    std::fstream F(shardPath(D, FP),
                   std::ios::in | std::ios::out | std::ios::binary);
    F.seekp(static_cast<std::streamoff>(PersistHeaderBytes +
                                        PersistRecordOverhead + 5));
    F.put('#');
  }
  EXPECT_EQ(Store.lookup(FP), nullptr);
  EXPECT_GE(Store.stats().Corrupt, 1u);
  // The index entry was dropped: the retry is a cheap miss, not another
  // read + CRC failure.
  uint64_t CorruptBefore = Store.stats().Corrupt;
  EXPECT_EQ(Store.lookup(FP), nullptr);
  EXPECT_EQ(Store.stats().Corrupt, CorruptBefore);
}

// --- Byte-budget GC ------------------------------------------------------

TEST(PersistStore, CompactionEnforcesTheByteBudget) {
  TempDir D("compact");
  std::string Error;
  // ~335 bytes per record; a 4 KiB budget forces eviction well before 32
  // distinct fingerprints are in.
  uint64_t Budget = 4096 + PersistNumShards * PersistHeaderBytes;
  PersistStore Store(D.str(), Budget, /*FlushEvery=*/1);
  ASSERT_TRUE(Store.open(&Error)) << Error;
  for (unsigned I = 0; I < 32; ++I)
    Store.append(makeResult(fpInShard(I % PersistNumShards,
                                      static_cast<char>('a' + I / 16)),
                            I));
  ASSERT_TRUE(Store.flush());
  PersistStats St = Store.stats();
  EXPECT_GE(St.Compactions, 1u);
  EXPECT_GE(St.Evictions, 1u);
  EXPECT_LE(St.LogBytes, Budget);
  EXPECT_LT(St.LiveRecords, 32u);
  EXPECT_GT(St.LiveRecords, 0u);
  // Eviction is oldest-first: the newest record must have survived.
  EXPECT_NE(Store.lookup(fpInShard(31 % PersistNumShards, 'b')), nullptr);

  // Compaction rewrote the files consistently: a reopen sees the same
  // live set and every survivor still decodes.
  PersistStore Reopened(D.str(), Budget);
  ASSERT_TRUE(Reopened.open(&Error)) << Error;
  EXPECT_EQ(Reopened.stats().LiveRecords, St.LiveRecords);
  EXPECT_EQ(Reopened.stats().Corrupt, 0u);
  EXPECT_NE(Reopened.lookup(fpInShard(31 % PersistNumShards, 'b')), nullptr);
}

} // namespace
