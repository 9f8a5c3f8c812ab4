//===- tests/persist_test.cpp - Persistent cache tier unit tests -----------===//
//
// The disk tier end to end at the library level: the CRC32 checksum, the
// keyed record frame, the log header versioning (stale schema, options
// and container files rejected whole, the older sharded layout removed),
// record payload round-trips, the PersistStore's warm-restart index and
// its one-pass LRU replay (superseded records skipped undecoded, a key
// that disagrees with its payload never served), the three corruption
// paths (torn tail, bit-flipped payload, wrong checksum) each degrading
// to a counted miss rather than a crash or a wrong result, read-time
// re-verification, and byte-budget GC via log compaction, oldest record
// first by its place in the file, down to half the budget.
//
//===----------------------------------------------------------------------===//

#include "persist/PersistLog.h"
#include "persist/PersistStore.h"
#include "service/Fingerprint.h"
#include "service/Protocol.h"
#include "service/ResultCache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <vector>

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

/// A fingerprint led by hex digit \p Digit and filled with \p Fill.
std::string makeFp(unsigned Digit, char Fill = 'a') {
  std::string FP(32, Fill);
  FP[0] = "0123456789abcdef"[Digit];
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

/// The store's one log file.
fs::path logPath(const TempDir &D) { return D.Path / PersistLogFileName; }

/// The names of the files in the store directory.
std::vector<std::string> filesIn(const TempDir &D) {
  std::vector<std::string> Names;
  for (const auto &Entry : fs::directory_iterator(D.Path))
    Names.push_back(Entry.path().filename().string());
  std::sort(Names.begin(), Names.end());
  return Names;
}

/// Writes \p Bytes over the log starting at \p Offset.
void overwrite(const TempDir &D, uint64_t Offset, const std::string &Bytes) {
  std::fstream F(logPath(D), std::ios::in | std::ios::out | std::ios::binary);
  F.seekp(static_cast<std::streamoff>(Offset));
  F.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

/// The whole log file.
std::string readLog(const TempDir &D) {
  std::ifstream F(logPath(D), std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(F), {});
}

/// \p V as the four little-endian bytes the log stores.
std::string le32(uint32_t V) {
  std::string Out;
  for (int I = 0; I < 4; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xFF));
  return Out;
}

/// One record frame for \p Key and \p Payload.
std::string frameOf(std::string_view Key, std::string_view Payload) {
  std::string Bytes;
  appendRecordFrame(Bytes, Key, Payload);
  return Bytes;
}

/// The frame PersistStore writes for \p R.
std::string frameFor(const JobResult &R) {
  return frameOf(R.Fingerprint, resultToJsonLine(R));
}

/// Writes a log of the current versions that holds \p Frames.
void writeLog(const TempDir &D, const std::string &Frames) {
  fs::create_directories(D.Path);
  std::ofstream(logPath(D), std::ios::binary)
      << encodeHeader(CacheSchemaVersion, OptionsFormatVersion) << Frames;
}

/// Offset of the first payload byte of the log's first record, keyed by
/// \p FP.
uint64_t firstPayloadByte(const std::string &FP) {
  return PersistHeaderBytes + PersistRecordOverhead + PersistKeyLengthBytes +
         FP.size();
}

// --- Container primitives ------------------------------------------------

TEST(PersistLog, Crc32KnownVector) {
  // The standard CRC-32 check value ("123456789" -> 0xCBF43926).
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
}

TEST(PersistLog, Crc32MatchesABytewiseReference) {
  // The bit-at-a-time definition of the checksum.  The kernel folds
  // eight bytes per step, so every length around those steps and every
  // start alignment must agree with it.
  auto Reference = [](const unsigned char *P, size_t N) {
    uint32_t C = 0xFFFFFFFFu;
    for (size_t I = 0; I < N; ++I) {
      C ^= P[I];
      for (int K = 0; K < 8; ++K)
        C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : C >> 1;
    }
    return C ^ 0xFFFFFFFFu;
  };
  std::vector<unsigned char> Bytes(300 + 8);
  uint32_t X = 12345;
  for (unsigned char &B : Bytes) {
    X = X * 1103515245u + 12345u;
    B = static_cast<unsigned char>(X >> 24);
  }
  for (size_t Align = 0; Align < 8; ++Align)
    for (size_t Len = 0; Len <= 300; ++Len)
      ASSERT_EQ(crc32(Bytes.data() + Align, Len),
                Reference(Bytes.data() + Align, Len))
          << "length " << Len << ", alignment " << Align;
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
  std::string Bytes = frameOf("key", "hello");
  ASSERT_EQ(Bytes.size(), PersistRecordOverhead + PersistKeyLengthBytes + 8);
  EXPECT_EQ(Bytes.substr(0, 4), le32(PersistKeyLengthBytes + 8));
  EXPECT_EQ(Bytes.substr(PersistRecordOverhead), le32(3) + "keyhello");
  Frame F = decodeFrame(Bytes);
  ASSERT_EQ(F.Status, Frame::Kind::Ok);
  EXPECT_EQ(F.Size, Bytes.size());
  EXPECT_EQ(F.Key, "key");
  EXPECT_EQ(F.Payload, "hello");

  // Frames append behind what the buffer holds, and decode in turn.
  std::string Two = "ab";
  EXPECT_EQ(appendRecordFrame(Two, "k2", "v2"), frameOf("k2", "v2").size());
  Two.erase(0, 2);
  Two += Bytes;
  Frame First = decodeFrame(Two);
  ASSERT_EQ(First.Status, Frame::Kind::Ok);
  EXPECT_EQ(First.Key, "k2");
  Frame Second = decodeFrame(std::string_view(Two).substr(First.Size));
  ASSERT_EQ(Second.Status, Frame::Kind::Ok);
  EXPECT_EQ(Second.Payload, "hello");

  // The checksum covers the key as well as the payload.
  std::string BadKey = Bytes;
  BadKey[PersistRecordOverhead + PersistKeyLengthBytes] ^= 1;
  EXPECT_EQ(decodeFrame(BadKey).Status, Frame::Kind::Corrupt);
  // A key length past the body is corrupt under a matching checksum too.
  std::string Body = le32(6) + "hello";
  std::string LongKey = le32(uint32_t(Body.size())) +
                        le32(crc32(Body.data(), Body.size())) + Body;
  EXPECT_EQ(decodeFrame(LongKey).Status, Frame::Kind::Corrupt);
  EXPECT_EQ(decodeFrame(LongKey).Size, LongKey.size());
  // A body too short to hold a key length.
  std::string Short = le32(2) + le32(crc32("ab", 2)) + "ab";
  EXPECT_EQ(decodeFrame(Short).Status, Frame::Kind::Corrupt);
  // Fewer bytes than the frame claims.
  EXPECT_EQ(decodeFrame(std::string_view(Bytes).substr(0, Bytes.size() - 1))
                .Status,
            Frame::Kind::Incomplete);
}

// --- Payload round-trip --------------------------------------------------
//
// A record's payload is the result's wire line (service/Protocol.h).

TEST(PersistPayload, RoundTripsEveryField) {
  JobResult R = makeResult(makeFp(4), 42);
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
  JobResult R = makeResult(makeFp(1));
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
  std::string FP = makeFp(7);
  {
    PersistStore Store(D.str(), /*ByteBudget=*/0);
    std::string Error;
    ASSERT_TRUE(Store.open(&Error)) << Error;
    Store.append(makeResult(FP, 1));
    EXPECT_TRUE(Store.flush());
    EXPECT_EQ(filesIn(D), std::vector<std::string>{PersistLogFileName});
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
  EXPECT_EQ(Store.lookup(makeFp(7, 'b')), nullptr); // Different job.
  EXPECT_EQ(Store.stats().Hits, 1u);
  EXPECT_EQ(Store.stats().Misses, 1u);
}

TEST(PersistStore, NewestRecordPerFingerprintWins) {
  TempDir D("newest");
  std::string FP = makeFp(2);
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
  JobResult Timeout = makeResult(makeFp(1));
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
      Store.append(makeResult(makeFp(I), I));
    ASSERT_TRUE(Store.flush());
  }
  PersistStore Store(D.str(), 0);
  ASSERT_TRUE(Store.open(&Error)) << Error;
  ResultCache Cache(1 << 20);
  EXPECT_EQ(Store.replayInto(Cache), 4u);
  EXPECT_EQ(Store.stats().Replayed, 4u);
  EXPECT_EQ(Cache.stats().Entries, 4u);
  auto Hit = Cache.lookup(makeFp(2));
  ASSERT_NE(Hit, nullptr);
  EXPECT_EQ(Hit->Fingerprint, makeFp(2));
}

TEST(PersistStore, ReplaySkipsSupersededRecords) {
  TempDir D("superseded");
  std::string A = makeFp(1), B = makeFp(2);
  std::string Error;
  {
    PersistStore Store(D.str(), 0);
    ASSERT_TRUE(Store.open(&Error)) << Error;
    JobResult Older = makeResult(A, 1);
    Older.Status = JobStatus::AssertionsFailed;
    JobResult Newer = makeResult(A, 2);
    Newer.Status = JobStatus::Verified;
    Store.append(Older);
    Store.append(Newer);
    Store.append(makeResult(B, 3));
    ASSERT_TRUE(Store.flush());
  }
  PersistStore Store(D.str(), 0);
  ASSERT_TRUE(Store.open(&Error)) << Error;
  ResultCache Cache(1 << 20);
  EXPECT_EQ(Store.replayInto(Cache), 2u);
  EXPECT_EQ(Cache.stats().Entries, 2u);
  auto Hit = Cache.lookup(A);
  ASSERT_NE(Hit, nullptr);
  EXPECT_EQ(Hit->Status, JobStatus::Verified);
  EXPECT_NE(Cache.lookup(B), nullptr);
}

TEST(PersistStore, ReplayDoesNotDecodeASupersededRecord) {
  // The older record of A does not decode.  Had replay decoded it, it
  // would have counted it corrupt.
  TempDir D("undecoded");
  std::string A = makeFp(1), B = makeFp(2);
  writeLog(D, frameOf(A, "{not json") + frameFor(makeResult(A)) +
                  frameFor(makeResult(B)));
  PersistStore Store(D.str(), 0);
  std::string Error;
  ASSERT_TRUE(Store.open(&Error)) << Error;
  ResultCache Cache(1 << 20);
  EXPECT_EQ(Store.replayInto(Cache), 2u);
  EXPECT_EQ(Store.stats().Corrupt, 0u);
  EXPECT_EQ(Store.stats().LiveRecords, 2u);
  EXPECT_NE(Cache.lookup(A), nullptr);
}

TEST(PersistStore, AnUndecodablePayloadIsDroppedAtReplayNotAtOpen) {
  // The frame is whole and its checksum holds, so open(), which reads
  // keys and checksums only, indexes it.  Replay is the first to decode
  // it: it drops the record, counts it once and does not replay it.
  TempDir D("undecodable");
  std::string Bad = makeFp(3), Good = makeFp(4);
  writeLog(D, frameOf(Bad, "{not json") + frameFor(makeResult(Good)));
  PersistStore Store(D.str(), 0);
  std::string Error;
  ASSERT_TRUE(Store.open(&Error)) << Error;
  EXPECT_EQ(Store.stats().Corrupt, 0u);
  EXPECT_EQ(Store.stats().LiveRecords, 2u);
  ResultCache Cache(1 << 20);
  EXPECT_EQ(Store.replayInto(Cache), 1u);
  EXPECT_EQ(Store.stats().Replayed, 1u);
  EXPECT_EQ(Store.stats().Corrupt, 1u);
  EXPECT_EQ(Store.stats().LiveRecords, 1u);
  EXPECT_EQ(Cache.lookup(Bad), nullptr);
  EXPECT_NE(Cache.lookup(Good), nullptr);
  // The entry is gone, so a lookup is a plain miss.
  EXPECT_EQ(Store.lookup(Bad), nullptr);
  EXPECT_EQ(Store.stats().Corrupt, 1u);
}

// --- Version guards ------------------------------------------------------

TEST(PersistStore, StaleSchemaFileRejectedWholesale) {
  TempDir D("stale");
  std::string FP = makeFp(5);
  // A log written under the previous cache schema: every record in it
  // keyed by fingerprints the current code would compute differently.
  fs::create_directories(D.Path);
  std::ofstream(logPath(D), std::ios::binary)
      << encodeHeader(CacheSchemaVersion - 1, OptionsFormatVersion)
      << frameFor(makeResult(FP));
  PersistStore Store(D.str(), 0);
  std::string Error;
  ASSERT_TRUE(Store.open(&Error)) << Error;
  EXPECT_EQ(Store.stats().StaleFiles, 1u);
  EXPECT_EQ(Store.stats().Corrupt, 0u);
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

TEST(PersistStore, ContainerVersion2FileRejectedOnce) {
  // A store the previous container wrote: the same header at container
  // version 2, and frames without a key (length | crc32(payload) |
  // payload).  Read as version 3, its payload would start with a bogus
  // key length.
  TempDir D("container2");
  std::string FP = makeFp(5);
  std::string Header = encodeHeader(CacheSchemaVersion, OptionsFormatVersion);
  Header.replace(4, 4, le32(2));
  std::string Payload = resultToJsonLine(makeResult(FP));
  fs::create_directories(D.Path);
  std::ofstream(logPath(D), std::ios::binary)
      << Header << le32(uint32_t(Payload.size()))
      << le32(crc32(Payload.data(), Payload.size())) << Payload;
  std::string Error;
  {
    PersistStore Store(D.str(), 0);
    ASSERT_TRUE(Store.open(&Error)) << Error;
    EXPECT_EQ(Store.stats().StaleFiles, 1u);
    EXPECT_EQ(Store.stats().Corrupt, 0u);
    EXPECT_EQ(Store.stats().LiveRecords, 0u);
    EXPECT_EQ(Store.lookup(FP), nullptr);
    Store.append(makeResult(FP));
    ASSERT_TRUE(Store.flush());
  }
  // Once: the file was restamped, and what was appended after it
  // round-trips.
  PersistStore Reopened(D.str(), 0);
  ASSERT_TRUE(Reopened.open(&Error)) << Error;
  EXPECT_EQ(Reopened.stats().StaleFiles, 0u);
  EXPECT_EQ(Reopened.stats().Corrupt, 0u);
  auto Hit = Reopened.lookup(FP);
  ASSERT_NE(Hit, nullptr);
  EXPECT_EQ(Hit->Fingerprint, FP);
}

TEST(PersistStore, OlderShardedLayoutIsRemoved) {
  // The layout an older build wrote: sixteen shard files, named by the
  // leading hex digit of the fingerprints in them, each with a header
  // of the current versions.
  TempDir D("sharded");
  std::string FP = makeFp(5);
  fs::create_directories(D.Path);
  std::string Header = encodeHeader(CacheSchemaVersion, OptionsFormatVersion);
  for (char Digit : std::string("0123456789abcdef")) {
    std::ofstream Shard(D.Path / ("shard-" + std::string(1, Digit) + ".log"),
                        std::ios::binary);
    Shard << Header;
    if (Digit == FP[0])
      Shard << frameFor(makeResult(FP));
  }
  PersistStore Store(D.str(), 0);
  std::string Error;
  ASSERT_TRUE(Store.open(&Error)) << Error;
  EXPECT_EQ(Store.stats().StaleFiles, 16u);
  EXPECT_EQ(Store.stats().LiveRecords, 0u);
  EXPECT_EQ(Store.lookup(FP), nullptr);
  EXPECT_EQ(filesIn(D), std::vector<std::string>{PersistLogFileName});
  // The store starts empty, and appends round-trip.
  std::string Fresh = makeFp(6);
  Store.append(makeResult(Fresh));
  ASSERT_TRUE(Store.flush());
  PersistStore Reopened(D.str(), 0);
  ASSERT_TRUE(Reopened.open(&Error)) << Error;
  EXPECT_EQ(Reopened.stats().StaleFiles, 0u);
  EXPECT_NE(Reopened.lookup(Fresh), nullptr);
  EXPECT_EQ(Reopened.lookup(FP), nullptr);
}

// --- Corruption paths ----------------------------------------------------

TEST(PersistStore, TruncatedTailSkippedEarlierRecordsSurvive) {
  TempDir D("torn");
  std::string FP = makeFp(3);
  std::string Error;
  {
    PersistStore Store(D.str(), 0);
    ASSERT_TRUE(Store.open(&Error)) << Error;
    Store.append(makeResult(FP));
    ASSERT_TRUE(Store.flush());
  }
  // Simulate a crash mid-append: half a frame at the end of the log.
  {
    std::ofstream Tail(logPath(D), std::ios::app | std::ios::binary);
    std::string Torn = frameOf(makeFp(3, 'c'), "payload never finished");
    Tail.write(Torn.data(), static_cast<std::streamsize>(Torn.size() / 2));
  }
  std::string Later = makeFp(3, 'b');
  {
    PersistStore Store(D.str(), 0);
    ASSERT_TRUE(Store.open(&Error)) << Error;
    EXPECT_EQ(Store.stats().Corrupt, 1u);
    auto Hit = Store.lookup(FP); // The complete record still serves.
    ASSERT_NE(Hit, nullptr);
    EXPECT_EQ(Hit->Fingerprint, FP);
    // The process that opened after the crash keeps appending.
    Store.append(makeResult(Later));
    ASSERT_TRUE(Store.flush());
    EXPECT_NE(Store.lookup(Later), nullptr);
  }
  // open() cut the torn half-frame, so the record appended after it is
  // readable by the next process too.
  PersistStore Store(D.str(), 0);
  ASSERT_TRUE(Store.open(&Error)) << Error;
  EXPECT_EQ(Store.stats().Corrupt, 0u);
  EXPECT_EQ(Store.stats().LiveRecords, 2u);
  EXPECT_NE(Store.lookup(FP), nullptr);
  auto Hit = Store.lookup(Later);
  ASSERT_NE(Hit, nullptr);
  EXPECT_EQ(Hit->Fingerprint, Later);
}

TEST(PersistStore, BitFlippedPayloadIsACountedMiss) {
  TempDir D("bitflip");
  std::string FP = makeFp(6);
  std::string Error;
  {
    PersistStore Store(D.str(), 0);
    ASSERT_TRUE(Store.open(&Error)) << Error;
    Store.append(makeResult(FP));
    ASSERT_TRUE(Store.flush());
  }
  {
    std::fstream F(logPath(D),
                   std::ios::in | std::ios::out | std::ios::binary);
    // Flip a bit in the payload, past the frame words and the key.
    auto At = static_cast<std::streamoff>(firstPayloadByte(FP) + 10);
    F.seekg(At);
    char C;
    F.get(C);
    F.seekp(At);
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
  std::string FP = makeFp(9);
  std::string Error;
  {
    PersistStore Store(D.str(), 0);
    ASSERT_TRUE(Store.open(&Error)) << Error;
    Store.append(makeResult(FP));
    ASSERT_TRUE(Store.flush());
  }
  {
    std::fstream F(logPath(D),
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

TEST(PersistStore, AKeyThatDisagreesWithItsPayloadIsNeverServed) {
  // A frame keyed A whose checksummed payload is B's result.  open()
  // indexes it under A without decoding it; replay and lookup each
  // decode it, drop it and count it, and serve nothing for A or B.
  TempDir D("mismatch");
  std::string A = makeFp(1), B = makeFp(2);
  writeLog(D, frameOf(A, resultToJsonLine(makeResult(B))));
  std::string Error;
  {
    PersistStore Store(D.str(), 0);
    ASSERT_TRUE(Store.open(&Error)) << Error;
    EXPECT_EQ(Store.stats().Corrupt, 0u);
    EXPECT_EQ(Store.stats().LiveRecords, 1u);
    ResultCache Cache(1 << 20);
    EXPECT_EQ(Store.replayInto(Cache), 0u);
    EXPECT_EQ(Store.stats().Corrupt, 1u);
    EXPECT_EQ(Store.stats().LiveRecords, 0u);
    EXPECT_EQ(Cache.stats().Entries, 0u);
    EXPECT_EQ(Store.lookup(A), nullptr);
    EXPECT_EQ(Store.lookup(B), nullptr);
    EXPECT_EQ(Store.stats().Corrupt, 1u);
  }
  PersistStore Store(D.str(), 0);
  ASSERT_TRUE(Store.open(&Error)) << Error;
  EXPECT_EQ(Store.lookup(A), nullptr);
  EXPECT_EQ(Store.stats().Corrupt, 1u);
  EXPECT_EQ(Store.stats().LiveRecords, 0u);
  EXPECT_EQ(Store.lookup(B), nullptr);
  EXPECT_EQ(Store.stats().Corrupt, 1u);
}

TEST(PersistStore, LookupReverifiesAtReadTime) {
  // The file can rot *after* open() indexed it; lookup() must catch that
  // too, drop the entry and serve a miss instead of a wrong result.
  TempDir D("readtime");
  std::string FP = makeFp(11);
  std::string Error;
  PersistStore Store(D.str(), 0);
  ASSERT_TRUE(Store.open(&Error)) << Error;
  Store.append(makeResult(FP));
  ASSERT_TRUE(Store.flush());
  {
    std::fstream F(logPath(D),
                   std::ios::in | std::ios::out | std::ios::binary);
    F.seekp(static_cast<std::streamoff>(firstPayloadByte(FP) + 5));
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
  // ~370 bytes per record; a 4 KiB budget forces eviction well before 32
  // distinct fingerprints are in.
  uint64_t Budget = 4096 + PersistHeaderBytes;
  PersistStore Store(D.str(), Budget);
  ASSERT_TRUE(Store.open(&Error)) << Error;
  for (unsigned I = 0; I < 32; ++I)
    Store.append(makeResult(makeFp(I % 16, static_cast<char>('a' + I / 16)),
                            I));
  ASSERT_TRUE(Store.flush());
  PersistStats St = Store.stats();
  EXPECT_GE(St.Compactions, 1u);
  EXPECT_GE(St.Evictions, 1u);
  EXPECT_LE(St.LogBytes, Budget);
  EXPECT_LT(St.LiveRecords, 32u);
  EXPECT_GT(St.LiveRecords, 0u);
  EXPECT_EQ(St.LogBytes, fs::file_size(logPath(D)));
  EXPECT_EQ(filesIn(D), std::vector<std::string>{PersistLogFileName});
  // Eviction is oldest-first: the newest record must have survived.
  EXPECT_NE(Store.lookup(makeFp(15, 'b')), nullptr);

  // Compaction rewrote the file consistently: a reopen sees the same
  // live set and every survivor still decodes.
  PersistStore Reopened(D.str(), Budget);
  ASSERT_TRUE(Reopened.open(&Error)) << Error;
  EXPECT_EQ(Reopened.stats().LiveRecords, St.LiveRecords);
  EXPECT_EQ(Reopened.stats().Corrupt, 0u);
  EXPECT_NE(Reopened.lookup(makeFp(15, 'b')), nullptr);
}

TEST(PersistStore, CompactionLeavesHeadroomForLaterAppends) {
  // Equal-size records into a budget of 20 frames.  Each compaction
  // leaves the live records within half the budget, so at least Gap
  // appends land between two rewrites, where evicting only down to the
  // budget would rewrite the file on nearly every append.
  TempDir D("headroom");
  const uint64_t N = 200;
  uint64_t Frame = frameFor(makeResult(makeFp(0))).size();
  uint64_t Budget = PersistHeaderBytes + 20 * Frame;
  uint64_t Gap = (Budget - PersistHeaderBytes) / Frame + 1 -
                 (Budget / 2 - PersistHeaderBytes) / Frame;
  PersistStore Store(D.str(), Budget);
  std::string Error;
  ASSERT_TRUE(Store.open(&Error)) << Error;
  for (uint64_t I = 0; I < N; ++I)
    Store.append(makeResult(makeFp(I % 16, static_cast<char>('a' + I / 16))));
  ASSERT_TRUE(Store.flush());
  PersistStats St = Store.stats();
  EXPECT_GE(St.Compactions, 1u);
  EXPECT_LE(St.Compactions, N / Gap + 1);
  EXPECT_EQ(St.Evictions + St.LiveRecords, N);
  EXPECT_LE(St.LogBytes, Budget);
  EXPECT_NE(Store.lookup(makeFp((N - 1) % 16, char('a' + (N - 1) / 16))),
            nullptr);
}

TEST(PersistStore, CompactionKeepsANewestRecordLargerThanHalfTheBudget) {
  TempDir D("large");
  JobResult Large = makeResult(makeFp(15, 'z'));
  uint64_t Small = frameFor(makeResult(makeFp(0))).size();
  Large.Error = std::string(4 * Small, 'x');
  uint64_t LargeFrame = frameFor(Large).size();
  // The large record alone fills more than half the budget, and fits it.
  uint64_t Budget = PersistHeaderBytes + LargeFrame + 2 * Small;
  ASSERT_GT(PersistHeaderBytes + LargeFrame, Budget / 2);
  PersistStore Store(D.str(), Budget);
  std::string Error;
  ASSERT_TRUE(Store.open(&Error)) << Error;
  for (unsigned I = 0; I < 3; ++I)
    Store.append(makeResult(makeFp(I)));
  Store.append(Large);
  EXPECT_EQ(Store.stats().Compactions, 1u);
  EXPECT_EQ(Store.stats().Evictions, 3u);
  EXPECT_EQ(Store.stats().LiveRecords, 1u);
  EXPECT_EQ(Store.stats().LogBytes, PersistHeaderBytes + LargeFrame);
  EXPECT_NE(Store.lookup(Large.Fingerprint), nullptr);
  // Once newer records overflow the budget, it is the oldest and goes
  // first.
  for (unsigned I = 3; I < 6; ++I)
    Store.append(makeResult(makeFp(I)));
  EXPECT_EQ(Store.stats().Compactions, 2u);
  EXPECT_EQ(Store.lookup(Large.Fingerprint), nullptr);
  EXPECT_NE(Store.lookup(makeFp(5)), nullptr);
  // A newest record larger than the whole budget is not kept either.
  JobResult Huge = makeResult(makeFp(14, 'z'));
  Huge.Error = std::string(Budget, 'x');
  Store.append(Huge);
  EXPECT_EQ(Store.stats().Compactions, 3u);
  EXPECT_EQ(Store.stats().LiveRecords, 0u);
  EXPECT_EQ(Store.stats().LogBytes, PersistHeaderBytes);
  EXPECT_EQ(fs::file_size(logPath(D)), PersistHeaderBytes);
}

TEST(PersistStore, CompactionDropsARecordThatRottedOnDisk) {
  TempDir D("rot");
  std::string Rotted = makeFp(1), Kept = makeFp(2);
  // Both live records fit half the budget, so compaction evicts nothing.
  uint64_t Budget =
      2 * (PersistHeaderBytes + 2 * frameFor(makeResult(Kept)).size());
  std::string Error;
  PersistStore Store(D.str(), Budget);
  ASSERT_TRUE(Store.open(&Error)) << Error;
  Store.append(makeResult(Rotted));
  Store.append(makeResult(Kept));
  ASSERT_TRUE(Store.flush());
  // After the record was written and indexed, one byte of its first
  // label rots on disk: "assert@10" now reads "assert@17".
  size_t Label = readLog(D).find("assert@10");
  ASSERT_NE(Label, std::string::npos);
  overwrite(D, Label + 8, "7");
  // Re-appending one fingerprint grows the log with dead records until
  // it compacts.
  for (unsigned I = 0; I < 64 && Store.stats().Compactions == 0; ++I)
    Store.append(makeResult(Kept));
  ASSERT_EQ(Store.stats().Compactions, 1u);
  EXPECT_EQ(Store.stats().Evictions, 0u);
  // Compaction checked the record and dropped it, instead of copying it
  // under a fresh checksum that would have served the rotted label.
  EXPECT_EQ(Store.stats().Corrupt, 1u);
  EXPECT_EQ(Store.stats().LiveRecords, 1u);
  EXPECT_EQ(Store.lookup(Rotted), nullptr);
  EXPECT_NE(Store.lookup(Kept), nullptr);

  PersistStore Reopened(D.str(), Budget);
  ASSERT_TRUE(Reopened.open(&Error)) << Error;
  EXPECT_EQ(Reopened.stats().Corrupt, 0u);
  EXPECT_EQ(Reopened.lookup(Rotted), nullptr);
  EXPECT_NE(Reopened.lookup(Kept), nullptr);
}

TEST(PersistStore, EvictionAndReplayAreOldestFirstAcrossAReopen) {
  // X is appended first and Y second; their fingerprints sort the other
  // way, so only the place in the file says which is older.  X is the
  // larger record, so that evicting it alone brings the log within half
  // the budget below.
  TempDir D("age");
  std::string X = makeFp(15), Y = makeFp(0), Z = makeFp(7);
  JobResult RX = makeResult(X);
  RX.Error = std::string(1024, 'x');
  std::string Error;
  {
    PersistStore Store(D.str(), 0);
    ASSERT_TRUE(Store.open(&Error)) << Error;
    Store.append(RX);
    Store.append(makeResult(Y));
    ASSERT_TRUE(Store.flush());
  }
  {
    // Replay ends on the newest record: a cache with room for either
    // record but not both keeps Y.
    JobResult ServedX = *resultFromJsonLine(resultToJsonLine(RX));
    JobResult ServedY = *resultFromJsonLine(resultToJsonLine(makeResult(Y)));
    ResultCache Cache(ResultCache::costOf(X, ServedX) +
                      ResultCache::costOf(Y, ServedY) / 2);
    PersistStore Store(D.str(), 0);
    ASSERT_TRUE(Store.open(&Error)) << Error;
    EXPECT_EQ(Store.replayInto(Cache), 2u);
    EXPECT_EQ(Cache.stats().Entries, 1u);
    EXPECT_NE(Cache.lookup(Y), nullptr);
    EXPECT_EQ(Cache.lookup(X), nullptr);
  }
  // A third append overflows the budget.  Evicting the oldest, X, leaves
  // Y and Z within half of it; evicting Y first would not.
  uint64_t Frame = frameFor(makeResult(Y)).size();
  uint64_t Budget = 2 * (PersistHeaderBytes + 2 * Frame);
  ASSERT_GT(PersistHeaderBytes + frameFor(RX).size() + 2 * Frame, Budget);
  PersistStore Store(D.str(), Budget);
  ASSERT_TRUE(Store.open(&Error)) << Error;
  Store.append(makeResult(Z));
  EXPECT_EQ(Store.stats().Compactions, 1u);
  EXPECT_EQ(Store.stats().Evictions, 1u);
  EXPECT_EQ(Store.lookup(X), nullptr);
  EXPECT_NE(Store.lookup(Y), nullptr);
  EXPECT_NE(Store.lookup(Z), nullptr);
}

} // namespace
