//===- persist/PersistStore.cpp - Disk tier under the ResultCache ---------===//

#include "persist/PersistStore.h"

#include "service/Fingerprint.h"
#include "service/Protocol.h"
#include "service/ResultCache.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace cai {
namespace persist {

using service::JobResult;

namespace {

bool preadAll(int Fd, char *Data, size_t Size, uint64_t Offset) {
  while (Size) {
    ssize_t N = ::pread(Fd, Data, Size, off_t(Offset));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    if (N == 0)
      return false; // Short file: truncated since indexing.
    Data += N;
    Size -= size_t(N);
    Offset += uint64_t(N);
  }
  return true;
}

bool writeAllFd(int Fd, const char *Data, size_t Size) {
  while (Size) {
    ssize_t N = ::write(Fd, Data, Size);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Data += N;
    Size -= size_t(N);
  }
  return true;
}

} // namespace

PersistStore::PersistStore(std::string Dir, uint64_t ByteBudget,
                           unsigned FlushEvery)
    : Dir(Dir), Budget(ByteBudget),
      FlushEvery(FlushEvery == 0 ? 1 : FlushEvery),
      Log(std::move(Dir), service::CacheSchemaVersion,
          service::OptionsFormatVersion) {
  S.ByteBudget = ByteBudget;
}

PersistStore::~PersistStore() {
  std::string Err;
  std::lock_guard<std::mutex> L(Mu);
  if (Opened)
    flushLocked(&Err);
}

bool PersistStore::open(std::string *Error) {
  std::lock_guard<std::mutex> L(Mu);
  Index.clear();
  NextSeq = 0;

  // Pass 1: reject stale-format files *before* the log opens them for
  // appending -- appending current-schema records to a file whose header
  // declares another schema would poison later loads.  A rejected file
  // is truncated to empty (the log then stamps a fresh header).
  if (::mkdir(Dir.c_str(), 0755) != 0 && errno != EEXIST) {
    if (Error)
      *Error = "cannot create " + Dir + ": " + std::strerror(errno);
    return false;
  }
  for (unsigned Sh = 0; Sh < PersistNumShards; ++Sh) {
    std::string Path = Dir + "/" + shardFileName(Sh);
    int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
    if (Fd < 0)
      continue; // Not created yet.
    char Buf[PersistHeaderBytes];
    ssize_t N = ::pread(Fd, Buf, sizeof(Buf), 0);
    ::close(Fd);
    if (N <= 0)
      continue; // Empty file: the log stamps a header.
    std::string Header(Buf, size_t(std::max<ssize_t>(N, 0)));
    if (!checkHeader(Header, service::CacheSchemaVersion,
                     service::OptionsFormatVersion)) {
      ++S.StaleFiles;
      ::truncate(Path.c_str(), 0);
    }
  }

  if (!Log.open(Error))
    return false;

  // Pass 2: verify and index every record.
  for (unsigned Sh = 0; Sh < PersistNumShards; ++Sh)
    if (!loadShard(Sh, Error))
      return false;

  Opened = true;
  S.LiveRecords = Index.size();
  S.LogBytes = Log.totalBytes();
  return true;
}

bool PersistStore::loadShard(unsigned Sh, std::string *Error) {
  int Fd = Log.fd(Sh);
  struct stat St;
  if (::fstat(Fd, &St) != 0) {
    if (Error)
      *Error = "cannot stat " + shardFileName(Sh) + ": " +
               std::strerror(errno);
    return false;
  }
  uint64_t Size = uint64_t(St.st_size);
  if (Size <= PersistHeaderBytes)
    return true;
  std::string Data(size_t(Size - PersistHeaderBytes), '\0');
  if (!preadAll(Fd, &Data[0], Data.size(), PersistHeaderBytes)) {
    if (Error)
      *Error = "cannot read " + shardFileName(Sh) + ": " +
               std::strerror(errno);
    return false;
  }

  size_t Pos = 0;
  while (Pos < Data.size()) {
    if (Data.size() - Pos < PersistRecordOverhead) {
      ++S.Corrupt; // Torn tail: frame words themselves are incomplete.
      break;
    }
    uint32_t Len = 0, Crc = 0;
    std::memcpy(&Len, Data.data() + Pos, 4);
    std::memcpy(&Crc, Data.data() + Pos + 4, 4);
    if (Len > PersistMaxRecordBytes ||
        Data.size() - Pos - PersistRecordOverhead < Len) {
      // Implausible length or fewer bytes than promised: cannot resync
      // past this point, drop the rest of the shard's tail.
      ++S.Corrupt;
      break;
    }
    const char *Payload = Data.data() + Pos + PersistRecordOverhead;
    uint64_t FrameOffset = PersistHeaderBytes + Pos;
    Pos += PersistRecordOverhead + Len;
    if (crc32(Payload, Len) != Crc) {
      ++S.Corrupt; // Checksum mismatch with a plausible frame: skip one.
      continue;
    }
    std::optional<JobResult> R =
        service::resultFromJsonLine(std::string(Payload, Len));
    if (!R || shardOfFingerprint(R->Fingerprint) != Sh) {
      ++S.Corrupt;
      continue;
    }
    // Newest record per fingerprint wins (append-only updates).
    IndexEntry &E = Index[R->Fingerprint];
    E.Shard = Sh;
    E.Offset = FrameOffset;
    E.PayloadLen = Len;
    E.Seq = NextSeq++;
  }
  return true;
}

std::shared_ptr<const JobResult> PersistStore::readEntryLocked(
    const std::string &Fingerprint, const IndexEntry &E) {
  // The indexed frame may still sit in the write buffer; make it
  // readable first.
  if (Log.hasPending()) {
    std::string Err;
    if (!flushLocked(&Err))
      return nullptr;
  }
  std::string Frame(PersistRecordOverhead + E.PayloadLen, '\0');
  if (!preadAll(Log.fd(E.Shard), &Frame[0], Frame.size(), E.Offset)) {
    ++S.Corrupt;
    Index.erase(Fingerprint);
    return nullptr;
  }
  uint32_t Len = 0, Crc = 0;
  std::memcpy(&Len, Frame.data(), 4);
  std::memcpy(&Crc, Frame.data() + 4, 4);
  std::string Payload = Frame.substr(PersistRecordOverhead);
  std::optional<JobResult> R;
  if (Len == E.PayloadLen && crc32(Payload.data(), Payload.size()) == Crc)
    R = service::resultFromJsonLine(Payload);
  if (!R || R->Fingerprint != Fingerprint) {
    ++S.Corrupt;
    Index.erase(Fingerprint);
    return nullptr;
  }
  return std::make_shared<const JobResult>(std::move(*R));
}

std::shared_ptr<const JobResult> PersistStore::lookup(
    const std::string &Fingerprint) {
  std::lock_guard<std::mutex> L(Mu);
  if (!Opened) {
    ++S.Misses;
    return nullptr;
  }
  auto It = Index.find(Fingerprint);
  if (It == Index.end()) {
    ++S.Misses;
    return nullptr;
  }
  IndexEntry E = It->second;
  std::shared_ptr<const JobResult> R = readEntryLocked(Fingerprint, E);
  if (!R) {
    ++S.Misses;
    S.LiveRecords = Index.size();
    return nullptr;
  }
  ++S.Hits;
  return R;
}

void PersistStore::append(const JobResult &R) {
  std::lock_guard<std::mutex> L(Mu);
  if (!Opened || R.Fingerprint.empty() || !service::jobCacheable(R.Status))
    return;
  std::string Payload = service::resultToJsonLine(R);
  unsigned Sh = shardOfFingerprint(R.Fingerprint);
  uint64_t Offset = Log.append(Sh, Payload);
  IndexEntry &E = Index[R.Fingerprint];
  E.Shard = Sh;
  E.Offset = Offset;
  E.PayloadLen = uint32_t(Payload.size());
  E.Seq = NextSeq++;
  ++S.Appends;
  S.LiveRecords = Index.size();
  S.LogBytes = Log.totalBytes();
  if (++AppendsSinceFlush >= FlushEvery) {
    std::string Err;
    flushLocked(&Err);
  }
  if (Budget && Log.totalBytes() > Budget)
    compactLocked();
}

bool PersistStore::flush(std::string *Error) {
  std::lock_guard<std::mutex> L(Mu);
  if (!Opened)
    return true;
  return flushLocked(Error);
}

bool PersistStore::flushLocked(std::string *Error) {
  if (!Log.flush(Error))
    return false;
  AppendsSinceFlush = 0;
  S.Flushes = Log.flushCount();
  return true;
}

uint64_t PersistStore::replayInto(service::ResultCache &Cache) {
  std::lock_guard<std::mutex> L(Mu);
  if (!Opened)
    return 0;
  // Oldest-first so the newest records land most-recently-used in the
  // LRU (and survive longest if the memory budget is tighter than disk).
  std::vector<std::pair<uint64_t, std::string>> Order;
  Order.reserve(Index.size());
  for (const auto &[FP, E] : Index)
    Order.emplace_back(E.Seq, FP);
  std::sort(Order.begin(), Order.end());
  uint64_t N = 0;
  for (const auto &[Seq, FP] : Order) {
    auto It = Index.find(FP);
    if (It == Index.end())
      continue; // Dropped by a corrupt read earlier in the loop.
    std::shared_ptr<const JobResult> R = readEntryLocked(FP, It->second);
    if (!R)
      continue;
    Cache.insert(FP, std::move(R));
    ++N;
  }
  S.Replayed += N;
  S.LiveRecords = Index.size();
  return N;
}

void PersistStore::compactLocked() {
  std::string Err;
  if (!flushLocked(&Err))
    return;

  // Live records in append order; evict oldest until the rewritten log
  // would fit the budget.
  std::vector<std::pair<uint64_t, std::string>> Order;
  Order.reserve(Index.size());
  for (const auto &[FP, E] : Index)
    Order.emplace_back(E.Seq, FP);
  std::sort(Order.begin(), Order.end());

  uint64_t Projected = PersistNumShards * PersistHeaderBytes;
  for (const auto &[Seq, FP] : Order)
    Projected += PersistRecordOverhead + Index[FP].PayloadLen;
  size_t Drop = 0;
  while (Budget && Projected > Budget && Drop < Order.size()) {
    Projected -=
        PersistRecordOverhead + Index[Order[Drop].second].PayloadLen;
    ++Drop;
  }

  // Fetch surviving payloads before the files are replaced.
  struct Live {
    std::string FP;
    std::string Payload;
  };
  std::vector<std::vector<Live>> PerShard(PersistNumShards);
  for (size_t I = Drop; I < Order.size(); ++I) {
    const std::string &FP = Order[I].second;
    auto It = Index.find(FP);
    if (It == Index.end())
      continue;
    const IndexEntry &E = It->second;
    std::string Frame(PersistRecordOverhead + E.PayloadLen, '\0');
    if (!preadAll(Log.fd(E.Shard), &Frame[0], Frame.size(), E.Offset)) {
      ++S.Corrupt;
      continue;
    }
    PerShard[E.Shard].push_back(
        {FP, Frame.substr(PersistRecordOverhead)});
  }

  // Rewrite each shard: header + surviving frames to a .tmp, fsync,
  // rename over the old file.  A crash mid-compaction leaves either the
  // old file or the complete new one -- never a half-written rename.
  std::string Header =
      encodeHeader(service::CacheSchemaVersion, service::OptionsFormatVersion);
  std::vector<std::vector<std::pair<std::string, IndexEntry>>> NewEntries(
      PersistNumShards);
  bool WroteAll = true;
  for (unsigned Sh = 0; Sh < PersistNumShards; ++Sh) {
    std::string Tmp = Dir + "/" + shardFileName(Sh) + ".tmp";
    int Fd = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                    0644);
    if (Fd < 0) {
      WroteAll = false;
      break;
    }
    bool Ok = writeAllFd(Fd, Header.data(), Header.size());
    uint64_t Offset = Header.size();
    for (const Live &L : PerShard[Sh]) {
      if (!Ok)
        break;
      std::string Frame = encodeRecordFrame(L.Payload);
      Ok = writeAllFd(Fd, Frame.data(), Frame.size());
      IndexEntry E;
      E.Shard = Sh;
      E.Offset = Offset;
      E.PayloadLen = uint32_t(L.Payload.size());
      NewEntries[Sh].emplace_back(L.FP, E);
      Offset += Frame.size();
    }
    Ok = Ok && ::fsync(Fd) == 0;
    ::close(Fd);
    if (!Ok) {
      ::unlink(Tmp.c_str());
      WroteAll = false;
      break;
    }
  }
  if (!WroteAll)
    return; // Keep the old (oversized but valid) files.

  Log.closeFiles();
  for (unsigned Sh = 0; Sh < PersistNumShards; ++Sh) {
    std::string Tmp = Dir + "/" + shardFileName(Sh) + ".tmp";
    std::string Path = Dir + "/" + shardFileName(Sh);
    ::rename(Tmp.c_str(), Path.c_str());
  }

  S.Evictions += Drop;
  ++S.Compactions;
  uint64_t Seq = 0;
  Index.clear();
  std::string ReopenErr;
  if (!Log.open(&ReopenErr)) {
    Opened = false; // Disk tier degraded; memory tier keeps serving.
    S.LiveRecords = 0;
    S.LogBytes = 0;
    return;
  }
  for (unsigned Sh = 0; Sh < PersistNumShards; ++Sh)
    for (auto &[FP, E] : NewEntries[Sh]) {
      E.Seq = Seq++;
      Index[FP] = E;
    }
  NextSeq = Seq;
  S.LiveRecords = Index.size();
  S.LogBytes = Log.totalBytes();
}

PersistStats PersistStore::stats() const {
  std::lock_guard<std::mutex> L(Mu);
  return S;
}

} // namespace persist
} // namespace cai
