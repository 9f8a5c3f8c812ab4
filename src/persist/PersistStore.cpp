//===- persist/PersistStore.cpp - Disk tier under the ResultCache ---------===//

#include "persist/PersistStore.h"

#include "persist/PersistLog.h"
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

/// Appends batched into one write and one fsync.
constexpr unsigned AppendsPerFlush = 32;

/// Bytes open() reads, and compaction writes, per system call.
constexpr size_t IoChunkBytes = 64 << 10;

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

bool writeAll(int Fd, const std::string &Data) {
  const char *P = Data.data();
  size_t Size = Data.size();
  while (Size) {
    ssize_t N = ::write(Fd, P, Size);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    P += N;
    Size -= size_t(N);
  }
  return true;
}

} // namespace

PersistStore::PersistStore(std::string Dir, uint64_t ByteBudget)
    : Dir(Dir), Path(Dir + "/" + PersistLogFileName), Budget(ByteBudget) {
  S.ByteBudget = ByteBudget;
}

PersistStore::~PersistStore() {
  std::lock_guard<std::mutex> L(Mu);
  flushLocked(nullptr);
  closeLocked();
}

void PersistStore::closeLocked() {
  if (Fd >= 0)
    ::close(Fd);
  Fd = -1;
}

bool PersistStore::open(std::string *Error) {
  std::lock_guard<std::mutex> L(Mu);
  closeLocked();
  Index.clear();
  Pending.clear();
  PendingFrames = 0;
  auto Fail = [&](const std::string &What) {
    if (Error)
      *Error = What + ": " + std::strerror(errno);
    closeLocked();
    return false;
  };

  if (::mkdir(Dir.c_str(), 0755) != 0 && errno != EEXIST)
    return Fail("cannot create " + Dir);
  // The sixteen shard files of the older layout are not migrated: their
  // results are recomputed once, and no file outside the log outlives
  // the upgrade.
  for (char Digit : std::string("0123456789abcdef"))
    if (::unlink((Dir + "/shard-" + Digit + ".log").c_str()) == 0)
      ++S.StaleFiles;
  ::unlink((Path + ".tmp").c_str()); // Left by an interrupted compaction.

  Fd = ::open(Path.c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (Fd < 0)
    return Fail("cannot open " + Path);
  struct stat St;
  if (::fstat(Fd, &St) != 0)
    return Fail("cannot stat " + Path);
  uint64_t Size = uint64_t(St.st_size);

  // A file written under another schema is emptied and restamped before
  // anything is appended to it.
  bool Fresh = Size == 0;
  if (!Fresh) {
    std::string Header(size_t(std::min<uint64_t>(Size, PersistHeaderBytes)),
                       '\0');
    if (!preadAll(Fd, &Header[0], Header.size(), 0))
      return Fail("cannot read " + Path);
    if (!checkHeader(Header, service::CacheSchemaVersion,
                     service::OptionsFormatVersion)) {
      ++S.StaleFiles;
      Fresh = true;
    }
  }
  if (Fresh) {
    if (::ftruncate(Fd, 0) != 0 ||
        !writeAll(Fd, encodeHeader(service::CacheSchemaVersion,
                                   service::OptionsFormatVersion)))
      return Fail("cannot write the header of " + Path);
    Size = PersistHeaderBytes;
  }

  // Index every verified record (the newest per fingerprint wins),
  // reading through a buffer that never holds more than one chunk plus
  // one frame.  Read is the file offset just past Buf, At the next frame
  // in it.
  std::string Buf;
  size_t At = 0;
  uint64_t Read = PersistHeaderBytes;
  while (true) {
    Frame F = decodeFrame(std::string_view(Buf).substr(At));
    if (F.Status == Frame::Kind::Incomplete && Read < Size) {
      Buf.erase(0, At);
      At = 0;
      size_t N = size_t(std::min<uint64_t>(IoChunkBytes, Size - Read));
      size_t Old = Buf.size();
      Buf.resize(Old + N);
      if (!preadAll(Fd, &Buf[Old], N, Read))
        return Fail("cannot read " + Path);
      Read += N;
      continue;
    }
    if (F.Status == Frame::Kind::Incomplete ||
        F.Status == Frame::Kind::BadLength)
      break;
    std::optional<JobResult> R;
    if (F.Status == Frame::Kind::Ok)
      R = service::resultFromJsonLine(std::string(F.Payload));
    if (R)
      Index[R->Fingerprint] = {Read - (Buf.size() - At),
                               uint32_t(F.Payload.size())};
    else
      ++S.Corrupt; // Checksum or decode failure: skip this one frame.
    At += F.Size;
  }
  // A torn tail (or a length no frame can have) ends the readable log.
  // Cut it off, so that the next append lands where a later open() can
  // read it.
  FileBytes = Read - (Buf.size() - At);
  if (FileBytes < Size) {
    ++S.Corrupt;
    if (::ftruncate(Fd, off_t(FileBytes)) != 0)
      return Fail("cannot cut the torn tail of " + Path);
  }

  S.LiveRecords = Index.size();
  S.LogBytes = FileBytes;
  return true;
}

bool PersistStore::readFrameLocked(const IndexEntry &E, std::string &Bytes) {
  Bytes.assign(PersistRecordOverhead + E.PayloadLen, '\0');
  if (!preadAll(Fd, &Bytes[0], Bytes.size(), E.Offset))
    return false;
  Frame F = decodeFrame(Bytes);
  return F.Status == Frame::Kind::Ok && F.Size == Bytes.size();
}

std::shared_ptr<const JobResult> PersistStore::readEntryLocked(
    const std::string &Fingerprint, const IndexEntry &E) {
  // A frame still in the write buffer must reach the file first.
  if (E.Offset >= FileBytes - Pending.size() && !flushLocked(nullptr))
    return nullptr;
  std::string Bytes;
  std::optional<JobResult> R;
  if (readFrameLocked(E, Bytes))
    R = service::resultFromJsonLine(Bytes.substr(PersistRecordOverhead));
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
  if (Fd < 0) {
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
  if (Fd < 0 || R.Fingerprint.empty() || !service::jobCacheable(R.Status))
    return;
  std::string Bytes = encodeRecordFrame(service::resultToJsonLine(R));
  Index[R.Fingerprint] = {FileBytes,
                          uint32_t(Bytes.size() - PersistRecordOverhead)};
  Pending += Bytes;
  FileBytes += Bytes.size();
  ++S.Appends;
  S.LiveRecords = Index.size();
  S.LogBytes = FileBytes;
  if (++PendingFrames >= AppendsPerFlush)
    flushLocked(nullptr);
  if (Fd >= 0 && Budget && FileBytes > Budget)
    compactLocked();
}

bool PersistStore::flush(std::string *Error) {
  std::lock_guard<std::mutex> L(Mu);
  return flushLocked(Error);
}

bool PersistStore::flushLocked(std::string *Error) {
  if (Pending.empty())
    return true;
  if (!writeAll(Fd, Pending) || ::fsync(Fd) != 0) {
    if (Error)
      *Error = "cannot write " + Path + ": " + std::strerror(errno);
    // The file may now end in part of the batch, so the index no longer
    // describes it.  The memory tier serves alone until the next open(),
    // which cuts the file back to its last whole frame.
    closeLocked();
    Index.clear();
    Pending.clear();
    S.LiveRecords = 0;
    return false;
  }
  Pending.clear();
  PendingFrames = 0;
  ++S.Flushes;
  return true;
}

std::vector<std::pair<std::string, PersistStore::IndexEntry>>
PersistStore::byAgeLocked() const {
  std::vector<std::pair<std::string, IndexEntry>> Live(Index.begin(),
                                                       Index.end());
  std::sort(Live.begin(), Live.end(), [](const auto &A, const auto &B) {
    return A.second.Offset < B.second.Offset;
  });
  return Live;
}

uint64_t PersistStore::replayInto(service::ResultCache &Cache) {
  std::lock_guard<std::mutex> L(Mu);
  if (Fd < 0)
    return 0;
  // Oldest-first so the newest records land most-recently-used in the
  // LRU (and survive longest if the memory budget is tighter than disk).
  uint64_t N = 0;
  for (const auto &[FP, E] : byAgeLocked()) {
    std::shared_ptr<const JobResult> R = readEntryLocked(FP, E);
    if (Fd < 0)
      break; // A flush failed and took the disk tier out of service.
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
  if (!flushLocked(nullptr))
    return;
  // Evict oldest until the rewritten log would fit the budget.
  std::vector<std::pair<std::string, IndexEntry>> Live = byAgeLocked();
  uint64_t Projected = PersistHeaderBytes;
  for (const auto &[FP, E] : Live)
    Projected += PersistRecordOverhead + E.PayloadLen;
  size_t Drop = 0;
  while (Projected > Budget && Drop < Live.size())
    Projected -= PersistRecordOverhead + Live[Drop++].second.PayloadLen;

  // Copy the survivors, each verified again, behind a fresh header into
  // a .tmp file, fsync it and rename it over the log: a crash leaves
  // either the old file or the whole new one.  A record that rotted
  // since it was indexed is dropped, never rewritten under a fresh CRC.
  std::string Tmp = Path + ".tmp";
  int TmpFd = ::open(Tmp.c_str(),
                     O_RDWR | O_CREAT | O_TRUNC | O_APPEND | O_CLOEXEC, 0644);
  if (TmpFd < 0)
    return;
  std::unordered_map<std::string, IndexEntry> Kept;
  std::string Out =
      encodeHeader(service::CacheSchemaVersion, service::OptionsFormatVersion);
  uint64_t Written = 0, Rotted = 0;
  bool Ok = true;
  std::string Bytes;
  for (size_t I = Drop; I < Live.size() && Ok; ++I) {
    const auto &[FP, E] = Live[I];
    if (!readFrameLocked(E, Bytes)) {
      ++Rotted;
      continue;
    }
    Kept[FP] = {Written + Out.size(), E.PayloadLen};
    Out += Bytes;
    if (Out.size() >= IoChunkBytes) {
      Ok = writeAll(TmpFd, Out);
      Written += Out.size();
      Out.clear();
    }
  }
  Ok = Ok && writeAll(TmpFd, Out) && ::fsync(TmpFd) == 0 &&
       ::rename(Tmp.c_str(), Path.c_str()) == 0;
  if (!Ok) {
    ::close(TmpFd);
    ::unlink(Tmp.c_str());
    return; // Keep the old (oversized but valid) file and its index.
  }
  closeLocked();
  Fd = TmpFd;
  FileBytes = Written + Out.size();
  Index = std::move(Kept);
  S.Corrupt += Rotted;
  S.Evictions += Drop;
  ++S.Compactions;
  S.LiveRecords = Index.size();
  S.LogBytes = FileBytes;
}

PersistStats PersistStore::stats() const {
  std::lock_guard<std::mutex> L(Mu);
  return S;
}

} // namespace persist
} // namespace cai
