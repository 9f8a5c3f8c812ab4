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

/// Walks the whole frames of the log from the header to \p End, oldest
/// first, through a buffer that never holds more than one chunk plus one
/// frame, calling Visit(Offset, Frame, FrameBytes) for each (Ok or
/// Corrupt).  Returns the offset just past the last whole frame -- a torn
/// tail, or a length no frame can have, ends the walk early -- or nullopt
/// on a read error.
template <typename VisitFn>
std::optional<uint64_t> walkFrames(int Fd, uint64_t End, VisitFn &&Visit) {
  // Read is the file offset just past Buf, At the next frame in it.
  std::string Buf;
  size_t At = 0;
  uint64_t Read = PersistHeaderBytes;
  while (true) {
    std::string_view Rest = std::string_view(Buf).substr(At);
    Frame F = decodeFrame(Rest);
    if (F.Status == Frame::Kind::Incomplete && Read < End) {
      Buf.erase(0, At);
      At = 0;
      size_t N = size_t(std::min<uint64_t>(IoChunkBytes, End - Read));
      size_t Old = Buf.size();
      Buf.resize(Old + N);
      if (!preadAll(Fd, &Buf[Old], N, Read))
        return std::nullopt;
      Read += N;
      continue;
    }
    if (F.Status == Frame::Kind::Incomplete ||
        F.Status == Frame::Kind::BadLength)
      break;
    Visit(Read - (Buf.size() - At), F, Rest.substr(0, F.Size));
    At += F.Size;
  }
  return Read - (Buf.size() - At);
}

/// The result in a verified frame, if its payload decodes to the
/// fingerprint the frame is keyed by.
std::optional<JobResult> decodeRecord(const Frame &F) {
  std::optional<JobResult> R = service::resultFromJsonLine(F.Payload);
  if (R && R->Fingerprint != F.Key)
    R.reset();
  return R;
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

  // Index every verified record by its key (the newest per fingerprint
  // wins); no payload is decoded until it is replayed or looked up.
  std::optional<uint64_t> Stop =
      walkFrames(Fd, Size, [&](uint64_t At, const Frame &F, std::string_view) {
    if (F.Status != Frame::Kind::Ok) {
      ++S.Corrupt; // A frame that fails its check: skip this one.
      return;
    }
    IndexEntry E{At, uint32_t(F.Size)};
    if (auto It = Index.find(F.Key); It != Index.end())
      It->second = E;
    else
      Index.emplace(F.Key, E);
  });
  if (!Stop)
    return Fail("cannot read " + Path);
  // A torn tail (or a length no frame can have) ends the readable log.
  // Cut it off, so that the next append lands where a later open() can
  // read it.
  FileBytes = *Stop;
  if (FileBytes < Size) {
    ++S.Corrupt;
    if (::ftruncate(Fd, off_t(FileBytes)) != 0)
      return Fail("cannot cut the torn tail of " + Path);
  }

  S.LiveRecords = Index.size();
  S.LogBytes = FileBytes;
  return true;
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
  // A frame still in the write buffer must reach the file first.
  IndexEntry E = It->second;
  if (E.Offset >= FileBytes - Pending.size() && !flushLocked(nullptr)) {
    ++S.Misses;
    return nullptr;
  }
  // Read the frame again and check it, its key and its payload: the file
  // may have rotted since open().
  std::string Bytes(E.Size, '\0');
  std::optional<JobResult> R;
  if (preadAll(Fd, &Bytes[0], Bytes.size(), E.Offset)) {
    Frame F = decodeFrame(Bytes);
    if (F.Status == Frame::Kind::Ok && F.Size == Bytes.size() &&
        F.Key == Fingerprint)
      R = decodeRecord(F);
  }
  if (!R) {
    ++S.Corrupt;
    ++S.Misses;
    Index.erase(Fingerprint);
    S.LiveRecords = Index.size();
    return nullptr;
  }
  ++S.Hits;
  return std::make_shared<const JobResult>(std::move(*R));
}

void PersistStore::append(const JobResult &R) {
  std::lock_guard<std::mutex> L(Mu);
  if (Fd < 0 || R.Fingerprint.empty() || !service::jobCacheable(R.Status))
    return;
  size_t Size = appendRecordFrame(Pending, R.Fingerprint,
                                  service::resultToJsonLine(R));
  Index[R.Fingerprint] = {FileBytes, uint32_t(Size)};
  FileBytes += Size;
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

uint64_t PersistStore::replayInto(service::ResultCache &Cache) {
  std::lock_guard<std::mutex> L(Mu);
  if (Fd < 0 || !flushLocked(nullptr))
    return 0;
  // One pass in file order, which is age order, so the newest records
  // land most-recently-used in the LRU (and survive longest if the memory
  // budget is tighter than disk).  A frame that no longer verifies, or
  // that a read error keeps the walk from reaching, is skipped here; its
  // index entry stays for lookup() to re-check and drop.
  uint64_t N = 0;
  walkFrames(Fd, FileBytes, [&](uint64_t At, const Frame &F, std::string_view) {
    if (F.Status != Frame::Kind::Ok)
      return;
    auto It = Index.find(F.Key);
    if (It == Index.end() || It->second.Offset != At)
      return; // Superseded by a newer record of the same fingerprint.
    std::optional<JobResult> R = decodeRecord(F);
    if (!R) {
      ++S.Corrupt;
      Index.erase(It);
      return;
    }
    Cache.insert(It->first, std::make_shared<const JobResult>(std::move(*R)));
    ++N;
  });
  S.Replayed += N;
  S.LiveRecords = Index.size();
  return N;
}

void PersistStore::compactLocked() {
  if (!flushLocked(nullptr))
    return;
  // Evict oldest-first until the live records fit half the budget, so
  // that the next many appends land without another rewrite.  The newest
  // record stays whenever it fits the budget by itself.
  uint64_t Projected = PersistHeaderBytes, Newest = 0;
  for (const auto &[FP, E] : Index) {
    Projected += E.Size;
    Newest = std::max(Newest, E.Offset);
  }

  // Copy the survivors, verified again as the walk reads them, behind a
  // fresh header into a .tmp file, fsync it and rename it over the log: a
  // crash leaves either the old file or the whole new one.  A record that
  // rotted since it was indexed is dropped, never rewritten under a fresh
  // CRC.
  std::string Tmp = Path + ".tmp";
  int TmpFd = ::open(Tmp.c_str(),
                     O_RDWR | O_CREAT | O_TRUNC | O_APPEND | O_CLOEXEC, 0644);
  if (TmpFd < 0)
    return;
  IndexMap Kept;
  std::string Out =
      encodeHeader(service::CacheSchemaVersion, service::OptionsFormatVersion);
  uint64_t Written = 0, Evicted = 0;
  bool Ok = true;
  auto Copy = [&](uint64_t At, const Frame &F, std::string_view Bytes) {
    auto It = F.Status == Frame::Kind::Ok ? Index.find(F.Key) : Index.end();
    if (!Ok || It == Index.end() || It->second.Offset != At)
      return;
    if (Projected > Budget / 2 &&
        (At != Newest || PersistHeaderBytes + F.Size > Budget)) {
      Projected -= F.Size;
      ++Evicted;
      return;
    }
    Kept.emplace(It->first, IndexEntry{Written + Out.size(), uint32_t(F.Size)});
    Out += Bytes;
    if (Out.size() >= IoChunkBytes) {
      Ok = writeAll(TmpFd, Out);
      Written += Out.size();
      Out.clear();
    }
  };
  bool Read = walkFrames(Fd, FileBytes, Copy).has_value();
  Ok = Ok && Read && writeAll(TmpFd, Out) && ::fsync(TmpFd) == 0 &&
       ::rename(Tmp.c_str(), Path.c_str()) == 0;
  if (!Ok) {
    ::close(TmpFd);
    ::unlink(Tmp.c_str());
    return; // Keep the old (oversized but valid) file and its index.
  }
  closeLocked();
  Fd = TmpFd;
  FileBytes = Written + Out.size();
  S.Corrupt += Index.size() - Kept.size() - Evicted; // Rotted since open.
  Index = std::move(Kept);
  S.Evictions += Evicted;
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
