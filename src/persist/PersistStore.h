//===- persist/PersistStore.h - Disk tier under the ResultCache -*- C++ -*-===//
///
/// \file
/// The second cache tier: a fingerprint-indexed store of completed
/// JobResults in one append-only log file (format in PersistLog.h) that
/// this class alone opens, reads and writes.  A record's payload is the
/// result's wire line, resultToJsonLine(R), read back by
/// resultFromJsonLine (service/Protocol.h), so a disk hit carries what the
/// wire shows and no more.  The scheduler probes
/// it on a memory miss (hit -> decode, promote into the in-memory LRU,
/// serve as a cache hit) and appends every freshly computed cacheable
/// result; across a restart the store replays its live records into the
/// LRU, which is what makes warm-restart hit rates match warm in-process
/// ones.
///
/// Appends collect in memory and go to disk 32 at a time, in one write
/// and one fsync.  Records are only appended, so a record's file offset
/// is its age.  Each frame carries its fingerprint, so open() indexes
/// the file from the keys without decoding a payload; replay and
/// compaction walk the file front to back once, oldest record first,
/// and take from it only the frame each fingerprint's index entry
/// points to.
///
/// Trust model: the disk is the *untrusted* party.  open() re-verifies
/// the header and every record CRC before indexing anything, and cuts a
/// torn tail off the file before the first append lands behind it;
/// replay, lookup() and compaction verify again at read time (the file
/// may have been truncated or flipped since), and a payload is served
/// only if it decodes to the fingerprint its frame is keyed by.  Any
/// failure -- framing, checksum, JSON, unknown status, a key that
/// disagrees with the payload -- demotes the record to a miss and bumps
/// `persist.corrupt`; a bad header demotes the whole file and bumps
/// `persist.stale_files`, as does each `shard-?.log` file of the older
/// sixteen-file layout, which open() removes.  Corruption therefore costs
/// a recompute, never a wrong result and never a crash (the corruption
/// ctest tier pins all three paths).
///
/// GC is log compaction: when the file exceeds the byte budget, the
/// live records (the newest per fingerprint) are copied, oldest evicted
/// first until they fit half the budget, into a fresh file that
/// atomically replaces the old one (write .tmp, fsync, rename).  The
/// half left free absorbs the next appends, so a full store rewrites
/// itself once per many appends rather than on each one.
///
/// Thread-safe: one mutex serializes all operations; the scheduler's
/// workers call lookup()/append() concurrently.
///
//===----------------------------------------------------------------------===//

#ifndef CAI_PERSIST_PERSISTSTORE_H
#define CAI_PERSIST_PERSISTSTORE_H

#include "service/Job.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace cai {
namespace service {
class ResultCache;
}

namespace persist {

/// Disk-tier observability, exported as persist.* metrics and in the
/// stats line's "persist" block.
struct PersistStats {
  uint64_t Hits = 0;        ///< lookup() served a decoded record.
  uint64_t Misses = 0;      ///< lookup() found nothing usable.
  uint64_t Appends = 0;     ///< Records queued for the log.
  uint64_t Flushes = 0;     ///< fsync batches performed.
  uint64_t Corrupt = 0;     ///< Records dropped: framing/CRC/decode.
  uint64_t StaleFiles = 0;  ///< Files rejected: header mismatch or old layout.
  uint64_t Compactions = 0; ///< Log compaction runs.
  uint64_t Evictions = 0;   ///< Live records dropped by compaction GC.
  uint64_t Replayed = 0;    ///< Records replayed into the memory LRU.
  uint64_t LiveRecords = 0; ///< Fingerprints currently indexed.
  uint64_t LogBytes = 0;    ///< On-disk footprint (header included).
  uint64_t ByteBudget = 0;  ///< 0 = unbounded.

  double hitRate() const {
    uint64_t Total = Hits + Misses;
    return Total == 0 ? 0.0 : static_cast<double>(Hits) / Total;
  }
};

class PersistStore {
public:
  /// \p ByteBudget bounds the on-disk footprint (0 = unbounded).
  PersistStore(std::string Dir, uint64_t ByteBudget);
  ~PersistStore();

  PersistStore(const PersistStore &) = delete;
  PersistStore &operator=(const PersistStore &) = delete;

  /// Opens (creating if missing) the directory and its log file,
  /// verifies the header and every record's checksum, cuts a torn tail,
  /// and indexes the live (newest-per-fingerprint) records by their
  /// frames' keys, decoding no payload.  Corrupt records and
  /// stale files are counted and skipped -- open() only fails (returning
  /// false with \p Error) on genuine I/O errors like an uncreatable
  /// directory or a tail that cannot be cut.
  bool open(std::string *Error);

  /// True once open() has succeeded, until an I/O failure takes the
  /// disk tier out of service.
  bool ok() const { return Fd >= 0; }

  /// Fetches and decodes the live record for \p Fingerprint; nullptr on
  /// miss or on any verification failure (which also drops the index
  /// entry so the next probe misses cheaply).
  std::shared_ptr<const service::JobResult> lookup(
      const std::string &Fingerprint);

  /// Appends \p R as the new live record for \p R.Fingerprint.  Batches
  /// writes (one fsync per 32 appends); triggers compaction when the
  /// footprint exceeds the budget.  No-op before open() or for empty
  /// fingerprints.
  void append(const service::JobResult &R);

  /// Forces pending appends to disk (fsync).  Returns false on I/O
  /// failure, which also takes the disk tier out of service until the
  /// next open().  Called on shutdown and before reads of pending data.
  bool flush(std::string *Error = nullptr);

  /// Reads the log once, front to back, decoding each live record and
  /// inserting it into \p Cache oldest-first, so the newest records end
  /// most-recently-used.  Superseded records are skipped undecoded.
  /// Returns the number replayed.
  uint64_t replayInto(service::ResultCache &Cache);

  PersistStats stats() const;

private:
  struct IndexEntry {
    uint64_t Offset = 0; ///< Of the record frame (length word): its age.
    uint32_t Size = 0;   ///< Of the whole frame.
  };
  /// Lets the index be probed with a frame's key in place.
  struct KeyHash {
    using is_transparent = void;
    size_t operator()(std::string_view Key) const {
      return std::hash<std::string_view>{}(Key);
    }
  };
  using IndexMap =
      std::unordered_map<std::string, IndexEntry, KeyHash, std::equal_to<>>;

  bool flushLocked(std::string *Error);
  void compactLocked();
  void closeLocked();

  std::string Dir;
  std::string Path; ///< Dir + "/" + PersistLogFileName.
  uint64_t Budget;

  mutable std::mutex Mu;
  int Fd = -1; ///< The log; -1 before open() and after an I/O failure.
  uint64_t FileBytes = 0; ///< Size of the log, pending frames included.
  std::string Pending;    ///< Frames appended since the last flush.
  unsigned PendingFrames = 0;
  IndexMap Index;
  PersistStats S;
};

} // namespace persist
} // namespace cai

#endif // CAI_PERSIST_PERSISTSTORE_H
