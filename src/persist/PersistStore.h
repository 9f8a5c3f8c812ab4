//===- persist/PersistStore.h - Disk tier under the ResultCache -*- C++ -*-===//
///
/// \file
/// The second cache tier: a fingerprint-indexed store of completed
/// JobResults on top of the PersistLog container.  A record's payload is
/// the result's wire line, resultToJsonLine(R), read back by
/// resultFromJsonLine (service/Protocol.h), so a disk hit carries what the
/// wire shows and no more.  The scheduler probes
/// it on a memory miss (hit -> decode, promote into the in-memory LRU,
/// serve as a cache hit) and appends every freshly computed cacheable
/// result; across a restart the store replays its live records into the
/// LRU, which is what makes warm-restart hit rates match warm in-process
/// ones.
///
/// Trust model: the disk is the *untrusted* party.  open() re-verifies
/// the header and every record CRC before indexing anything; lookup()
/// verifies again at read time (the file may have been truncated or
/// flipped since).  Any failure -- framing, checksum, JSON, unknown
/// status -- demotes the record to a miss and bumps `persist.corrupt`;
/// a bad header demotes the whole file and bumps `persist.stale_files`.
/// Corruption therefore costs a recompute, never a wrong result and
/// never a crash (the corruption ctest tier pins all three paths).
///
/// GC is log compaction: when the on-disk footprint exceeds the byte
/// budget, live records (the newest per fingerprint) are rewritten to
/// fresh shard files -- oldest-first eviction until the budget holds --
/// and the old files are atomically replaced (write .tmp, fsync,
/// rename).
///
/// Thread-safe: one mutex serializes all operations; the scheduler's
/// workers call lookup()/append() concurrently.
///
//===----------------------------------------------------------------------===//

#ifndef CAI_PERSIST_PERSISTSTORE_H
#define CAI_PERSIST_PERSISTSTORE_H

#include "persist/PersistLog.h"
#include "service/Job.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

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
  uint64_t StaleFiles = 0;  ///< Shard files rejected for header mismatch.
  uint64_t Compactions = 0; ///< Log compaction runs.
  uint64_t Evictions = 0;   ///< Live records dropped by compaction GC.
  uint64_t Replayed = 0;    ///< Records replayed into the memory LRU.
  uint64_t LiveRecords = 0; ///< Fingerprints currently indexed.
  uint64_t LogBytes = 0;    ///< On-disk footprint (headers included).
  uint64_t ByteBudget = 0;  ///< 0 = unbounded.

  double hitRate() const {
    uint64_t Total = Hits + Misses;
    return Total == 0 ? 0.0 : static_cast<double>(Hits) / Total;
  }
};

class PersistStore {
public:
  /// \p ByteBudget bounds the on-disk footprint (0 = unbounded);
  /// \p FlushEvery batches that many appends per fsync (clamped to 1).
  PersistStore(std::string Dir, uint64_t ByteBudget, unsigned FlushEvery = 32);
  ~PersistStore();

  PersistStore(const PersistStore &) = delete;
  PersistStore &operator=(const PersistStore &) = delete;

  /// Opens the log directory, verifies every shard header and record,
  /// and indexes the live (newest-per-fingerprint) records.  Corrupt
  /// records/tails and stale files are counted and skipped -- open()
  /// only fails (returning false with \p Error) on genuine I/O errors
  /// like an uncreatable directory.
  bool open(std::string *Error);

  /// True once open() has succeeded.
  bool ok() const { return Opened; }

  /// Fetches and decodes the live record for \p Fingerprint; nullptr on
  /// miss or on any verification failure (which also drops the index
  /// entry so the next probe misses cheaply).
  std::shared_ptr<const service::JobResult> lookup(
      const std::string &Fingerprint);

  /// Appends \p R as the new live record for \p R.Fingerprint.  Batches
  /// writes (see FlushEvery); triggers compaction when the footprint
  /// exceeds the budget.  No-op before open() or for empty fingerprints.
  void append(const service::JobResult &R);

  /// Forces pending appends to disk (fsync).  Returns false on I/O
  /// failure.  Called on shutdown and before reads of pending data.
  bool flush(std::string *Error = nullptr);

  /// Decodes every live record and inserts it into \p Cache
  /// oldest-first, so the newest records end most-recently-used.
  /// Returns the number replayed.
  uint64_t replayInto(service::ResultCache &Cache);

  PersistStats stats() const;

private:
  struct IndexEntry {
    unsigned Shard = 0;
    uint64_t Offset = 0;   ///< Of the record frame (length word).
    uint32_t PayloadLen = 0;
    uint64_t Seq = 0;      ///< Append order across the whole store.
  };

  bool loadShard(unsigned S, std::string *Error);
  /// pread + verify + decode the indexed record; on failure counts
  /// corruption and drops the entry.  Caller holds Mu.
  std::shared_ptr<const service::JobResult> readEntryLocked(
      const std::string &Fingerprint, const IndexEntry &E);
  bool flushLocked(std::string *Error);
  void compactLocked();

  std::string Dir;
  uint64_t Budget;
  unsigned FlushEvery;
  PersistLog Log;
  bool Opened = false;

  mutable std::mutex Mu;
  std::unordered_map<std::string, IndexEntry> Index;
  uint64_t NextSeq = 0;
  unsigned AppendsSinceFlush = 0;
  PersistStats S;
};

} // namespace persist
} // namespace cai

#endif // CAI_PERSIST_PERSISTSTORE_H
