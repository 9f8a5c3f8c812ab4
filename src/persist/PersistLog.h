//===- persist/PersistLog.h - Append-only checksummed record log -*- C++ -*-===//
///
/// \file
/// The on-disk container of the persistent result cache: an append-only
/// log of length-prefixed, CRC32-checksummed records, sharded into a
/// fixed set of files inside one directory by the low bits of the
/// record's canonical fingerprint.  The writer batches appends in memory
/// and makes them durable on flush() -- one write + fsync per dirty
/// shard, so a burst of results costs a bounded number of syncs
/// ("fsync-on-flush batching").
///
/// File layout (all integers little-endian):
///
///   header   "CAIP" | u32 container-version | u64 CacheSchemaVersion |
///            u64 OptionsFormatVersion
///   record*  u32 payload-length | u32 crc32(payload) | payload bytes
///
/// The header pins every version that decides whether a stored payload
/// still means what it meant when written: the container framing and
/// payload format, the result-cache key schema, and the format of the
/// result-affecting option fingerprint.  A reader that finds any
/// mismatch rejects the whole file (PersistStore counts it in
/// `persist.stale_files`) instead of deserializing records under the
/// wrong schema.
///
/// Torn tails are expected, not exceptional: a crash mid-append leaves a
/// half-written record at the end of one shard, and the reader's CRC +
/// length validation turns it into a clean "skip the tail" instead of a
/// wrong result.  See PersistStore for the read side.
///
//===----------------------------------------------------------------------===//

#ifndef CAI_PERSIST_PERSISTLOG_H
#define CAI_PERSIST_PERSISTLOG_H

#include <cstdint>
#include <string>
#include <vector>

namespace cai {
namespace persist {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over \p Size
/// bytes at \p Data.  The standard zlib/PNG checksum: cheap, table-driven
/// and more than strong enough to catch torn writes and bit rot -- the
/// log defends against corruption, not adversaries.
uint32_t crc32(const void *Data, size_t Size);

/// First bytes of every shard file.
extern const char PersistMagic[4]; // "CAIP"

/// Version of the container: the header layout, the record framing and
/// the payload format.  Bump it when any of the three changes, so that a
/// store an older build wrote is rejected whole, once, on first open,
/// instead of being misread.
///   1: payload is a persist-only JSON object with every AnalyzerStats
///      field and each finding's CFG node.
///   2: payload is the result's wire line (service::resultToJsonLine).
constexpr uint32_t PersistContainerVersion = 2;

/// Number of shard files per log directory.  Fixed: the shard of a
/// record is derived from its fingerprint, so changing the count would
/// strand records in files a reader no longer probes.
constexpr unsigned PersistNumShards = 16;

/// Upper bound on one record's payload.  A length prefix beyond this is
/// treated as corruption (the reader cannot resync past a bogus length,
/// so it drops the rest of that shard's tail).
constexpr uint32_t PersistMaxRecordBytes = 64u << 20;

/// Bytes of framing added to each payload (length + CRC words).
constexpr size_t PersistRecordOverhead = 8;

/// Size of the shard-file header in bytes.
constexpr size_t PersistHeaderBytes = 4 + 4 + 8 + 8;

/// Shard index (0..PersistNumShards-1) for a canonical fingerprint: the
/// value of its leading hex digit.  Fingerprints are uniformly
/// distributed 128-bit hashes, so this spreads records evenly; it is
/// also trivially stable across processes and platforms.
unsigned shardOfFingerprint(const std::string &Fingerprint);

/// Renders the shard file name ("shard-0.log" .. "shard-f.log").
std::string shardFileName(unsigned Shard);

/// Serializes the header for the given schema/options versions.
std::string encodeHeader(uint64_t SchemaVersion, uint64_t OptionsVersion);

/// Validates \p Header (exactly PersistHeaderBytes from the start of a
/// shard file) against the expected versions.  Returns false on any
/// mismatch -- magic, container, schema or options format.
bool checkHeader(const std::string &Header, uint64_t SchemaVersion,
                 uint64_t OptionsVersion);

/// Frames \p Payload as one record (length + CRC + bytes).
std::string encodeRecordFrame(const std::string &Payload);

/// The batching writer for one log directory.  Appends accumulate in
/// per-shard buffers; flush() writes every dirty shard and fsyncs it.
/// Not thread-safe -- PersistStore serializes callers under its mutex.
class PersistLog {
public:
  /// \p Dir is created if missing on open().
  PersistLog(std::string Dir, uint64_t SchemaVersion,
             uint64_t OptionsVersion);
  ~PersistLog();

  PersistLog(const PersistLog &) = delete;
  PersistLog &operator=(const PersistLog &) = delete;

  /// Opens (or creates) every shard file for appending.  A brand-new or
  /// empty shard gets a header immediately.  \p ShardBytes, when
  /// non-null, receives each existing shard's current size -- the offsets
  /// the next appends will land at.  Returns false and sets \p Error on
  /// I/O failure.
  bool open(std::string *Error, std::vector<uint64_t> *ShardBytes = nullptr);

  /// Queues \p Payload for \p Shard and returns the absolute file offset
  /// its *frame* will occupy once flushed (the offset PersistStore
  /// indexes for later pread).
  uint64_t append(unsigned Shard, const std::string &Payload);

  /// Writes every pending buffer and fsyncs each dirty shard.  Returns
  /// false (and sets \p Error) on the first I/O failure; the log is then
  /// in an undefined-but-recoverable state (the reader's CRC validation
  /// absorbs a torn batch).  A flush with nothing pending is a no-op and
  /// does not count.
  bool flush(std::string *Error);

  /// True when append() has queued bytes not yet flushed.
  bool hasPending() const { return PendingBytes != 0; }

  /// Flushes performed (no-op flushes excluded).
  uint64_t flushCount() const { return Flushes; }

  /// Total on-disk + pending bytes across shards (headers included).
  uint64_t totalBytes() const;

  /// Closes every shard fd (open() can be called again, e.g. after a
  /// compaction rewrote the files).
  void closeFiles();

  /// The shard's file descriptor (-1 when closed); PersistStore preads
  /// record frames through it.
  int fd(unsigned Shard) const { return Fds[Shard]; }

  /// The directory this log writes into.
  const std::string &dir() const { return Dir; }

private:
  std::string Dir;
  uint64_t SchemaVersion;
  uint64_t OptionsVersion;
  std::vector<int> Fds;              ///< One per shard; -1 when closed.
  std::vector<uint64_t> Sizes;       ///< On-disk size incl. pending bytes.
  std::vector<std::string> Pending;  ///< Per-shard unflushed frames.
  size_t PendingBytes = 0;
  uint64_t Flushes = 0;
};

} // namespace persist
} // namespace cai

#endif // CAI_PERSIST_PERSISTLOG_H
