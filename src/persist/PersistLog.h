//===- persist/PersistLog.h - File format of the result log ----*- C++ -*-===//
///
/// \file
/// The on-disk format of the persistent result cache: one append-only
/// log file per store directory, a header followed by length-prefixed,
/// CRC32-checksummed record frames, each carrying its key.  This file
/// only encodes and decodes; PersistStore owns the file and every read
/// and write of it.
///
/// File layout (all integers little-endian):
///
///   header   "CAIP" | u32 container-version | u64 CacheSchemaVersion |
///            u64 OptionsFormatVersion
///   record*  u32 body-length | u32 crc32(body) | body
///   body     u32 key-length | key bytes | payload bytes
///
/// The key is the result's fingerprint and the payload its wire line;
/// the checksum covers both.  A reader indexes a frame from its key
/// alone, so knowing which records are live takes no payload decoding.
///
/// The header pins every version that decides whether a stored payload
/// still means what it meant when written: the container framing and
/// payload format, the result-cache key schema, and the format of the
/// result-affecting option fingerprint.  A reader that finds any
/// mismatch rejects the whole file (PersistStore counts it in
/// `persist.stale_files`) instead of deserializing records under the
/// wrong schema.
///
/// Records are only ever appended, so a frame's offset is its age.  A
/// crash mid-append leaves a torn frame at the end of the file;
/// decodeFrame() reports it as incomplete, and the store cuts it off at
/// open instead of serving it.
///
//===----------------------------------------------------------------------===//

#ifndef CAI_PERSIST_PERSISTLOG_H
#define CAI_PERSIST_PERSISTLOG_H

#include <cstdint>
#include <string>
#include <string_view>

namespace cai {
namespace persist {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over \p Size
/// bytes at \p Data.  The standard zlib/PNG checksum, computed eight
/// bytes per step (slicing-by-8): more than strong enough to catch torn
/// writes and bit rot -- the log defends against corruption, not
/// adversaries.
uint32_t crc32(const void *Data, size_t Size);

/// First bytes of the log file.
extern const char PersistMagic[4]; // "CAIP"

/// Name of the one log file inside a store directory.
extern const char PersistLogFileName[]; // "results.log"

/// Version of the container: the header layout, the record framing and
/// the payload format.  Bump it when any of the three changes, so that a
/// store an older build wrote is rejected whole, once, on first open,
/// instead of being misread.
///   1: payload is a persist-only JSON object with every AnalyzerStats
///      field and each finding's CFG node.
///   2: payload is the result's wire line (service::resultToJsonLine).
///   3: the checksummed body leads with the length-prefixed fingerprint.
constexpr uint32_t PersistContainerVersion = 3;

/// Upper bound on one record's body.  A length prefix beyond this is
/// treated as corruption (the reader cannot resync past a bogus length,
/// so it drops the rest of the file).
constexpr uint32_t PersistMaxRecordBytes = 64u << 20;

/// Bytes of framing before each body (length + CRC words).
constexpr size_t PersistRecordOverhead = 8;

/// Bytes of the key-length word that leads each body.
constexpr size_t PersistKeyLengthBytes = 4;

/// Size of the file header in bytes.
constexpr size_t PersistHeaderBytes = 4 + 4 + 8 + 8;

/// Serializes the header for the given schema/options versions.
std::string encodeHeader(uint64_t SchemaVersion, uint64_t OptionsVersion);

/// Validates \p Header (exactly PersistHeaderBytes from the start of the
/// file) against the expected versions.  Returns false on any mismatch --
/// magic, container, schema or options format.
bool checkHeader(const std::string &Header, uint64_t SchemaVersion,
                 uint64_t OptionsVersion);

/// Appends one record frame for \p Key and \p Payload to \p Out, built in
/// place so that the payload is copied once.  Returns the frame's size.
size_t appendRecordFrame(std::string &Out, std::string_view Key,
                         std::string_view Payload);

/// What decodeFrame() found at the front of a byte range.
struct Frame {
  enum class Kind {
    Ok,          ///< A whole frame whose body matches its checksum.
    Corrupt,     ///< A whole frame whose body does not, or whose key
                 ///< length runs past its body: skip it.
    Incomplete,  ///< Fewer bytes than the frame claims: a torn tail, or
                 ///< more bytes to read.
    BadLength,   ///< A length past PersistMaxRecordBytes: nothing after
                 ///< it can be trusted to start a frame.
  };
  Kind Status = Kind::Incomplete;
  size_t Size = 0;          ///< Frame bytes (Ok and Corrupt only).
  std::string_view Key;     ///< Into the decoded range (Ok only).
  std::string_view Payload; ///< Into the decoded range (Ok only).
};

/// Decodes the frame at the start of \p Bytes.  The one place the length,
/// CRC and key-length words are read.
Frame decodeFrame(std::string_view Bytes);

} // namespace persist
} // namespace cai

#endif // CAI_PERSIST_PERSISTLOG_H
