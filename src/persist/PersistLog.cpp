//===- persist/PersistLog.cpp - File format of the result log -------------===//

#include "persist/PersistLog.h"

#include <cstring>
#include <vector>

namespace cai {
namespace persist {

const char PersistMagic[4] = {'C', 'A', 'I', 'P'};
const char PersistLogFileName[] = "results.log";

namespace {

/// Table-driven CRC-32 (IEEE).  The table is built once, lazily; the
/// static local is thread-safe under C++11 initialization rules.
const uint32_t *crcTable() {
  static const auto Table = [] {
    std::vector<uint32_t> T(256);
    for (uint32_t I = 0; I < 256; ++I) {
      uint32_t C = I;
      for (int K = 0; K < 8; ++K)
        C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : C >> 1;
      T[I] = C;
    }
    return T;
  }();
  return Table.data();
}

void putU32(std::string &Out, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    Out.push_back(char((V >> (8 * I)) & 0xFF));
}

void putU64(std::string &Out, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    Out.push_back(char((V >> (8 * I)) & 0xFF));
}

uint32_t getU32(const char *P) {
  uint32_t V = 0;
  for (int I = 3; I >= 0; --I)
    V = (V << 8) | uint8_t(P[I]);
  return V;
}

uint64_t getU64(const char *P) {
  uint64_t V = 0;
  for (int I = 7; I >= 0; --I)
    V = (V << 8) | uint8_t(P[I]);
  return V;
}

} // namespace

uint32_t crc32(const void *Data, size_t Size) {
  const uint32_t *T = crcTable();
  const auto *P = static_cast<const uint8_t *>(Data);
  uint32_t C = 0xFFFFFFFFu;
  for (size_t I = 0; I < Size; ++I)
    C = T[(C ^ P[I]) & 0xFF] ^ (C >> 8);
  return C ^ 0xFFFFFFFFu;
}

std::string encodeHeader(uint64_t SchemaVersion, uint64_t OptionsVersion) {
  std::string H;
  H.reserve(PersistHeaderBytes);
  H.append(PersistMagic, sizeof(PersistMagic));
  putU32(H, PersistContainerVersion);
  putU64(H, SchemaVersion);
  putU64(H, OptionsVersion);
  return H;
}

bool checkHeader(const std::string &Header, uint64_t SchemaVersion,
                 uint64_t OptionsVersion) {
  if (Header.size() != PersistHeaderBytes)
    return false;
  if (std::memcmp(Header.data(), PersistMagic, sizeof(PersistMagic)) != 0)
    return false;
  if (getU32(Header.data() + 4) != PersistContainerVersion)
    return false;
  if (getU64(Header.data() + 8) != SchemaVersion)
    return false;
  if (getU64(Header.data() + 16) != OptionsVersion)
    return false;
  return true;
}

std::string encodeRecordFrame(const std::string &Payload) {
  std::string Frame;
  Frame.reserve(PersistRecordOverhead + Payload.size());
  putU32(Frame, uint32_t(Payload.size()));
  putU32(Frame, crc32(Payload.data(), Payload.size()));
  Frame += Payload;
  return Frame;
}

Frame decodeFrame(std::string_view Bytes) {
  Frame F;
  if (Bytes.size() < PersistRecordOverhead)
    return F;
  uint32_t Len = getU32(Bytes.data());
  if (Len > PersistMaxRecordBytes) {
    F.Status = Frame::Kind::BadLength;
    return F;
  }
  if (Bytes.size() - PersistRecordOverhead < Len)
    return F;
  F.Size = PersistRecordOverhead + Len;
  std::string_view Payload = Bytes.substr(PersistRecordOverhead, Len);
  if (crc32(Payload.data(), Len) != getU32(Bytes.data() + 4)) {
    F.Status = Frame::Kind::BadChecksum;
    return F;
  }
  F.Status = Frame::Kind::Ok;
  F.Payload = Payload;
  return F;
}

} // namespace persist
} // namespace cai
