//===- persist/PersistLog.cpp - File format of the result log -------------===//

#include "persist/PersistLog.h"

#include <array>
#include <cstring>

namespace cai {
namespace persist {

const char PersistMagic[4] = {'C', 'A', 'I', 'P'};
const char PersistLogFileName[] = "results.log";

namespace {

/// The eight tables of slicing-by-8 CRC-32 (IEEE).  Table 0 is the
/// bytewise table; entry I of table K is the CRC of byte I followed by K
/// zero bytes, so one step folds eight input bytes at once.  Built once,
/// lazily; the static local is thread-safe under C++11 rules.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

const CrcTables &crcTables() {
  static const CrcTables Tables = [] {
    CrcTables T{};
    for (uint32_t I = 0; I < 256; ++I) {
      uint32_t C = I;
      for (int K = 0; K < 8; ++K)
        C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : C >> 1;
      T[0][I] = C;
    }
    for (size_t K = 1; K < 8; ++K)
      for (uint32_t I = 0; I < 256; ++I)
        T[K][I] = (T[K - 1][I] >> 8) ^ T[0][T[K - 1][I] & 0xFF];
    return T;
  }();
  return Tables;
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
  const CrcTables &T = crcTables();
  const auto *P = static_cast<const char *>(Data);
  uint32_t C = 0xFFFFFFFFu;
  for (; Size >= 8; P += 8, Size -= 8) {
    uint32_t Lo = C ^ getU32(P), Hi = getU32(P + 4);
    C = T[7][Lo & 0xFF] ^ T[6][(Lo >> 8) & 0xFF] ^ T[5][(Lo >> 16) & 0xFF] ^
        T[4][Lo >> 24] ^ T[3][Hi & 0xFF] ^ T[2][(Hi >> 8) & 0xFF] ^
        T[1][(Hi >> 16) & 0xFF] ^ T[0][Hi >> 24];
  }
  for (; Size; ++P, --Size)
    C = T[0][(C ^ uint8_t(*P)) & 0xFF] ^ (C >> 8);
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

size_t appendRecordFrame(std::string &Out, std::string_view Key,
                         std::string_view Payload) {
  size_t Start = Out.size();
  size_t Body = PersistKeyLengthBytes + Key.size() + Payload.size();
  Out.reserve(Start + PersistRecordOverhead + Body);
  putU32(Out, uint32_t(Body));
  putU32(Out, 0); // The CRC, once the body is in place.
  putU32(Out, uint32_t(Key.size()));
  Out += Key;
  Out += Payload;
  uint32_t Crc = crc32(Out.data() + Start + PersistRecordOverhead, Body);
  for (int I = 0; I < 4; ++I)
    Out[Start + 4 + I] = char((Crc >> (8 * I)) & 0xFF);
  return PersistRecordOverhead + Body;
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
  F.Status = Frame::Kind::Corrupt;
  std::string_view Body = Bytes.substr(PersistRecordOverhead, Len);
  if (Len < PersistKeyLengthBytes ||
      crc32(Body.data(), Len) != getU32(Bytes.data() + 4))
    return F;
  uint32_t KeyLen = getU32(Body.data());
  Body.remove_prefix(PersistKeyLengthBytes);
  if (KeyLen > Body.size())
    return F;
  F.Status = Frame::Kind::Ok;
  F.Key = Body.substr(0, KeyLen);
  F.Payload = Body.substr(KeyLen);
  return F;
}

} // namespace persist
} // namespace cai
