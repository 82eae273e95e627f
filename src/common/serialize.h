#ifndef LIDX_COMMON_SERIALIZE_H_
#define LIDX_COMMON_SERIALIZE_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

namespace lidx {

// Minimal binary (de)serialization helpers for index persistence. The
// format is flat little-endian host-order: suitable for save/load on the
// same architecture (the common "build offline, serve online" deployment
// for immutable learned indexes), not for cross-platform interchange.
//
// All object bytes are staged through char buffers with std::memcpy rather
// than written/read through casted object pointers, so no code path relies
// on type-punned or potentially misaligned access.

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  char buf[sizeof(T)];
  std::memcpy(buf, &value, sizeof(T));
  out.write(buf, sizeof(T));
}

template <typename T>
bool ReadPod(std::istream& in, T* value) {
  static_assert(std::is_trivially_copyable_v<T>);
  char buf[sizeof(T)];
  in.read(buf, sizeof(T));
  if (!in) return false;
  std::memcpy(value, buf, sizeof(T));
  return true;
}

template <typename T>
void WriteVector(std::ostream& out, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  WritePod<uint64_t>(out, v.size());
  if (!v.empty()) {
    std::vector<char> buf(v.size() * sizeof(T));
    std::memcpy(buf.data(), v.data(), buf.size());
    out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  }
}

template <typename T>
bool ReadVector(std::istream& in, std::vector<T>* v) {
  static_assert(std::is_trivially_copyable_v<T>);
  uint64_t size = 0;
  if (!ReadPod(in, &size)) return false;
  // Guard against corrupted counts before allocating.
  if (size > (1ull << 40) / sizeof(T)) return false;
  v->resize(size);
  if (size > 0) {
    std::vector<char> buf(size * sizeof(T));
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    if (!in) return false;
    std::memcpy(v->data(), buf.data(), buf.size());
  }
  return static_cast<bool>(in);
}

namespace crc32_detail {

inline constexpr std::array<std::array<uint32_t, 256>, 8> kTables = [] {
  std::array<std::array<uint32_t, 256>, 8> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}();

inline uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace crc32_detail

// CRC32 (IEEE 802.3 reflected polynomial, the zlib/`cksum -o3` variant).
// Chainable: Crc32(b, nb, Crc32(a, na)) == Crc32(a ++ b). Used by the page
// header in src/storage and by the checksummed index-image frame below.
//
// Slice-by-8: table k maps a byte to its CRC contribution k bytes further
// down the stream, so eight table lookups fold one 8-byte block into the
// running CRC with no serial byte-to-byte dependency. The words are
// assembled from bytes, so the result does not depend on host byte order
// or on the alignment of `data`.
inline uint32_t Crc32(const void* data, size_t len, uint32_t seed = 0) {
  const auto& t = crc32_detail::kTables;
  uint32_t crc = ~seed;
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (; len >= 8; bytes += 8, len -= 8) {
    const uint32_t lo = crc32_detail::LoadLe32(bytes) ^ crc;
    const uint32_t hi = crc32_detail::LoadLe32(bytes + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++bytes, --len) {
    crc = t[0][(crc ^ *bytes) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

// Versioned magic header: every persistent artifact (index image, page
// file) starts with a 4-byte magic tag plus a 4-byte format version, so a
// reader can reject foreign or future-format bytes before parsing anything.
inline void WriteHeader(std::ostream& out, uint32_t magic, uint32_t version) {
  WritePod(out, magic);
  WritePod(out, version);
}

// Returns false on a short read or magic mismatch; the caller checks the
// version it can parse.
inline bool ReadHeader(std::istream& in, uint32_t expected_magic,
                       uint32_t* version) {
  uint32_t magic = 0;
  if (!ReadPod(in, &magic) || magic != expected_magic) return false;
  return ReadPod(in, version);
}

// Checksummed image frame shared by the index SaveTo/LoadFrom paths:
//
//   [magic u32][version u32][crc32 u32][payload_len u64][payload bytes]
//
// The CRC covers the payload, so any byte flip — not just ones that break
// structural framing — is rejected at load time instead of producing a
// garbage index. Structural corruption that forges a matching CRC is still
// caught by the per-index CheckInvariants() hooks (defense in depth).
inline void WriteImage(std::ostream& out, uint32_t magic, uint32_t version,
                       const std::string& payload) {
  WriteHeader(out, magic, version);
  WritePod<uint32_t>(out, Crc32(payload.data(), payload.size()));
  WritePod<uint64_t>(out, payload.size());
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
}

// Reads an image frame written by WriteImage. Returns false on magic or
// version mismatch, truncation, an implausible payload length, or a CRC
// mismatch; on success `payload` holds the verified payload bytes.
inline bool ReadImage(std::istream& in, uint32_t expected_magic,
                      uint32_t expected_version, std::string* payload) {
  uint32_t version = 0;
  if (!ReadHeader(in, expected_magic, &version)) return false;
  if (version != expected_version) return false;
  uint32_t crc = 0;
  uint64_t len = 0;
  if (!ReadPod(in, &crc) || !ReadPod(in, &len)) return false;
  if (len > (1ull << 40)) return false;  // Corrupt length guard.
  payload->resize(len);
  in.read(payload->data(), static_cast<std::streamsize>(len));
  if (!in) return false;
  return Crc32(payload->data(), payload->size()) == crc;
}

}  // namespace lidx

#endif  // LIDX_COMMON_SERIALIZE_H_
