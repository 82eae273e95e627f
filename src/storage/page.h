#ifndef LIDX_STORAGE_PAGE_H_
#define LIDX_STORAGE_PAGE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "common/serialize.h"

namespace lidx::storage {

// ----- On-disk page format -----
//
// The storage engine's unit of I/O is a 4 KiB page. Every page starts with
// a fixed 32-byte header:
//
//   [magic u32][version u16][type u16][page_id u64][payload_bytes u32]
//   [codec u16][record_count u16][crc32 u32][reserved u32]
//
// The CRC covers the whole page with the crc field itself zeroed, so torn
// writes, bit rot, and truncated files are all rejected at read time. The
// page carries its own id, which additionally catches misdirected reads
// and writes (the classic "lseek math was off by one page" bug). Bytes are
// host-order, matching the library's same-architecture persistence story
// (see common/serialize.h).
//
// Format v2 made every page self-identifying about its *encoding* as well
// as its identity: `codec` says how the payload bytes map to records
// (storage/page_codec.h defines the codecs and their payload layouts) and
// `record_count` is the uncompressed record count, so a reader never has
// to consult out-of-band state to decode a data page.

inline constexpr size_t kPageSize = 4096;
inline constexpr uint32_t kPageMagic = 0x4C504731;  // "LPG1".
inline constexpr uint16_t kPageFormatVersion = 2;

enum class PageType : uint16_t {
  kData = 1,  // Sorted key/value records (DiskRun).
};

// How a kData payload encodes its records. kPlain is the v1 layout
// (fixed-width packed records); the compressed codecs store columnar
// key/value streams with frame-of-reference + fixed-width bit-packing
// (see storage/page_codec.h for the exact payload layouts).
enum class PageCodec : uint16_t {
  kPlain = 0,  // [key][value][tombstone] records, kRecordBytes each.
  kFor = 1,    // Frame-of-reference: residuals against the page minimum.
  kDelta = 2,  // Delta/linear (LeCo-style): residuals against a per-page
               // integer slope through (rank, key) — the sorted-key mode.
};

struct PageHeader {
  uint32_t magic = kPageMagic;
  uint16_t version = kPageFormatVersion;
  uint16_t type = 0;
  uint64_t page_id = 0;
  uint32_t payload_bytes = 0;
  uint16_t codec = 0;         // PageCodec of the payload.
  uint16_t record_count = 0;  // Uncompressed records in the payload.
  uint32_t crc32 = 0;
  uint32_t reserved = 0;  // Explicit tail padding: keeps the struct free of
                          // indeterminate bytes so page CRCs stay
                          // deterministic.
};
static_assert(std::is_trivially_copyable_v<PageHeader>);
static_assert(sizeof(PageHeader) == 32, "page header layout is part of the "
                                        "on-disk format");

inline constexpr size_t kPagePayloadSize = kPageSize - sizeof(PageHeader);

// A page-sized in-memory buffer. Header access is staged through memcpy so
// no code path reads the raw bytes through a casted struct pointer.
struct Page {
  std::array<unsigned char, kPageSize> bytes{};

  PageHeader header() const {
    PageHeader h;
    std::memcpy(&h, bytes.data(), sizeof(h));
    return h;
  }
  void set_header(const PageHeader& h) {
    std::memcpy(bytes.data(), &h, sizeof(h));
  }

  unsigned char* payload() { return bytes.data() + sizeof(PageHeader); }
  const unsigned char* payload() const {
    return bytes.data() + sizeof(PageHeader);
  }
};

// CRC over the full page image with the header's crc field zeroed. The
// field offset is pinned by a static_assert so the checksum definition
// cannot silently drift from the header layout.
inline uint32_t PageChecksum(const Page& page) {
  constexpr size_t kCrcOffset = 24;
  static_assert(offsetof(PageHeader, crc32) == kCrcOffset);
  const unsigned char zeros[sizeof(uint32_t)] = {0, 0, 0, 0};
  uint32_t crc = Crc32(page.bytes.data(), kCrcOffset);
  crc = Crc32(zeros, sizeof(zeros), crc);
  const size_t resume = kCrcOffset + sizeof(uint32_t);
  return Crc32(page.bytes.data() + resume, kPageSize - resume, crc);
}

}  // namespace lidx::storage

#endif  // LIDX_STORAGE_PAGE_H_
