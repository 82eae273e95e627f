#ifndef LIDX_SFC_MORTON_H_
#define LIDX_SFC_MORTON_H_

#include <array>
#include <cstdint>
#include <utility>

namespace lidx::sfc {

// Z-order (Morton) curve: bit interleaving of fixed-point coordinates.
// 2-D uses 32 bits per dimension (full 64-bit code); 3-D uses 21 bits per
// dimension. All functions are branch-free magic-number spreads.

// Interleaves x (even bits) and y (odd bits).
uint64_t MortonEncode2D(uint32_t x, uint32_t y);
std::pair<uint32_t, uint32_t> MortonDecode2D(uint64_t code);

// 3-D: 21 bits per coordinate (values >= 2^21 are truncated).
uint64_t MortonEncode3D(uint32_t x, uint32_t y, uint32_t z);
void MortonDecode3D(uint64_t code, uint32_t* x, uint32_t* y, uint32_t* z);

// The same curves indexed by dimension D (2 or 3): cell[d] is the
// coordinate interleaved at bits d, d + D, d + 2D, ...
template <int D>
uint64_t MortonEncode(const std::array<uint32_t, D>& cell) {
  static_assert(D == 2 || D == 3, "Morton codes are 2-D or 3-D");
  if constexpr (D == 2) {
    return MortonEncode2D(cell[0], cell[1]);
  } else {
    return MortonEncode3D(cell[0], cell[1], cell[2]);
  }
}

template <int D>
std::array<uint32_t, D> MortonDecode(uint64_t code) {
  static_assert(D == 2 || D == 3, "Morton codes are 2-D or 3-D");
  if constexpr (D == 2) {
    const auto [x, y] = MortonDecode2D(code);
    return {x, y};
  } else {
    std::array<uint32_t, 3> cell;
    MortonDecode3D(code, &cell[0], &cell[1], &cell[2]);
    return cell;
  }
}

// Maps a double in [0,1) to a dimension-appropriate fixed-point grid
// coordinate. `bits` is the per-dimension resolution, 1 to 32.
uint32_t Quantize(double v, int bits);
double Dequantize(uint32_t q, int bits);

}  // namespace lidx::sfc

#endif  // LIDX_SFC_MORTON_H_
