#include "sfc/morton.h"

#include <cmath>

#include "common/macros.h"

namespace lidx::sfc {

namespace {

// Spreads the low 32 bits of v so bit i lands at position 2*i.
uint64_t Spread2(uint64_t v) {
  v &= 0xFFFFFFFFull;
  v = (v | (v << 16)) & 0x0000FFFF0000FFFFull;
  v = (v | (v << 8)) & 0x00FF00FF00FF00FFull;
  v = (v | (v << 4)) & 0x0F0F0F0F0F0F0F0Full;
  v = (v | (v << 2)) & 0x3333333333333333ull;
  v = (v | (v << 1)) & 0x5555555555555555ull;
  return v;
}

uint32_t Compact2(uint64_t v) {
  v &= 0x5555555555555555ull;
  v = (v | (v >> 1)) & 0x3333333333333333ull;
  v = (v | (v >> 2)) & 0x0F0F0F0F0F0F0F0Full;
  v = (v | (v >> 4)) & 0x00FF00FF00FF00FFull;
  v = (v | (v >> 8)) & 0x0000FFFF0000FFFFull;
  v = (v | (v >> 16)) & 0x00000000FFFFFFFFull;
  return static_cast<uint32_t>(v);
}

// Spreads the low 21 bits of v so bit i lands at position 3*i.
uint64_t Spread3(uint64_t v) {
  v &= 0x1FFFFFull;
  v = (v | (v << 32)) & 0x001F00000000FFFFull;
  v = (v | (v << 16)) & 0x001F0000FF0000FFull;
  v = (v | (v << 8)) & 0x100F00F00F00F00Full;
  v = (v | (v << 4)) & 0x10C30C30C30C30C3ull;
  v = (v | (v << 2)) & 0x1249249249249249ull;
  return v;
}

uint32_t Compact3(uint64_t v) {
  v &= 0x1249249249249249ull;
  v = (v | (v >> 2)) & 0x10C30C30C30C30C3ull;
  v = (v | (v >> 4)) & 0x100F00F00F00F00Full;
  v = (v | (v >> 8)) & 0x001F0000FF0000FFull;
  v = (v | (v >> 16)) & 0x001F00000000FFFFull;
  v = (v | (v >> 32)) & 0x00000000001FFFFFull;
  return static_cast<uint32_t>(v);
}

}  // namespace

uint64_t MortonEncode2D(uint32_t x, uint32_t y) {
  return Spread2(x) | (Spread2(y) << 1);
}

std::pair<uint32_t, uint32_t> MortonDecode2D(uint64_t code) {
  return {Compact2(code), Compact2(code >> 1)};
}

uint64_t MortonEncode3D(uint32_t x, uint32_t y, uint32_t z) {
  return Spread3(x) | (Spread3(y) << 1) | (Spread3(z) << 2);
}

void MortonDecode3D(uint64_t code, uint32_t* x, uint32_t* y, uint32_t* z) {
  *x = Compact3(code);
  *y = Compact3(code >> 1);
  *z = Compact3(code >> 2);
}

uint32_t Quantize(double v, int bits) {
  LIDX_DCHECK(bits >= 1 && bits <= 32);
  if (v < 0.0) v = 0.0;
  if (v >= 1.0) v = std::nextafter(1.0, 0.0);
  const double scale = static_cast<double>(1ull << bits);
  uint64_t q = static_cast<uint64_t>(v * scale);
  const uint64_t max = (1ull << bits) - 1;
  if (q > max) q = max;
  return static_cast<uint32_t>(q);
}

double Dequantize(uint32_t q, int bits) {
  const double scale = static_cast<double>(1ull << bits);
  return (static_cast<double>(q) + 0.5) / scale;
}

}  // namespace lidx::sfc
