// SSE 4.2 hardware kernel for CRC-32C (common/crc32c.h). This TU alone
// is compiled with -msse4.2 (see src/common/CMakeLists.txt); the
// dispatcher calls in only after __builtin_cpu_supports("sse4.2").
//
// The crc32 instruction has a latency of three cycles but issues one per
// cycle, so one dependent chain runs at a third of its throughput. Long
// buffers are cut into three adjacent blocks that run as three
// independent chains in one loop; the chains are then joined by
// shifting the earlier CRC over the later block's length (a multiply by
// x^(8 * block) mod P, done with four table lookups) and XORing.

#include "common/crc32c.h"

#if FIXREP_SIMD_X86

#include <nmmintrin.h>

#include <array>
#include <cstring>

namespace fixrep {

namespace {

constexpr uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli
// Block lengths of the three-way loops: long blocks for bulk data,
// short ones for the tail (and for buffers under 3 long blocks).
constexpr size_t kLongBlock = 8192;
constexpr size_t kShortBlock = 256;

// a * b mod P, both in the reflected bit order (bit 31 is x^0).
uint32_t MultModP(uint32_t a, uint32_t b) {
  uint32_t product = 0;
  for (uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if (a & m) product ^= b;
    b = (b & 1) ? (b >> 1) ^ kPoly : b >> 1;
  }
  return product;
}

// x^(8 * bytes) mod P: what a CRC register is multiplied by when
// `bytes` zero bytes pass through it.
uint32_t ZerosOperator(size_t bytes) {
  uint32_t power = 1u << 31;  // x^0
  uint32_t square = 1u << 23;  // x^8
  for (; bytes != 0; bytes >>= 1) {
    if (bytes & 1) power = MultModP(power, square);
    square = MultModP(square, square);
  }
  return power;
}

// Shifts a CRC register over a fixed number of zero bytes, one table
// per register byte (the operator is linear over GF(2)).
struct ShiftTable {
  std::array<std::array<uint32_t, 256>, 4> t;

  explicit ShiftTable(size_t bytes) {
    const uint32_t op = ZerosOperator(bytes);
    for (uint32_t i = 0; i < 4; ++i) {
      for (uint32_t v = 0; v < 256; ++v) t[i][v] = MultModP(op, v << (8 * i));
    }
  }

  uint32_t Shift(uint32_t crc) const {
    return t[0][crc & 0xFF] ^ t[1][(crc >> 8) & 0xFF] ^
           t[2][(crc >> 16) & 0xFF] ^ t[3][crc >> 24];
  }
};

struct ShiftTables {
  ShiftTable long_block{kLongBlock};
  ShiftTable short_block{kShortBlock};
};

const ShiftTables& Tables() {
  static const ShiftTables tables;
  return tables;
}

uint64_t Load64(const uint8_t* p) {
  uint64_t word = 0;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

// Runs three chains over three adjacent `block`-byte blocks while at
// least three remain, joining them into *crc after each round.
template <size_t kBlock>
void ThreeWay(const ShiftTable& shift, const uint8_t** p, size_t* size,
              uint64_t* crc) {
  while (*size >= 3 * kBlock) {
    const uint8_t* a = *p;
    uint64_t crc0 = *crc;
    uint64_t crc1 = 0;
    uint64_t crc2 = 0;
    for (size_t i = 0; i < kBlock; i += 8) {
      crc0 = _mm_crc32_u64(crc0, Load64(a + i));
      crc1 = _mm_crc32_u64(crc1, Load64(a + kBlock + i));
      crc2 = _mm_crc32_u64(crc2, Load64(a + 2 * kBlock + i));
    }
    crc0 = shift.Shift(static_cast<uint32_t>(crc0)) ^ crc1;
    *crc = shift.Shift(static_cast<uint32_t>(crc0)) ^ crc2;
    *p += 3 * kBlock;
    *size -= 3 * kBlock;
  }
}

}  // namespace

uint32_t Crc32cHardware(const void* data, size_t size, uint32_t seed) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  while (size > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    crc = _mm_crc32_u8(crc, *p++);
    --size;
  }
  uint64_t crc64 = crc;
  if (size >= 3 * kShortBlock) {
    const ShiftTables& tables = Tables();
    ThreeWay<kLongBlock>(tables.long_block, &p, &size, &crc64);
    ThreeWay<kShortBlock>(tables.short_block, &p, &size, &crc64);
  }
  while (size >= 8) {
    crc64 = _mm_crc32_u64(crc64, Load64(p));
    p += 8;
    size -= 8;
  }
  crc = static_cast<uint32_t>(crc64);
  while (size > 0) {
    crc = _mm_crc32_u8(crc, *p++);
    --size;
  }
  return ~crc;
}

}  // namespace fixrep

#endif  // FIXREP_SIMD_X86
