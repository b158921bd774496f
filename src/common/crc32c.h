#ifndef FIXREP_COMMON_CRC32C_H_
#define FIXREP_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

#include "common/simd.h"

// CRC-32C (Castagnoli, reflected polynomial 0x82F63B78) for the serve
// wire protocol's frame checksums. The serve frames carry whole CSV
// batches, so the checksum pass runs over megabytes per request and
// must not dominate the repair itself: on x86 with SSE 4.2 the hardware
// crc32 instruction runs as three interleaved chains, 8 bytes each per
// cycle (runtime-dispatched like the probe-hash kernels in
// common/simd.h); everywhere else a slice-by-8 table keeps it near
// memory speed. Both paths produce identical checksums.
//
// This is deliberately NOT the WAL's Crc32 (common/wal.h): the WAL and
// rule-dictionary file formats keep their historical CRC-32 polynomial
// for on-disk compatibility. CRC-32C exists for link-speed framing,
// where x86 hardware support makes it effectively free.

namespace fixrep {

// Checksum of [data, data+size). Chainable like the WAL CRC:
// Crc32c(b, n2, Crc32c(a, n1)) == Crc32c(ab, n1+n2).
uint32_t Crc32c(const void* data, size_t size, uint32_t seed = 0);

// The portable slice-by-8 path, bypassing dispatch — the reference the
// hardware kernel must reproduce bit-for-bit (tested in common_test).
uint32_t Crc32cSoftware(const void* data, size_t size, uint32_t seed = 0);

// True when the running CPU executes the hardware path.
bool Crc32cHardwareActive();

#if FIXREP_SIMD_X86
// Defined in crc32c_sse.cc (compiled with -msse4.2); callable only on
// CPUs that report SSE 4.2. Buffers of 768 bytes and more run three
// crc32 chains at once.
uint32_t Crc32cHardware(const void* data, size_t size, uint32_t seed);
#endif

}  // namespace fixrep

#endif  // FIXREP_COMMON_CRC32C_H_
