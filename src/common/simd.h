#ifndef FIXREP_COMMON_SIMD_H_
#define FIXREP_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>

// SIMD feature detection and kernel dispatch for the batched inverted-list
// probe (rules/rule_source.h LookupBatch).
//
// Everything here is about *how fast* a batch of hash probes runs, never
// about *what* it computes: every kernel produces bit-identical hashes
// (the same SplitMix64 finalizer the scalar path uses), so repair output
// is byte-identical whichever kernel is active.
//
// Selection, in priority order:
// 1. SetSimdKernel() — the CLI's --no-simd flag, tests, and benches.
// 2. FIXREP_SIMD=off|sse|avx2|auto — read once, at first use.
// 3. Runtime CPU detection (__builtin_cpu_supports), capped at what the
//    build supports.
//
// Builds for non-x86 targets (or with -DFIXREP_DISABLE_SIMD=ON) compile
// the kernels out entirely; kScalar is then the only supported kernel and
// the batch path degrades to the plain scalar probe loop.

// x86 kernels are compiled in only when the target is x86 and the build
// did not opt out. CMake mirrors this condition when deciding whether to
// compile the per-file -msse4.2/-mavx2 kernel TUs.
#if (defined(__x86_64__) || defined(__i386__)) && \
    !defined(FIXREP_DISABLE_SIMD)
#define FIXREP_SIMD_X86 1
#else
#define FIXREP_SIMD_X86 0
#endif

namespace fixrep {

// Probe kernels, ordered so that a larger value is a wider kernel.
enum class SimdKernel : int {
  kScalar = 0,  // portable fallback; also the FIXREP_SIMD=off path
  kSse = 1,     // 2 keys/lane-group (SSE2 ops, compiled as -msse4.2)
  kAvx2 = 2,    // 4 keys/lane-group
};

// "scalar" | "sse" | "avx2".
const char* SimdKernelName(SimdKernel kernel);

// True when both the build compiled the kernel in and the running CPU
// executes it. kScalar is always supported.
bool SimdKernelSupported(SimdKernel kernel);

// The widest supported kernel on this machine.
SimdKernel BestSupportedSimdKernel();

// Process-wide active kernel. First use parses FIXREP_SIMD; explicit
// SetSimdKernel overrides it (an unsupported request clamps to the best
// supported kernel). Thread-safe: plain atomic loads/stores.
SimdKernel ActiveSimdKernel();
void SetSimdKernel(SimdKernel kernel);

// The SplitMix64 finalizer: full avalanche, the hash of every probe path
// (and the reference every SIMD kernel must reproduce bit-for-bit).
inline uint64_t SplitMix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

// hashes[i] = SplitMix64(keys[i]) for i < n, computed with `kernel`.
// Bit-identical across kernels; only throughput differs.
void HashBatch(SimdKernel kernel, const uint64_t* keys, size_t n,
               uint64_t* hashes);

// Read-prefetch with high temporal locality; no-op where unsupported.
inline void PrefetchRead(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
  (void)p;
#endif
}

}  // namespace fixrep

#endif  // FIXREP_COMMON_SIMD_H_
