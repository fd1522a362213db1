// Runtime CPU feature detection for the dispatched arithmetic kernels.
//
// Two families of optional hardware paths exist, each with its own build
// toggle so CI keeps the portable fallbacks compiled and tested:
//
//  * Carry-less multiply (x86 PCLMULQDQ, AArch64 PMULL), used by the
//    table-free GF(2^m) path (gf2x.cc). Disabled by -DPBS_DISABLE_CLMUL=ON.
//  * Wide-lane SIMD (x86 AVX2 / AVX-512, AArch64 NEON), used by the
//    lane-batched kernels: cross-group batch Chien search (gf/roots.cc),
//    batched xxhash64 (hash/xxhash64.cc), vectorized parity-bitmap scan
//    (core/parity_bitmap.cc), IBF cell arithmetic (ibf/) and the
//    Tug-of-War estimate pass (hash/fourwise.cc). Disabled by
//    -DPBS_DISABLE_SIMD=ON.
//
// Every kernel follows the same pattern: the hardware variant is compiled
// with a per-function target attribute (no global -m flags needed), the
// portable variant stays as the differential reference, and the choice is
// made once at process start from what the running CPU reports.

#ifndef PBS_COMMON_CPU_FEATURES_H_
#define PBS_COMMON_CPU_FEATURES_H_

namespace pbs::cpu {

/// True when the running CPU offers a carry-less-multiply instruction the
/// build has a kernel for (x86 PCLMULQDQ + SSE4.1, AArch64 PMULL).
/// Detection runs once and is cached; always false under PBS_DISABLE_CLMUL.
bool HasCarrylessMul();

/// Dispatch label for logs and bench records: "clmul" or "portable".
const char* CarrylessMulBackend();

/// True when the running CPU offers 256-bit integer SIMD the build has
/// kernels for (x86 AVX2). Detection runs once and is cached; always false
/// under PBS_DISABLE_SIMD.
bool HasAvx2();

/// True when the running CPU offers the AVX-512 subset the 512-bit-lane
/// kernels need (F + DQ's native 64-bit lane multiply + VL). Detection
/// runs once and is cached; always false under PBS_DISABLE_SIMD.
bool HasAvx512();

/// True when the AArch64 NEON kernels are compiled in (NEON is baseline on
/// AArch64, so this is a build-configuration fact: false on other targets
/// and under PBS_DISABLE_SIMD).
bool HasNeon();

/// Dispatch label for the wide-lane kernels: "avx512", "avx2", "neon" or
/// "portable" (the widest family the CPU offers; individual kernels may
/// dispatch below it when they have no kernel at that width).
const char* SimdBackend();

/// Combined capability string for bench records and the serve startup
/// line, e.g. "clmul+avx2+avx512", "clmul+avx2", "neon" or "portable".
/// Stable for the process lifetime (points at a static buffer).
const char* FeatureString();

}  // namespace pbs::cpu

#endif  // PBS_COMMON_CPU_FEATURES_H_
