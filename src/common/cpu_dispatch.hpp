// One CPU-dispatch level for every kernel backend.
//
// The fp32 GEMM, the integer GEMM (qgemm), the routing/squash caps kernels,
// qengine's AVX-512 squash passes and CRC-32C all pick their code path from
// the single level isa() returns. The levels are ordered, each implying the
// ones below it. A level is granted only when the CPU has every feature
// listed for it, which covers every feature its kernels are compiled for:
//
//   scalar  portable C++ (the fallback every non-x86 build runs)
//   avx2    AVX2 + FMA (SSE4.2 comes with it)
//   avx512  avx2 + AVX-512 F, BW, CD, DQ and VL (every AVX-512BW part has
//           all five)
//   vnni    avx512 + AVX-512 VNNI
//
// The level is detected once from CPUID and then capped three ways:
//
//   - the environment: QCAPS_ISA=scalar|avx2|avx512|vnni caps it (a cap
//     above what the CPU has changes nothing). The older per-backend names
//     QCAPS_GEMM_NATIVE, QCAPS_QGEMM_NATIVE and QCAPS_CAPS_NATIVE are still
//     read, with the one value 0, which caps every backend at scalar. Any
//     other value of any of these variables stops the process with a message
//     naming the accepted values; an empty variable counts as unset.
//   - the build: configuring with -DQCAPS_NATIVE=OFF defines
//     QCAPS_DISABLE_NATIVE, which compiles every vector kernel out and pins
//     the level at scalar. Non-x86 builds behave the same way.
//   - tests: force_isa / reset_isa.
//
// Each backend keeps a table with one entry per level and reports what it
// runs through its *_kernel_name() (tensor::gemm_kernel_name() and friends).
#pragma once

#include <cstddef>
#include <optional>

// Defined for the translation units that may compile vector kernels.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(QCAPS_DISABLE_NATIVE)
#define QCAPS_X86_NATIVE 1
#endif

namespace qcaps::common {

/// Dispatch levels, lowest first.
enum class Isa { kScalar, kAvx2, kAvx512, kAvx512Vnni };
inline constexpr std::size_t kIsaLevels = 4;

/// The active level.
Isa isa();

/// The entry of a per-level table at the active level.
template <typename T>
const T& at_isa(const T (&table)[kIsaLevels]) {
  return table[static_cast<std::size_t>(isa())];
}

/// The QCAPS_ISA spelling of a level: "scalar", "avx2", "avx512", "vnni".
const char* isa_name(Isa level);

/// Parses a QCAPS_ISA value into the highest level it allows: nullptr and
/// "" mean no cap (vnni), otherwise one of "scalar", "avx2", "avx512",
/// "vnni". Anything else yields std::nullopt. Reads no state.
std::optional<Isa> parse_isa_cap(const char* value);

/// Test seam: run at `level` from now on. Returns false, changing nothing,
/// when the CPU or the build lacks that level; the environment's cap does
/// not limit it. Like every dispatch change it is unsynchronized: call it
/// only from single-threaded test code, never while kernels run.
bool force_isa(Isa level);

/// Undo force_isa: detect again and apply the environment's cap, re-reading
/// the environment (same single-threaded contract).
void reset_isa();

}  // namespace qcaps::common
