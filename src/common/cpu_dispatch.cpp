#include "common/cpu_dispatch.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace qcaps::common {
namespace {

constexpr const char* kNames[kIsaLevels] = {"scalar", "avx2", "avx512",
                                            "vnni"};

// The highest level this CPU and build support.
Isa detect() {
#ifdef QCAPS_X86_NATIVE
  __builtin_cpu_init();
  if (!__builtin_cpu_supports("avx2") || !__builtin_cpu_supports("fma"))
    return Isa::kScalar;
  if (!__builtin_cpu_supports("avx512f") ||
      !__builtin_cpu_supports("avx512bw") ||
      !__builtin_cpu_supports("avx512cd") ||
      !__builtin_cpu_supports("avx512dq") ||
      !__builtin_cpu_supports("avx512vl"))
    return Isa::kAvx2;
  if (!__builtin_cpu_supports("avx512vnni")) return Isa::kAvx512;
  return Isa::kAvx512Vnni;
#else
  return Isa::kScalar;
#endif
}

[[noreturn]] void reject(const char* name, const char* value,
                         const char* accepted) {
  std::fprintf(stderr,
               "qcaps: %s=%s is not a dispatch cap; accepted values: %s\n",
               name, value, accepted);
  std::exit(2);
}

// The cap the environment sets. This is the one place that reads it.
Isa env_cap() {
  const char* value = std::getenv("QCAPS_ISA");
  const std::optional<Isa> cap = parse_isa_cap(value);
  if (!cap) reject("QCAPS_ISA", value, "scalar, avx2, avx512, vnni");
  Isa level = *cap;
  // The per-backend switches QCAPS_ISA replaced. Scripts still force scalar
  // with them, so their value 0 is kept, and it caps every backend.
  for (const char* name :
       {"QCAPS_GEMM_NATIVE", "QCAPS_QGEMM_NATIVE", "QCAPS_CAPS_NATIVE"}) {
    const char* v = std::getenv(name);
    if (v == nullptr || *v == '\0') continue;
    if (std::strcmp(v, "0") != 0)
      reject(name, v, "0 (QCAPS_ISA sets the other caps)");
    level = Isa::kScalar;
  }
  return level;
}

// The detected level under the environment's cap.
Isa configured() { return std::min(detect(), env_cap()); }

Isa& active() {
  static Isa level = configured();
  return level;
}

}  // namespace

Isa isa() { return active(); }

const char* isa_name(Isa level) {
  return kNames[static_cast<std::size_t>(level)];
}

std::optional<Isa> parse_isa_cap(const char* value) {
  if (value == nullptr || *value == '\0') return Isa::kAvx512Vnni;
  for (std::size_t i = 0; i < kIsaLevels; ++i)
    if (std::strcmp(value, kNames[i]) == 0) return static_cast<Isa>(i);
  return std::nullopt;
}

bool force_isa(Isa level) {
  if (level > detect()) return false;
  active() = level;
  return true;
}

void reset_isa() { active() = configured(); }

}  // namespace qcaps::common
