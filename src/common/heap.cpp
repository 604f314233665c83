#include "common/heap.hpp"

#include <mutex>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace qcaps::common {

void retain_heap() {
#if defined(__GLIBC__)
  static std::once_flag once;
  std::call_once(once, [] {
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 64 << 20);
  });
#endif
}

}  // namespace qcaps::common
