// Heap policy for processes that run forwards back to back.
//
// Every forward allocates its activations and frees them when it ends. With
// glibc's default dynamic thresholds, the mmap threshold follows the largest
// block freed so far and the trim threshold is twice that, so a forward
// whose working set is larger than twice its largest buffer hands its heap
// back to the OS when it ends, and the next forward faults every page in
// again. Which process pays depended on incidental sizes: int64 activations
// used to push both thresholds past an fp32 DeepCaps forward's working set,
// int8 ones do not. On the benchmark's deep_offline_2t (batch 16, two
// threads, 8 s) the int8/fp32 loop took about 400k minor page faults with
// dynamic thresholds and about 10k with the thresholds pinned below.
#pragma once

namespace qcaps::common {

/// Pin glibc malloc's mmap threshold at 32 MB (its largest) and its trim
/// threshold at 64 MB, once per process, so the buffers a forward frees stay
/// in the heap for the next one. A no-op on other C libraries.
void retain_heap();

}  // namespace qcaps::common
