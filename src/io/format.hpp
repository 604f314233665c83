// .qcg on-disk format — the compiled-model artifact (docs/model_format.md).
//
// A .qcg file is a serialized qengine::QuantizedGraph: the flat QuantizedOp
// node table, a string table for layer names, and every quantized weight in
// the packed container layout the qgemm backend consumes (int8/int16 panels
// plus, where the exact kernel tier could still run, the raw int64 grid
// values). The layout is designed for zero-copy loading: all multi-byte
// fields are little-endian and naturally aligned, tensor sections are
// 64-byte aligned, and the loader points the packed-operand caches straight
// into the read-only mapping — N serving replicas share ONE weight image.
//
// Versioning policy: `version` bumps on ANY change to these structs or to
// the section layout; readers reject mismatches with VersionError rather
// than guessing. The arch fields (endian tag, raw word width) guard against
// loading an image produced by an incompatible host. Both CRCs are CRC-32
// (IEEE, reflected 0xEDB88320).
#pragma once

#include <cstdint>
#include <cstddef>
#include <type_traits>

#include "common/error.hpp"

namespace qcaps::io {

// ---- typed read-path errors ------------------------------------------------

/// Base of every .qcg validation failure.
class FormatError : public qcaps::Error {
 public:
  using qcaps::Error::Error;
};

/// The file does not start with the QCG1 magic — not a .qcg at all.
class BadMagicError : public FormatError {
 public:
  using FormatError::FormatError;
};

/// A well-formed header whose format version this reader does not speak.
class VersionError : public FormatError {
 public:
  using FormatError::FormatError;
};

/// Arch mismatch: the image was written by a host with a different byte
/// order or raw-word width and cannot be mapped on this one.
class ArchError : public FormatError {
 public:
  using FormatError::FormatError;
};

/// Structural damage: truncation, checksum mismatch, out-of-bounds offsets,
/// inconsistent node records.
class CorruptError : public FormatError {
 public:
  using FormatError::FormatError;
};

// ---- constants -------------------------------------------------------------

/// "QCG1" read as a little-endian u32.
inline constexpr std::uint32_t kQcgMagic = 0x31474351u;
/// Current format version. Bump on any layout change (see policy above).
inline constexpr std::uint32_t kQcgVersion = 1;
/// Written as the literal 0x01020304; a big-endian reader sees 0x04030201.
inline constexpr std::uint32_t kQcgEndianTag = 0x01020304u;
/// Alignment of every tensor section in the weight blob.
inline constexpr std::size_t kQcgSectionAlign = 64;

/// Model family recorded in the header (diagnostics / compat checks only;
/// the node table is self-describing).
enum class QcgFamily : std::uint32_t {
  kUnknown = 0,
  kShallowCaps = 1,
  kDeepCaps = 2,
};

// ---- on-disk structs -------------------------------------------------------
//
// All structs are trivially copyable PODs read/written via memcpy; their
// sizes are frozen by static_asserts. Fields are ordered so every member
// sits at its natural alignment (no implicit padding).

/// One serialized tensor (a weight, bias, or per-type vote weight). Sections
/// hold the same values in up to three widths, mirroring the in-memory
/// QGemmOperandCache: int8/int16 packed containers when `max_abs` fits them,
/// and the raw int64 grid values when the executor's exact kernel tier could
/// still need them (absent when the packed fast path is statically
/// guaranteed for every possible input — the weight loads "hollow").
/// Offsets are absolute file offsets; 0 marks an absent section (offset 0
/// is the header, never a section).
struct QcgTensorRef {
  std::uint32_t present = 0;  ///< 0 = no tensor at all (e.g. missing bias)
  std::int32_t qi = 0;        ///< fixed-point format ⟨QI.QF⟩: scale 2^-QF,
  std::int32_t qf = 0;        ///< zero-point 0 (symmetric grid)
  std::uint32_t ndim = 0;
  std::int64_t dims[4] = {0, 0, 0, 0};
  std::int64_t numel = 0;
  std::int64_t max_abs = 0;  ///< exact largest |raw| (calibration metadata)
  std::uint64_t i8_offset = 0;   ///< numel bytes
  std::uint64_t i16_offset = 0;  ///< 2 * numel bytes
  std::uint64_t i64_offset = 0;  ///< 8 * numel bytes
};
static_assert(sizeof(QcgTensorRef) == 88);
static_assert(std::is_trivially_copyable_v<QcgTensorRef>);

/// One serialized QuantizedOp.
struct QcgNodeRecord {
  std::uint32_t kind = 0;     ///< QOpKind (on-disk numbering is frozen)
  std::int32_t input = -1;    ///< producing value index; -1 = network input
  std::int32_t input2 = -1;
  std::uint32_t name_offset = 0;  ///< into the string table (NUL-terminated)
  std::int64_t stride = 1, pad = 0;
  std::int32_t out_qi = 1, out_qf = 15;
  std::int32_t mid_qi = 1, mid_qf = 15;
  std::int32_t dr_qi = 1, dr_qf = 15;
  std::int32_t iterations = 0;
  std::uint32_t type_count = 0;  ///< kConvCaps3d: per-type weight tensors
  std::int64_t caps_types = 0, caps_dim = 0;
  std::int64_t in_types = 0, in_dim = 0;
  std::int64_t out_types = 0, out_dim = 0;
  std::uint64_t type_refs_offset = 0;  ///< type_count QcgTensorRefs (absolute)
  QcgTensorRef weight;
  QcgTensorRef bias;
};
static_assert(sizeof(QcgNodeRecord) == 296);
static_assert(std::is_trivially_copyable_v<QcgNodeRecord>);

/// Fixed 128-byte file header.
struct QcgHeader {
  std::uint32_t magic = kQcgMagic;
  std::uint32_t version = kQcgVersion;
  std::uint32_t endian_tag = kQcgEndianTag;
  std::uint32_t raw_word_bytes = 8;  ///< sizeof the raw grid word (int64)
  std::uint32_t family = 0;          ///< QcgFamily
  std::uint32_t tier_bits = 0;       ///< widest container any weight needs
  std::uint32_t node_count = 0;
  std::int32_t input_qi = 1;
  std::int32_t input_qf = 15;
  std::uint32_t reserved0 = 0;
  std::uint64_t nodes_offset = 0;
  std::uint64_t strtab_offset = 0;
  std::uint64_t strtab_size = 0;
  std::uint64_t blob_offset = 0;
  std::uint64_t blob_size = 0;
  std::uint64_t file_size = 0;
  std::int64_t weight_bits = 0;  ///< convenience metadata (storage cost)
  std::int64_t in_channels = 0;  ///< expected input extent; 0 = unrecorded
  std::int64_t in_h = 0;
  std::int64_t in_w = 0;
  std::uint32_t payload_crc32 = 0;  ///< over [nodes_offset, file_size)
  std::uint32_t header_crc32 = 0;   ///< over the first 124 header bytes
};
static_assert(sizeof(QcgHeader) == 128);
static_assert(std::is_trivially_copyable_v<QcgHeader>);

/// CRC-32C (Castagnoli, reflected polynomial 0x82F63B78). `seed` chains
/// calls. Chosen over IEEE CRC-32 because x86's SSE4.2 crc32 instruction
/// implements exactly this polynomial: the payload scan is the dominant
/// cost of a cold-start load, and the hardware path keeps it out of the
/// critical path entirely. The software fallback (slice-by-8), which runs
/// at the scalar dispatch level (common/cpu_dispatch.hpp), computes
/// identical values, so the format does not depend on the instruction.
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0);

}  // namespace qcaps::io
