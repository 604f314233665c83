#include "io/model_serializer.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>
#include <vector>

#include "common/cpu_dispatch.hpp"
#include "common/failpoint.hpp"
#include "io/mmap_file.hpp"

namespace qcaps::io {

namespace {

// Software CRC-32C: slice-by-8 (built once). A byte-at-a-time table runs at
// a few hundred MB/s and would cost more than the entire rest of
// load_graph; eight parallel table lookups per 8-byte chunk break the
// per-byte dependency chain and keep the scan in the GB/s range.
std::uint32_t crc32c_sw(const std::uint8_t* p, std::size_t size,
                        std::uint32_t crc) {
  static const std::array<std::array<std::uint32_t, 256>, 8> tables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i)
      for (int s = 1; s < 8; ++s)
        t[s][i] = t[0][t[s - 1][i] & 0xFFu] ^ (t[s - 1][i] >> 8);
    return t;
  }();
  while (size >= 8) {
    // Little-endian load of the next 8 bytes, built portably so crc32
    // itself stays arch-independent (the FORMAT is little-endian only, but
    // this routine must return the same value on any host).
    std::uint64_t w = 0;
    for (int i = 0; i < 8; ++i)
      w |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    w ^= crc;
    crc = tables[7][w & 0xFFu] ^ tables[6][(w >> 8) & 0xFFu] ^
          tables[5][(w >> 16) & 0xFFu] ^ tables[4][(w >> 24) & 0xFFu] ^
          tables[3][(w >> 32) & 0xFFu] ^ tables[2][(w >> 40) & 0xFFu] ^
          tables[1][(w >> 48) & 0xFFu] ^ tables[0][(w >> 56) & 0xFFu];
    p += 8;
    size -= 8;
  }
  for (std::size_t i = 0; i < size; ++i)
    crc = tables[0][(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  return crc;
}

#ifdef QCAPS_X86_NATIVE
// Hardware CRC-32C (the SSE4.2 crc32 instruction implements exactly the
// Castagnoli polynomial this format uses). Taken from the avx2 dispatch
// level up, which implies SSE4.2; bit-identical to crc32c_sw.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_hw(
    const std::uint8_t* p, std::size_t size, std::uint32_t crc) {
  std::uint64_t c = crc;
  while (size >= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    c = __builtin_ia32_crc32di(c, w);
    p += 8;
    size -= 8;
  }
  std::uint32_t c32 = static_cast<std::uint32_t>(c);
  for (std::size_t i = 0; i < size; ++i)
    c32 = __builtin_ia32_crc32qi(c32, p[i]);
  return c32;
}
#endif

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  const std::uint32_t crc = ~seed;
#ifdef QCAPS_X86_NATIVE
  if (common::isa() >= common::Isa::kAvx2) return ~crc32c_hw(p, size, crc);
#endif
  return ~crc32c_sw(p, size, crc);
}

namespace {

using qengine::QGemmOperandCache;
using qengine::QOpKind;
using qengine::QTensor;
using qengine::QuantizedOp;

constexpr std::uint32_t kMaxNodes = 1u << 20;
constexpr std::uint32_t kMaxTypeRefs = 1u << 16;

std::uint64_t align_up(std::uint64_t v, std::uint64_t a) {
  return (v + a - 1) / a * a;
}

// ---- static fast-path guarantee --------------------------------------------
//
// A weight may be stored WITHOUT its raw int64 grid values ("hollow") only
// when the executor's packed-GEMM fast path is guaranteed for EVERY input
// the consuming op can ever see — the exact kernel tier, which reads w.raw,
// must be statically unreachable. The executor decides its packed paths
// from the consuming op's formats and the weights' packed range alone
// (qengine::packed_tier), so that same predicate, evaluated on the unfused
// op, is the hollow rule. save_graph applies it to decide which weights to
// store hollow, and load_graph re-applies it to every hollow weight it reads.

std::int64_t conv_fan_in(const QTensor& w) {
  return w.dim(1) * w.dim(2) * w.dim(3);
}

// True when `w` (op.weight, or one of a kConvCaps3d node's type_weights)
// is guaranteed the packed path of `op`, whose input value has format
// `x_fmt`. `w_max_abs` is the packed range the op's tier is picked from:
// the weight's own, or for a kConvCaps3d node the grouped range of all its
// type weights (the largest), since the node runs one tier for them all.
bool hollow_ok(const QuantizedOp& op, const QTensor& w, std::int64_t w_max_abs,
               fixed::FixedFormat x_fmt) {
  const auto packed = [&](std::int64_t k, fixed::FixedFormat out,
                          const QTensor& bias) {
    return qengine::packed_tier(x_fmt, w.fmt, w_max_abs, k, out, bias) !=
           qengine::PackedTier::kNone;
  };
  switch (op.kind) {
    case QOpKind::kConv2d:
      return packed(conv_fan_in(w), op.out_fmt, op.bias);
    case QOpKind::kPrimaryCaps:
    case QOpKind::kConvCaps:
      // These convolve into the wide pre-squash format.
      return packed(conv_fan_in(w), op.mid_fmt, op.bias);
    case QOpKind::kVoteTransform:
      return packed(w.dim(3), op.out_fmt, QTensor());
    case QOpKind::kConvCaps3d:
      // The vote convolutions run bias-free into out_fmt.
      return packed(conv_fan_in(w), op.out_fmt, QTensor());
    default:
      return false;  // unexpected weight carrier: keep the raw values
  }
}

// ---- save ------------------------------------------------------------------

// Where and how one tensor's sections land in the weight blob.
struct TensorPlan {
  const QTensor* t = nullptr;
  const QGemmOperandCache* cache = nullptr;  // null for biases
  std::int64_t numel = 0;
  std::int64_t max_abs = 0;
  bool i8 = false, i16 = false, i64 = false;
  std::uint64_t i8_off = 0, i16_off = 0, i64_off = 0;
};

std::int64_t cached_or_scanned_max_abs(const QTensor& t,
                                       const QGemmOperandCache* cache) {
  if (cache != nullptr && cache->max_abs >= 0) return cache->max_abs;
  QCAPS_CHECK_MSG(!t.raw.empty() || tensor::shape_numel(t.shape) == 0,
                  "cannot serialize a hollow tensor without its packed cache");
  return t.max_abs_raw();
}

TensorPlan plan_tensor(const QTensor& t, const QGemmOperandCache* cache,
                       bool hollow_ok) {
  TensorPlan p;
  p.t = &t;
  p.cache = cache;
  p.numel = tensor::shape_numel(t.shape);
  QCAPS_CHECK_MSG(t.shape.size() <= 4,
                  "qcg tensors carry at most 4 dims, got " << t.shape.size());
  p.max_abs = cached_or_scanned_max_abs(t, cache);
  if (cache != nullptr) {
    // Mirror make_operand_cache: both containers that fit are stored, since
    // the runtime tier additionally depends on the activations' range.
    p.i8 = p.max_abs <= 127;
    p.i16 = p.max_abs <= 32767;
  }
  p.i64 = !hollow_ok;
  if (p.i64)
    QCAPS_CHECK_MSG(!t.raw.empty() || p.numel == 0,
                    "cannot re-serialize a hollow weight whose packed-path "
                    "guarantee no longer holds");
  return p;
}

void write_section_bytes(std::uint8_t* buf, const TensorPlan& p) {
  const std::size_t n = static_cast<std::size_t>(p.numel);
  if (p.i8) {
    std::int8_t* dst = reinterpret_cast<std::int8_t*>(buf + p.i8_off);
    if (p.cache->has_i8()) {
      std::memcpy(dst, p.cache->i8_data(), n);
    } else {
      const auto packed = p.t->packed_i8();
      std::memcpy(dst, packed.data(), n);
    }
  }
  if (p.i16) {
    std::int16_t* dst = reinterpret_cast<std::int16_t*>(buf + p.i16_off);
    if (p.cache->has_i16()) {
      std::memcpy(dst, p.cache->i16_data(), 2 * n);
    } else {
      const auto packed = p.t->packed_i16();
      std::memcpy(dst, packed.data(), 2 * n);
    }
  }
  if (p.i64) std::memcpy(buf + p.i64_off, p.t->raw.data(), 8 * n);
}

QcgTensorRef ref_of(const TensorPlan& p) {
  QcgTensorRef r;
  r.present = 1;
  r.qi = p.t->fmt.qi;
  r.qf = p.t->fmt.qf;
  r.ndim = static_cast<std::uint32_t>(p.t->shape.size());
  for (std::size_t d = 0; d < p.t->shape.size(); ++d)
    r.dims[d] = p.t->shape[d];
  r.numel = p.numel;
  r.max_abs = p.max_abs;
  r.i8_offset = p.i8 ? p.i8_off : 0;
  r.i16_offset = p.i16 ? p.i16_off : 0;
  r.i64_offset = p.i64 ? p.i64_off : 0;
  return r;
}

QcgFamily detect_family(const std::vector<QuantizedOp>& ops) {
  bool deep = false, shallow = false;
  for (const QuantizedOp& op : ops) {
    switch (op.kind) {
      case QOpKind::kConvCaps:
      case QOpKind::kConvCaps3d:
      case QOpKind::kResidualAdd:
        deep = true;
        break;
      case QOpKind::kVoteTransform:
        shallow = true;
        break;
      default:
        break;
    }
  }
  if (deep) return QcgFamily::kDeepCaps;
  if (shallow) return QcgFamily::kShallowCaps;
  return QcgFamily::kUnknown;
}

}  // namespace

void save_graph(const qengine::QuantizedGraph& g, const std::string& path,
                const SaveOptions& opts) {
  const std::vector<QuantizedOp>& ops = g.ops();
  QCAPS_CHECK_MSG(!ops.empty(), "cannot serialize an empty graph");
  const std::size_t n = ops.size();
  QCAPS_CHECK_MSG(n < kMaxNodes, "graph too large for the qcg node table");

  // Value i is produced in ops[i].out_fmt (every op kind records its
  // produced format there); -1 is the quantized network input.
  const auto value_fmt = [&](int idx) {
    return idx < 0 ? g.input_format()
                   : ops[static_cast<std::size_t>(idx)].out_fmt;
  };

  // String table.
  std::string strtab;
  std::vector<std::uint32_t> name_off(n);
  for (std::size_t i = 0; i < n; ++i) {
    name_off[i] = static_cast<std::uint32_t>(strtab.size());
    strtab += ops[i].source;
    strtab += '\0';
  }

  // Plan every tensor's sections, then lay them out 64-byte aligned.
  struct NodePlan {
    TensorPlan weight, bias;
    std::vector<TensorPlan> types;
    bool has_weight = false, has_bias = false;
  };
  std::vector<NodePlan> plans(n);
  std::uint64_t total_typerefs = 0;
  std::uint32_t tier_bits = 8;

  for (std::size_t i = 0; i < n; ++i) {
    const QuantizedOp& op = ops[i];
    NodePlan& np = plans[i];
    const fixed::FixedFormat x_fmt = value_fmt(op.input);

    if (!op.weight.shape.empty()) {
      np.has_weight = true;
      const std::int64_t wmax =
          cached_or_scanned_max_abs(op.weight, &op.wcache);
      np.weight = plan_tensor(op.weight, &op.wcache,
                              hollow_ok(op, op.weight, wmax, x_fmt));
    }
    if (!op.bias.shape.empty()) {
      np.has_bias = true;
      // Biases are tiny and read raw on both executor paths: always stored
      // as int64 grid values, never packed.
      np.bias = plan_tensor(op.bias, nullptr, /*hollow_ok=*/false);
    }
    QCAPS_CHECK_MSG(op.type_weights.size() == op.type_caches.size(),
                    op.source << ": type weight/cache count mismatch");
    QCAPS_CHECK_MSG(op.type_weights.size() < kMaxTypeRefs,
                    op.source << ": too many per-type weights");
    // A kConvCaps3d node picks one tier for all its type weights, from
    // their grouped range.
    std::int64_t group_max = 0;
    for (std::size_t t = 0; t < op.type_weights.size(); ++t)
      group_max = std::max(group_max,
                           cached_or_scanned_max_abs(op.type_weights[t],
                                                     &op.type_caches[t]));
    for (std::size_t t = 0; t < op.type_weights.size(); ++t) {
      const QTensor& wt = op.type_weights[t];
      np.types.push_back(plan_tensor(wt, &op.type_caches[t],
                                     hollow_ok(op, wt, group_max, x_fmt)));
    }
    total_typerefs += np.types.size();

    const auto widen_tier = [&tier_bits](const TensorPlan& p) {
      if (!p.i16) tier_bits = 64;
      else if (p.max_abs > 127 && tier_bits < 16) tier_bits = 16;
    };
    if (np.has_weight) widen_tier(np.weight);
    for (const TensorPlan& p : np.types) widen_tier(p);
  }

  // Layout: header | node records | type-ref arrays | strtab | blob.
  const std::uint64_t nodes_offset = sizeof(QcgHeader);
  const std::uint64_t typerefs_offset =
      nodes_offset + n * sizeof(QcgNodeRecord);
  const std::uint64_t strtab_offset =
      typerefs_offset + total_typerefs * sizeof(QcgTensorRef);
  const std::uint64_t blob_offset =
      align_up(strtab_offset + strtab.size(), kQcgSectionAlign);

  std::uint64_t cursor = blob_offset;
  const auto place = [&cursor](TensorPlan& p) {
    const std::uint64_t numel = static_cast<std::uint64_t>(p.numel);
    if (p.i8) {
      p.i8_off = cursor;
      cursor = align_up(cursor + numel, kQcgSectionAlign);
    }
    if (p.i16) {
      p.i16_off = cursor;
      cursor = align_up(cursor + 2 * numel, kQcgSectionAlign);
    }
    if (p.i64) {
      p.i64_off = cursor;
      cursor = align_up(cursor + 8 * numel, kQcgSectionAlign);
    }
  };
  for (NodePlan& np : plans) {
    if (np.has_weight) place(np.weight);
    if (np.has_bias) place(np.bias);
    for (TensorPlan& p : np.types) place(p);
  }
  const std::uint64_t file_size = cursor;

  // Assemble the whole image in memory (zero-filled padding keeps the bytes
  // — and therefore the checksum — deterministic), then write once.
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(file_size), 0);

  std::uint64_t typeref_cursor = typerefs_offset;
  for (std::size_t i = 0; i < n; ++i) {
    const QuantizedOp& op = ops[i];
    NodePlan& np = plans[i];
    QcgNodeRecord rec;
    rec.kind = static_cast<std::uint32_t>(op.kind);
    rec.input = op.input;
    rec.input2 = op.input2;
    rec.name_offset = name_off[i];
    rec.stride = op.stride;
    rec.pad = op.pad;
    rec.out_qi = op.out_fmt.qi;
    rec.out_qf = op.out_fmt.qf;
    rec.mid_qi = op.mid_fmt.qi;
    rec.mid_qf = op.mid_fmt.qf;
    rec.dr_qi = op.dr_fmt.qi;
    rec.dr_qf = op.dr_fmt.qf;
    rec.iterations = op.iterations;
    rec.type_count = static_cast<std::uint32_t>(np.types.size());
    rec.caps_types = op.caps_types;
    rec.caps_dim = op.caps_dim;
    rec.in_types = op.in_types;
    rec.in_dim = op.in_dim;
    rec.out_types = op.out_types;
    rec.out_dim = op.out_dim;
    if (np.has_weight) {
      rec.weight = ref_of(np.weight);
      write_section_bytes(buf.data(), np.weight);
    }
    if (np.has_bias) {
      rec.bias = ref_of(np.bias);
      write_section_bytes(buf.data(), np.bias);
    }
    if (!np.types.empty()) {
      rec.type_refs_offset = typeref_cursor;
      for (const TensorPlan& p : np.types) {
        const QcgTensorRef r = ref_of(p);
        std::memcpy(buf.data() + typeref_cursor, &r, sizeof r);
        typeref_cursor += sizeof(QcgTensorRef);
        write_section_bytes(buf.data(), p);
      }
    }
    std::memcpy(buf.data() + nodes_offset + i * sizeof(QcgNodeRecord), &rec,
                sizeof rec);
  }
  std::memcpy(buf.data() + strtab_offset, strtab.data(), strtab.size());

  QcgHeader h;
  h.family = static_cast<std::uint32_t>(detect_family(ops));
  h.tier_bits = tier_bits;
  h.node_count = static_cast<std::uint32_t>(n);
  h.input_qi = g.input_format().qi;
  h.input_qf = g.input_format().qf;
  h.nodes_offset = nodes_offset;
  h.strtab_offset = strtab_offset;
  h.strtab_size = strtab.size();
  h.blob_offset = blob_offset;
  h.blob_size = file_size - blob_offset;
  h.file_size = file_size;
  h.weight_bits = g.weight_bits();
  h.in_channels = opts.in_channels;
  h.in_h = opts.in_h;
  h.in_w = opts.in_w;
  h.payload_crc32 = crc32(buf.data() + nodes_offset,
                          static_cast<std::size_t>(file_size - nodes_offset));
  std::memcpy(buf.data(), &h, sizeof h);
  h.header_crc32 = crc32(buf.data(), offsetof(QcgHeader, header_crc32));
  std::memcpy(buf.data(), &h, sizeof h);

  std::ofstream ofs(path, std::ios::binary | std::ios::trunc);
  QCAPS_CHECK_MSG(ofs.good(), "cannot open '" << path << "' for writing");
  ofs.write(reinterpret_cast<const char*>(buf.data()),
            static_cast<std::streamsize>(buf.size()));
  ofs.close();
  QCAPS_CHECK_MSG(ofs.good(), "short write to '" << path << "'");
}

// ---- load ------------------------------------------------------------------

namespace {

[[noreturn]] void corrupt(const std::string& path, const std::string& why) {
  throw CorruptError("corrupt .qcg '" + path + "': " + why);
}

QcgHeader validate_header(const MmapFile& file, const std::string& path) {
  if (file.size() < sizeof(QcgHeader))
    corrupt(path, "file smaller than the fixed header");
  QcgHeader h;
  std::memcpy(&h, file.data(), sizeof h);
  if (h.magic != kQcgMagic) {
    const std::uint32_t swapped = ((h.magic & 0xFFu) << 24) |
                                  ((h.magic & 0xFF00u) << 8) |
                                  ((h.magic >> 8) & 0xFF00u) |
                                  (h.magic >> 24);
    if (swapped == kQcgMagic)
      throw ArchError("'" + path +
                      "' was written by an opposite-endian host");
    throw BadMagicError("'" + path + "' is not a .qcg file (bad magic)");
  }
  const std::uint32_t stored_crc = h.header_crc32;
  const std::uint32_t computed =
      crc32(file.data(), offsetof(QcgHeader, header_crc32));
  if (stored_crc != computed) corrupt(path, "header checksum mismatch");
  if (h.version != kQcgVersion)
    throw VersionError("'" + path + "' has format version " +
                       std::to_string(h.version) + "; this build reads " +
                       std::to_string(kQcgVersion));
  if (h.endian_tag != kQcgEndianTag)
    throw ArchError("'" + path + "' endian tag mismatch");
  if (h.raw_word_bytes != sizeof(std::int64_t))
    throw ArchError("'" + path + "' raw word width " +
                    std::to_string(h.raw_word_bytes) + " != " +
                    std::to_string(sizeof(std::int64_t)));
  if (h.file_size != file.size())
    corrupt(path, "recorded size " + std::to_string(h.file_size) +
                      " != actual " + std::to_string(file.size()));
  if (h.node_count == 0 || h.node_count >= kMaxNodes)
    corrupt(path, "implausible node count");
  if (h.nodes_offset < sizeof(QcgHeader) ||
      h.nodes_offset + std::uint64_t{h.node_count} * sizeof(QcgNodeRecord) >
          h.strtab_offset ||
      h.strtab_offset + h.strtab_size > h.blob_offset ||
      h.blob_offset + h.blob_size > h.file_size)
    corrupt(path, "section offsets out of bounds");
  return h;
}

struct TensorReader {
  const MmapFile* file;
  const QcgHeader* h;
  const std::string* path;
  std::shared_ptr<const MmapFile> owner;

  void check_section(std::uint64_t off, std::uint64_t bytes,
                     std::uint64_t align) const {
    if (off < h->blob_offset || off + bytes > h->blob_offset + h->blob_size ||
        off % align != 0)
      corrupt(*path, "tensor section out of bounds");
  }

  /// Rebuild one tensor and, when `cache` is given (weights), its
  /// packed-operand cache viewing the mapping. Biases (cache == nullptr)
  /// must carry raw values; weights may be hollow only when every packed
  /// container the runtime could pick is present. `required` rejects an
  /// absent tensor (per-type vote weights are never optional).
  QTensor read(const QcgTensorRef& r, bool required,
               QGemmOperandCache* cache) const {
    QTensor t;
    if (r.present == 0) {
      if (required) corrupt(*path, "required tensor missing from node");
      return t;
    }
    if (r.ndim > 4) corrupt(*path, "tensor with more than 4 dims");
    std::int64_t numel = r.ndim == 0 ? 0 : 1;
    for (std::uint32_t d = 0; d < r.ndim; ++d) {
      if (r.dims[d] <= 0) corrupt(*path, "non-positive tensor dim");
      numel *= r.dims[d];
    }
    if (numel != r.numel) corrupt(*path, "tensor numel/dims mismatch");
    t.fmt = fixed::FixedFormat(r.qi, r.qf);
    if (!t.fmt.valid()) corrupt(*path, "invalid tensor format");
    if (r.max_abs < 0 ||
        r.max_abs > (std::int64_t{1} << (t.fmt.wordlength() - 1)))
      corrupt(*path, "tensor max_abs outside its format range");
    t.shape.assign(r.dims, r.dims + r.ndim);

    const std::uint64_t n = static_cast<std::uint64_t>(numel);
    if (r.i64_offset != 0) {
      check_section(r.i64_offset, 8 * n, alignof(std::int64_t));
      t.raw.resize(static_cast<std::size_t>(numel));
      std::memcpy(t.raw.data(), file->data() + r.i64_offset, 8 * n);
    }
    if (cache != nullptr) {
      cache->max_abs = r.max_abs;
      if (r.i8_offset != 0) {
        check_section(r.i8_offset, n, 1);
        cache->i8_view =
            reinterpret_cast<const std::int8_t*>(file->data() + r.i8_offset);
      }
      if (r.i16_offset != 0) {
        check_section(r.i16_offset, 2 * n, alignof(std::int16_t));
        cache->i16_view =
            reinterpret_cast<const std::int16_t*>(file->data() +
                                                  r.i16_offset);
      }
      cache->owner = owner;
      // A hollow weight is only executable when every container the runtime
      // tier choice could pick exists in the image.
      if (r.i64_offset == 0) {
        if (r.max_abs > 32767 || r.i16_offset == 0 ||
            (r.max_abs <= 127 && r.i8_offset == 0))
          corrupt(*path, "hollow weight missing a packed container");
      }
    } else if (r.i64_offset == 0) {
      corrupt(*path, "bias tensor missing its raw values");
    }
    return t;
  }
};

// The node fields and weight shapes forward() divides by or indexes with,
// checked once the node's tensors are read: nullptr when the node can run,
// otherwise the defect.
const char* bad_node(const QuantizedOp& op) {
  const QOpKind kind = op.kind;
  const bool weighted = kind == QOpKind::kConv2d ||
                        kind == QOpKind::kPrimaryCaps ||
                        kind == QOpKind::kConvCaps ||
                        kind == QOpKind::kVoteTransform;
  const bool conv = (weighted && kind != QOpKind::kVoteTransform) ||
                    kind == QOpKind::kConvCaps3d;
  if (conv && (op.stride < 1 || op.pad < 0))
    return "convolution stride < 1 or pad < 0";
  if ((kind == QOpKind::kPrimaryCaps || kind == QOpKind::kFlatten) &&
      op.caps_dim < 1)
    return "capsule dim < 1";
  if ((kind == QOpKind::kConvCaps || kind == QOpKind::kConvCaps3d) &&
      op.out_dim < 1)
    return "output capsule dim < 1";
  // A pad as wide as the kernel only adds outputs that read no input, and
  // the bound keeps the executor's padded extents (h + 2 * pad) in range.
  const char* const wide_pad = "convolution pad as wide as its kernel";
  if (weighted) {
    if (op.weight.shape.size() != 4) return "missing or non-4-D weight";
    if (conv && op.pad >= op.weight.shape[2]) return wide_pad;
    if (!op.bias.shape.empty() &&
        op.bias.shape != tensor::Shape{op.weight.shape[0]})
      return "bias length differs from the filter count";
  }
  // filters == types * dim, without multiplying two fields from the file
  // (dim >= 1 was checked above).
  const auto splits = [](std::int64_t filters, std::int64_t types,
                         std::int64_t dim) {
    return filters % dim == 0 && filters / dim == types;
  };
  if (kind == QOpKind::kPrimaryCaps &&
      !splits(op.weight.shape[0], op.caps_types, op.caps_dim))
    return "filters do not split into the node's capsules";
  if (kind == QOpKind::kConvCaps3d) {
    if (op.in_types < 1 ||
        op.type_weights.size() != static_cast<std::size_t>(op.in_types))
      return "per-type weight count differs from the input types";
    const QTensor& first = op.type_weights.front();
    for (const QTensor& w : op.type_weights) {
      if (w.shape.size() != 4 || first.shape.size() != 4 ||
          !splits(w.shape[0], op.out_types, op.out_dim) ||
          w.shape[1] != op.in_dim || w.shape[2] != first.shape[2] ||
          w.shape[3] != first.shape[2])
        return "per-type vote weight shape differs from the node's capsules";
      // The grouped vote convolution reads every type on one weight grid.
      if (!(w.fmt == first.fmt)) return "per-type vote weights differ in format";
    }
    if (op.pad >= first.shape[2]) return wide_pad;
  }
  return nullptr;
}

std::string read_name(const MmapFile& file, const QcgHeader& h,
                      std::uint32_t off, const std::string& path) {
  if (off >= h.strtab_size) corrupt(path, "name offset past the string table");
  const char* base =
      reinterpret_cast<const char*>(file.data() + h.strtab_offset);
  const void* nul = std::memchr(base + off, '\0', h.strtab_size - off);
  if (nul == nullptr) corrupt(path, "unterminated name in the string table");
  return std::string(base + off);
}

}  // namespace

qengine::QuantizedGraph load_graph(const std::string& path,
                                   const LoadOptions& opts) {
  QCAPS_FAILPOINT("io.qcg.open");
  auto file = std::make_shared<MmapFile>(MmapFile::open(path, opts.use_mmap));
  const QcgHeader h = validate_header(*file, path);
  QCAPS_FAILPOINT("io.qcg.validate");
  if (opts.verify_checksum) {
    const std::uint32_t crc =
        crc32(file->data() + h.nodes_offset,
              static_cast<std::size_t>(h.file_size - h.nodes_offset));
    if (crc != h.payload_crc32) corrupt(path, "payload checksum mismatch");
  }

  TensorReader reader{file.get(), &h, &path, file};
  const fixed::FixedFormat input_fmt(h.input_qi, h.input_qf);
  if (!input_fmt.valid()) corrupt(path, "invalid input format");
  std::vector<QuantizedOp> ops;
  ops.reserve(h.node_count);
  for (std::uint32_t i = 0; i < h.node_count; ++i) {
    QcgNodeRecord rec;
    std::memcpy(&rec, file->data() + h.nodes_offset + i * sizeof rec,
                sizeof rec);
    if (rec.kind > static_cast<std::uint32_t>(QOpKind::kFlatten))
      corrupt(path, "unknown op kind " + std::to_string(rec.kind));
    QuantizedOp op;
    op.kind = static_cast<QOpKind>(rec.kind);
    if (rec.input < -1 || rec.input >= static_cast<std::int32_t>(i) ||
        rec.input2 < -1 || rec.input2 >= static_cast<std::int32_t>(i))
      corrupt(path, "node consumes a value no earlier node produces");
    op.input = rec.input;
    op.input2 = rec.input2;
    op.source = read_name(*file, h, rec.name_offset, path);
    op.stride = rec.stride;
    op.pad = rec.pad;
    op.out_fmt = fixed::FixedFormat(rec.out_qi, rec.out_qf);
    op.mid_fmt = fixed::FixedFormat(rec.mid_qi, rec.mid_qf);
    op.dr_fmt = fixed::FixedFormat(rec.dr_qi, rec.dr_qf);
    if (!op.out_fmt.valid() || !op.mid_fmt.valid() || !op.dr_fmt.valid())
      corrupt(path, "invalid node format");
    op.iterations = rec.iterations;
    op.caps_types = rec.caps_types;
    op.caps_dim = rec.caps_dim;
    op.in_types = rec.in_types;
    op.in_dim = rec.in_dim;
    op.out_types = rec.out_types;
    op.out_dim = rec.out_dim;

    op.weight = reader.read(rec.weight, /*required=*/false, &op.wcache);
    op.bias = reader.read(rec.bias, /*required=*/false, nullptr);

    if (rec.type_count != 0) {
      if (rec.type_count >= kMaxTypeRefs)
        corrupt(path, "implausible per-type weight count");
      const std::uint64_t bytes =
          std::uint64_t{rec.type_count} * sizeof(QcgTensorRef);
      if (rec.type_refs_offset < h.nodes_offset ||
          rec.type_refs_offset + bytes > h.strtab_offset)
        corrupt(path, "type-ref array out of bounds");
      for (std::uint32_t t = 0; t < rec.type_count; ++t) {
        QcgTensorRef tr;
        std::memcpy(&tr,
                    file->data() + rec.type_refs_offset +
                        t * sizeof(QcgTensorRef),
                    sizeof tr);
        QGemmOperandCache cache;
        QTensor wt = reader.read(tr, /*required=*/true, &cache);
        op.type_caches.push_back(std::move(cache));
        op.type_weights.push_back(std::move(wt));
      }
    }
    if (const char* why = bad_node(op))
      corrupt(path, "node " + std::to_string(i) + ": " + why);
    // The executor keeps a layout node's value in its input's format, so
    // every value's format (the hollow rule's input) is its producer's
    // out_fmt.
    const fixed::FixedFormat x_fmt =
        op.input < 0 ? input_fmt
                     : ops[static_cast<std::size_t>(op.input)].out_fmt;
    if ((op.kind == QOpKind::kRelu || op.kind == QOpKind::kFlatten) &&
        !(op.out_fmt == x_fmt))
      corrupt(path, "node " + std::to_string(i) +
                        ": layout node changes its value's format");
    const auto check_hollow = [&](const QTensor& w, std::int64_t w_max_abs) {
      const bool hollow = w.raw.empty() && !w.shape.empty();
      if (hollow && (w.shape.size() != 4 ||
                     !hollow_ok(op, w, w_max_abs, x_fmt)))
        corrupt(path, "node " + std::to_string(i) +
                          ": hollow weight whose formats leave the packed "
                          "path");
    };
    check_hollow(op.weight, op.wcache.max_abs);
    std::int64_t group_max = 0;
    for (const QGemmOperandCache& c : op.type_caches)
      group_max = std::max(group_max, c.max_abs);
    for (const QTensor& wt : op.type_weights) check_hollow(wt, group_max);
    ops.push_back(std::move(op));
  }

  qengine::QuantizedGraph g = qengine::QuantizedGraph::from_ops(
      std::move(ops), input_fmt, opts.track_saturation);
  // The on-disk op list is always the unfused graph (the fusion pass never
  // touches serialization); re-derive the in-memory annotations here, same
  // as compile() does.
  g.fuse();
  return g;
}

QcgInfo inspect(const std::string& path) {
  QCAPS_FAILPOINT("io.qcg.open");
  const MmapFile file = MmapFile::open(path, /*prefer_mmap=*/false);
  const QcgHeader h = validate_header(file, path);
  QcgInfo info;
  info.version = h.version;
  info.family = static_cast<QcgFamily>(h.family);
  info.tier_bits = h.tier_bits;
  info.node_count = h.node_count;
  info.input_fmt = fixed::FixedFormat(h.input_qi, h.input_qf);
  info.weight_bits = h.weight_bits;
  info.in_channels = h.in_channels;
  info.in_h = h.in_h;
  info.in_w = h.in_w;
  info.file_size = h.file_size;
  return info;
}

}  // namespace qcaps::io
