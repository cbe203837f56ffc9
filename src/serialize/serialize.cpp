#include "src/serialize/serialize.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/common/rng.hpp"  // fnv1a64
#include "src/obs/trace.hpp"
#include "src/rt/memory_planner.hpp"

// MappedPackage's zero-copy backend. The non-POSIX fallback reads the
// file into an owned buffer — consts still borrow (from the buffer),
// only the page-cache sharing is lost.
#if defined(__unix__) || defined(__APPLE__)
#define MICRONAS_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

// Writer provenance stamped into the META section. The definition is
// scoped to this translation unit (CMake set_source_files_properties)
// so a new commit only rebuilds the serializer, not the library.
#ifndef MICRONAS_GIT_SHA
#define MICRONAS_GIT_SHA "unknown"
#endif

namespace micronas::serialize {

namespace {

constexpr char kMagic[8] = {'M', 'N', 'A', 'S', 'P', 'K', 'G', '\0'};
constexpr std::uint32_t kEndianTag = 0x01020304;
// magic | version | endian | file_size | section_count | reserved
// | header checksum (over the header and the section table).
constexpr std::size_t kChecksumOffset = 8 + 4 + 4 + 8 + 4 + 4;
constexpr std::size_t kHeaderBytes = kChecksumOffset + 8;
constexpr std::size_t kTableEntryBytes = 4 + 4 + 8 + 8 + 8;
constexpr std::uint32_t kMaxSections = 64;

// xxHash64's primes (all odd, so multiplying by one is a bijection).
constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

std::uint64_t load_le64(const std::byte* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    std::uint64_t swapped = 0;
    for (int i = 0; i < 8; ++i) swapped = (swapped << 8) | ((v >> (8 * i)) & 0xFF);
    v = swapped;
  }
  return v;
}

/// One lane step: a bijection of the lane for a fixed word and of the
/// word for a fixed lane.
std::uint64_t lane_round(std::uint64_t lane, std::uint64_t word) {
  return std::rotl(lane + word * kPrime2, 31) * kPrime1;
}

/// package_checksum over the header and section table (`head`) with
/// the checksum field read as zero, so the field can hold the value.
std::uint64_t header_checksum(std::span<const std::byte> head) {
  std::array<std::byte, kHeaderBytes + kMaxSections * kTableEntryBytes> copy{};
  if (head.size() < kHeaderBytes || head.size() > copy.size()) {
    throw SerializeError("header: section table size out of range");
  }
  std::copy(head.begin(), head.end(), copy.begin());
  std::fill_n(copy.begin() + kChecksumOffset, 8, std::byte{0});
  return package_checksum(std::span<const std::byte>(copy).first(head.size()));
}

// Section four-character codes, little-endian packed.
constexpr std::uint32_t fourcc(const char (&s)[5]) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(s[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[2])) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[3])) << 24;
}
constexpr std::uint32_t kTagMeta = fourcc("META");
constexpr std::uint32_t kTagGraph = fourcc("GRPH");
constexpr std::uint32_t kTagConst = fourcc("CNST");
constexpr std::uint32_t kTagPlan = fourcc("PLAN");
constexpr std::uint32_t kTagReport = fourcc("RPRT");
constexpr std::uint32_t kTagPack = fourcc("PACK");

std::string tag_name(std::uint32_t tag) {
  std::string s(4, '?');
  for (int i = 0; i < 4; ++i) {
    const char c = static_cast<char>((tag >> (8 * i)) & 0xFF);
    s[static_cast<std::size_t>(i)] = (c >= 32 && c < 127) ? c : '?';
  }
  return s;
}

// Sanity caps for deserialized dimensions: a corrupted count must be
// rejected before it can drive a multi-gigabyte allocation or an
// integer-overflowed bytes() computation.
constexpr int kMaxDim = 1 << 24;
constexpr std::uint64_t kMaxNumel = 1ULL << 31;

// ------------------------------------------------------------- writers

void write_affine(ByteWriter& w, const AffineParams& p) {
  w.f64(p.scale);
  w.i32(p.zero_point);
}

void write_type(ByteWriter& w, const ir::TensorType& t) {
  w.u8(static_cast<std::uint8_t>(t.shape.rank()));
  for (int d = 0; d < t.shape.rank(); ++d) w.i32(t.shape[d]);
  w.u8(static_cast<std::uint8_t>(t.dtype));
}

/// GRPH node records; const payloads are appended to `consts`, each at
/// a kConstAlignment boundary relative to the CNST section start (the
/// section itself lands on a 64-byte file offset, so payloads are
/// mmap-aligned in the file too).
void write_graph(ByteWriter& w, ByteWriter& consts, const ir::Graph& graph) {
  w.u32(static_cast<std::uint32_t>(graph.size()));
  w.i32(graph.input());
  w.i32(graph.output());
  for (const ir::Node& node : graph.nodes()) {
    w.i32(node.id);
    w.u8(static_cast<std::uint8_t>(node.op));
    w.str(node.name);
    w.u32(static_cast<std::uint32_t>(node.inputs.size()));
    for (int in : node.inputs) w.i32(in);
    write_type(w, node.type);

    w.i32(node.conv.kernel);
    w.i32(node.conv.stride);
    w.i32(node.conv.pad);
    w.u8(node.conv.fused_relu ? 1 : 0);
    w.f64(node.conv.bn_eps);

    write_affine(w, node.quant.in_q);
    write_affine(w, node.quant.in2_q);
    write_affine(w, node.quant.out_q);
    w.u32(static_cast<std::uint32_t>(node.quant.mantissa.size()));
    for (std::int32_t m : node.quant.mantissa) w.i32(m);
    w.u32(static_cast<std::uint32_t>(node.quant.shift.size()));
    for (int s : node.quant.shift) w.i32(s);
    w.i32(node.quant.mantissa2);
    w.i32(node.quant.shift2);

    w.u8(node.is_const() ? 1 : 0);
    if (!node.is_const()) continue;
    consts.align(kConstAlignment);
    const std::uint64_t offset = consts.size();
    switch (node.type.dtype) {
      case ir::DType::kF32:
        for (float v : node.f32_data.data()) consts.f32(v);
        break;
      case ir::DType::kI8:
        consts.raw(node.i8_data.data(), node.i8_data.size());
        break;
      case ir::DType::kI32:
        for (std::int32_t v : node.i32_data) consts.i32(v);
        break;
    }
    w.u64(offset);
    w.u64(consts.size() - offset);
  }
}

void write_plan(ByteWriter& w, const rt::MemoryPlan& plan) {
  w.i64(plan.arena_bytes);
  w.i64(plan.naive_bytes);
  w.u32(static_cast<std::uint32_t>(plan.buffers.size()));
  for (const rt::BufferPlacement& b : plan.buffers) {
    w.i32(b.node_id);
    w.i64(b.offset);
    w.i64(b.size);
    w.i32(b.def_step);
    w.i32(b.last_use_step);
  }
  w.u32(static_cast<std::uint32_t>(plan.schedule.size()));
  for (int id : plan.schedule) w.i32(id);
  // In-place alias and row-strip records, appended after the legacy
  // layout so pre-alias readers (which stop at the schedule) would
  // reject only the trailing bytes, and new readers accept old
  // packages by treating the absent tail as "no aliases, no strips".
  std::uint32_t alias_count = 0;
  for (const rt::BufferPlacement& b : plan.buffers) alias_count += b.alias_of >= 0 ? 1 : 0;
  w.u32(alias_count);
  for (const rt::BufferPlacement& b : plan.buffers) {
    if (b.alias_of < 0) continue;
    w.i32(b.node_id);
    w.i32(b.alias_of);
  }
  w.u32(static_cast<std::uint32_t>(plan.strips.size()));
  for (const rt::StripStream& s : plan.strips) {
    w.i32(s.node_id);
    w.i32(s.strip_h);
  }
  w.i64(plan.stream_scratch_bytes);
}

void write_report(ByteWriter& w, const compile::CompileReport& report) {
  w.str(report.arch);
  w.i32(report.lowered_nodes);
  w.i32(report.final_nodes);
  w.i32(report.lowered_executed);
  w.i32(report.final_executed);
  w.u32(static_cast<std::uint32_t>(report.passes.size()));
  for (const compile::PassStat& p : report.passes) {
    w.str(p.name);
    w.u8(p.changed ? 1 : 0);
    w.i32(p.nodes_before);
    w.i32(p.nodes_after);
    w.f64(p.wall_ms);
  }
  w.i64(report.arena_bytes);
  w.i64(report.naive_arena_bytes);
  w.i64(report.const_bytes);
  w.i64(report.model_peak_sram_bytes);
  w.f64(report.arena_to_model_ratio);
  w.f64(report.predicted_latency_ms);
  w.f64(report.executed_latency_ms);
  w.str(report.memory_plan);
}

/// PACK: the kernel weight-layout table. Each entry names a qconv /
/// qlinear node, its layout tag and geometry, and where its packed
/// blob lives — the blobs themselves are appended to CNST (64-byte
/// aligned like every const) so a flash/mmap deployment can run the
/// blocked GEMM straight off the file image with zero repacking.
/// Entries are written in node-id order, so re-saving a loaded model
/// reproduces the section byte-identically. Returns false (emit no
/// section) when the model carries no packed weights — a float-only
/// model's package is unchanged. The section is additive: readers that
/// don't know the PACK tag ignore it, so the format version stays put.
bool write_pack(ByteWriter& w, ByteWriter& consts, const rt::PackedWeightSet& packed) {
  std::uint32_t count = 0;
  for (const rt::PackedWeights& pw : packed.by_node) {
    if (!pw.empty()) ++count;
  }
  if (count == 0) return false;
  w.u32(count);
  for (std::size_t id = 0; id < packed.by_node.size(); ++id) {
    const rt::PackedWeights& pw = packed.by_node[id];
    if (pw.empty()) continue;
    consts.align(kConstAlignment);
    const std::uint64_t offset = consts.size();
    consts.raw(pw.data.data(), pw.data.size() * sizeof(std::int16_t));
    w.i32(static_cast<std::int32_t>(id));
    w.u8(static_cast<std::uint8_t>(pw.layout));
    w.i32(pw.cout);
    w.i32(pw.patch);
    w.u64(offset);
    w.u64(consts.size() - offset);
  }
  return true;
}

void write_meta(ByteWriter& w, const compile::CompiledModel& model) {
  w.str("micronas-serialize");
  w.u32(kFormatVersion);
  w.str(MICRONAS_GIT_SHA);
  w.str(model.report.arch);
}

// ------------------------------------------------------------- readers

AffineParams read_affine(ByteReader& r) {
  AffineParams p;
  p.scale = r.f64();
  p.zero_point = r.i32();
  return p;
}

ir::TensorType read_type(ByteReader& r) {
  const int rank = r.u8();
  if (rank < 1 || rank > 4) {
    throw SerializeError("GRPH: tensor rank " + std::to_string(rank) + " out of range");
  }
  std::vector<int> dims(static_cast<std::size_t>(rank));
  std::uint64_t numel = 1;
  for (int d = 0; d < rank; ++d) {
    const std::int32_t v = r.i32();
    if (v < 1 || v > kMaxDim) {
      throw SerializeError("GRPH: tensor dim " + std::to_string(v) + " out of range");
    }
    dims[static_cast<std::size_t>(d)] = v;
    numel *= static_cast<std::uint64_t>(v);
    if (numel > kMaxNumel) throw SerializeError("GRPH: tensor numel exceeds cap");
  }
  const int dtype = r.u8();
  if (dtype < 0 || dtype > 2) {
    throw SerializeError("GRPH: dtype byte " + std::to_string(dtype) + " out of range");
  }
  return ir::TensorType{Shape(std::move(dims)), static_cast<ir::DType>(dtype)};
}

/// zero_copy: leave int8 const payloads as ConstView::borrowed
/// pointers into `consts` instead of copying — only valid when the
/// caller keeps the backing storage alive past the returned Graph
/// (MappedPackage). i8 is endian-neutral so borrowing is always safe;
/// f32/i32 payloads are decoded little-endian element-wise as before
/// (they are a few KB of scales/biases — copying them costs nothing,
/// and Tensor owns its storage anyway).
ir::Graph read_graph(ByteReader& r, std::span<const std::byte> consts, bool zero_copy = false) {
  const std::size_t node_count = r.count(16);
  const int input = r.i32();
  const int output = r.i32();
  std::vector<ir::Node> nodes;
  nodes.reserve(node_count);
  for (std::size_t i = 0; i < node_count; ++i) {
    ir::Node node;
    node.id = r.i32();
    const int op = r.u8();
    if (op < 0 || op >= ir::kOpKindCount) {
      throw SerializeError("GRPH: op byte " + std::to_string(op) + " out of range");
    }
    node.op = static_cast<ir::OpKind>(op);
    node.name = r.str();
    const std::size_t num_inputs = r.count(4);
    node.inputs.reserve(num_inputs);
    for (std::size_t k = 0; k < num_inputs; ++k) node.inputs.push_back(r.i32());
    node.type = read_type(r);

    node.conv.kernel = r.i32();
    node.conv.stride = r.i32();
    node.conv.pad = r.i32();
    // These attrs feed ops::conv_out_size (`in + 2*pad - kernel`, then
    // `/ stride`) during Graph::from_nodes type inference, which cannot
    // defend itself against stride 0 (SIGFPE) or pad near INT_MAX
    // (signed overflow), and pool ops have no weight shape to cross-
    // check them against — reject hostile values here, where the
    // failure is still a catchable SerializeError. Ops that ignore the
    // attrs keep whatever the writer recorded (nothing computes with
    // them), preserving bit-exact re-serialization.
    const bool uses_conv_attrs =
        node.op == ir::OpKind::kConv2d || node.op == ir::OpKind::kQConv2d ||
        node.op == ir::OpKind::kAvgPool || node.op == ir::OpKind::kQAvgPool;
    if (uses_conv_attrs &&
        (node.conv.kernel < 1 || node.conv.kernel > kMaxDim || node.conv.stride < 1 ||
         node.conv.stride > kMaxDim || node.conv.pad < 0 || node.conv.pad > kMaxDim)) {
      throw SerializeError("GRPH: conv kernel/stride/pad out of range on node " +
                           std::to_string(i));
    }
    node.conv.fused_relu = r.u8() != 0;
    node.conv.bn_eps = r.f64();

    node.quant.in_q = read_affine(r);
    node.quant.in2_q = read_affine(r);
    node.quant.out_q = read_affine(r);
    const std::size_t num_mantissa = r.count(4);
    node.quant.mantissa.reserve(num_mantissa);
    for (std::size_t k = 0; k < num_mantissa; ++k) node.quant.mantissa.push_back(r.i32());
    const std::size_t num_shift = r.count(4);
    node.quant.shift.reserve(num_shift);
    for (std::size_t k = 0; k < num_shift; ++k) node.quant.shift.push_back(r.i32());
    node.quant.mantissa2 = r.i32();
    node.quant.shift2 = r.i32();

    const int has_payload = r.u8();
    if (has_payload != (node.is_const() ? 1 : 0)) {
      throw SerializeError("GRPH: payload flag disagrees with op on node " + std::to_string(i));
    }
    if (node.is_const()) {
      const std::uint64_t offset = r.u64();
      const std::uint64_t size = r.u64();
      if (offset > consts.size() || size > consts.size() - offset) {
        throw SerializeError("GRPH: const payload of node " + std::to_string(i) +
                             " escapes the CNST section");
      }
      if (static_cast<long long>(size) != node.type.bytes()) {
        throw SerializeError("GRPH: const payload size disagrees with type on node " +
                             std::to_string(i));
      }
      ByteReader payload(consts.subspan(offset, size), "CNST");
      const std::size_t numel = node.type.shape.numel();
      switch (node.type.dtype) {
        case ir::DType::kF32: {
          std::vector<float> values(numel);
          for (float& v : values) v = payload.f32();
          node.f32_data = Tensor::from_vector(node.type.shape, std::move(values));
          break;
        }
        case ir::DType::kI8: {
          if (zero_copy) {
            node.i8_data = ConstView<std::int8_t>::borrowed(
                reinterpret_cast<const std::int8_t*>(consts.data() + offset), numel);
          } else {
            std::vector<std::int8_t> values(numel);
            payload.raw(values.data(), numel);
            node.i8_data = std::move(values);
          }
          break;
        }
        case ir::DType::kI32: {
          node.i32_data.resize(numel);
          for (std::int32_t& v : node.i32_data) v = payload.i32();
          break;
        }
      }
    }
    nodes.push_back(std::move(node));
  }
  if (!r.exhausted()) throw SerializeError("GRPH: trailing bytes after node records");
  try {
    return ir::Graph::from_nodes(std::move(nodes), input, output);
  } catch (const std::exception& e) {
    throw SerializeError(std::string("GRPH: graph validation failed: ") + e.what());
  }
}

rt::MemoryPlan read_plan(ByteReader& r) {
  rt::MemoryPlan plan;
  plan.arena_bytes = r.i64();
  plan.naive_bytes = r.i64();
  const std::size_t num_buffers = r.count(28);
  plan.buffers.reserve(num_buffers);
  for (std::size_t i = 0; i < num_buffers; ++i) {
    rt::BufferPlacement b;
    b.node_id = r.i32();
    b.offset = r.i64();
    b.size = r.i64();
    b.def_step = r.i32();
    b.last_use_step = r.i32();
    plan.buffers.push_back(b);
  }
  const std::size_t num_schedule = r.count(4);
  plan.schedule.reserve(num_schedule);
  for (std::size_t i = 0; i < num_schedule; ++i) plan.schedule.push_back(r.i32());
  // Legacy packages end here: no aliases, no strips, no stream scratch.
  // Anything check_plan-relevant about the tail (alias eligibility,
  // strip geometry, scratch accounting) is validated by the loader's
  // check_plan call, not trusted from the file.
  if (!r.exhausted()) {
    const std::size_t num_aliases = r.count(8);
    for (std::size_t i = 0; i < num_aliases; ++i) {
      const int node_id = r.i32();
      const int alias_of = r.i32();
      bool found = false;
      for (rt::BufferPlacement& b : plan.buffers) {
        if (b.node_id != node_id) continue;
        b.alias_of = alias_of;
        found = true;
        break;
      }
      if (!found) throw SerializeError("PLAN: alias record for unplaced node");
    }
    const std::size_t num_strips = r.count(8);
    plan.strips.reserve(num_strips);
    for (std::size_t i = 0; i < num_strips; ++i) {
      rt::StripStream s;
      s.node_id = r.i32();
      s.strip_h = r.i32();
      plan.strips.push_back(s);
    }
    plan.stream_scratch_bytes = r.i64();
  }
  if (!r.exhausted()) throw SerializeError("PLAN: trailing bytes after plan records");
  return plan;
}

compile::CompileReport read_report(ByteReader& r) {
  compile::CompileReport report;
  report.arch = r.str();
  report.lowered_nodes = r.i32();
  report.final_nodes = r.i32();
  report.lowered_executed = r.i32();
  report.final_executed = r.i32();
  const std::size_t num_passes = r.count(17);
  report.passes.reserve(num_passes);
  for (std::size_t i = 0; i < num_passes; ++i) {
    compile::PassStat p;
    p.name = r.str();
    p.changed = r.u8() != 0;
    p.nodes_before = r.i32();
    p.nodes_after = r.i32();
    p.wall_ms = r.f64();
    report.passes.push_back(std::move(p));
  }
  report.arena_bytes = r.i64();
  report.naive_arena_bytes = r.i64();
  report.const_bytes = r.i64();
  report.model_peak_sram_bytes = r.i64();
  report.arena_to_model_ratio = r.f64();
  report.predicted_latency_ms = r.f64();
  report.executed_latency_ms = r.f64();
  report.memory_plan = r.str();
  if (!r.exhausted()) throw SerializeError("RPRT: trailing bytes after report");
  return report;
}

/// Geometry of a node's weight tensor (input 1) — what PACK entries
/// and the load-time repack fallback validate/pack against.
void weight_geometry(const ir::Graph& graph, const ir::Node& node, int* cout, int* patch) {
  const ir::Node& w = graph.node(node.inputs[1]);
  *cout = w.type.shape[0];
  *patch = static_cast<int>(w.type.shape.numel()) / *cout;
}

/// Structural validation only: layout byte known, geometry agrees with
/// the weight node, blob sized and in bounds. The blob *contents* are
/// covered by the CNST checksum like every const; verifying the
/// permutation against the canonical weights would cost exactly a
/// repack, which is the cost this section exists to avoid. An entry
/// with an unknown layout tag is skipped (a newer writer's layout),
/// and the caller repacks that node from the canonical weights.
rt::PackedWeightSet read_pack(ByteReader& r, std::span<const std::byte> consts,
                              const ir::Graph& graph, bool zero_copy = false) {
  rt::PackedWeightSet set;
  set.by_node.resize(static_cast<std::size_t>(graph.size()));
  const std::size_t count = r.count(29);  // i32 + u8 + 2*i32 + 2*u64 per entry
  for (std::size_t i = 0; i < count; ++i) {
    const int node_id = r.i32();
    const int layout = r.u8();
    const int cout = r.i32();
    const int patch = r.i32();
    const std::uint64_t offset = r.u64();
    const std::uint64_t size = r.u64();
    if (node_id < 0 || node_id >= graph.size()) {
      throw SerializeError("PACK: entry " + std::to_string(i) + " node id out of range");
    }
    const ir::Node& node = graph.node(node_id);
    if (node.op != ir::OpKind::kQConv2d && node.op != ir::OpKind::kQLinear) {
      throw SerializeError("PACK: entry " + std::to_string(i) + " targets node %" +
                           std::to_string(node_id) + ", which is not a qconv/qlinear");
    }
    if (layout != static_cast<int>(rt::WeightLayout::kPackedDot16)) continue;
    int want_cout = 0;
    int want_patch = 0;
    weight_geometry(graph, node, &want_cout, &want_patch);
    if (cout != want_cout || patch != want_patch) {
      throw SerializeError("PACK: entry " + std::to_string(i) +
                           " geometry disagrees with the weight of node %" +
                           std::to_string(node_id));
    }
    rt::PackedWeights pw;
    pw.layout = rt::WeightLayout::kPackedDot16;
    pw.cout = cout;
    pw.patch = patch;
    if (size != static_cast<std::uint64_t>(pw.padded_patch()) * static_cast<std::uint64_t>(cout) *
                    sizeof(std::int16_t)) {
      throw SerializeError("PACK: entry " + std::to_string(i) + " blob size disagrees with " +
                           "its layout/geometry");
    }
    if (offset > consts.size() || size > consts.size() - offset) {
      throw SerializeError("PACK: blob of entry " + std::to_string(i) +
                           " escapes the CNST section");
    }
    if (!set.by_node[static_cast<std::size_t>(node_id)].empty()) {
      throw SerializeError("PACK: duplicate entry for node %" + std::to_string(node_id));
    }
    // The int16 panels are multi-byte little-endian data, so borrowing
    // them in place needs a little-endian host AND an int16-aligned
    // file offset (CNST blobs are 64B-aligned relative to file start
    // and mmap is page-aligned, so this holds for every mapped
    // package; the check keeps a hand-built misaligned span safe).
    const std::byte* blob = consts.data() + offset;
    const bool can_borrow = zero_copy && std::endian::native == std::endian::little &&
                            reinterpret_cast<std::uintptr_t>(blob) % alignof(std::int16_t) == 0;
    if (can_borrow) {
      pw.data = ConstView<std::int16_t>::borrowed(reinterpret_cast<const std::int16_t*>(blob),
                                                  static_cast<std::size_t>(size) /
                                                      sizeof(std::int16_t));
    } else {
      ByteReader payload(consts.subspan(offset, size), "CNST");
      std::vector<std::int16_t> panels(static_cast<std::size_t>(size) / sizeof(std::int16_t));
      payload.raw(panels.data(), static_cast<std::size_t>(size));
      pw.data = std::move(panels);
    }
    set.by_node[static_cast<std::size_t>(node_id)] = std::move(pw);
  }
  if (!r.exhausted()) throw SerializeError("PACK: trailing bytes after entries");
  return set;
}

// ---------------------------------------------------- header / sections

struct RawSection {
  std::uint32_t tag = 0;
  std::span<const std::byte> payload;
};

std::size_t align_file(std::size_t offset) {
  const std::size_t a = kConstAlignment;
  return (offset + a - 1) / a * a;
}

bool all_zero(std::span<const std::byte> bytes) {
  return std::all_of(bytes.begin(), bytes.end(), [](std::byte b) { return b == std::byte{0}; });
}

/// Parse header + section table and verify every file byte once: the
/// header checksum over header and table, each section's checksum over
/// its payload, and zero padding everywhere else. Shared by
/// load_model_bytes and read_package_info.
std::vector<RawSection> read_sections(std::span<const std::byte> bytes,
                                      std::vector<SectionInfo>* info) {
  ByteReader r(bytes, "header");
  if (bytes.size() < kHeaderBytes) throw SerializeError("header: file too small");
  char magic[8];
  r.raw(magic, sizeof(magic));
  if (!std::equal(magic, magic + 8, kMagic)) throw SerializeError("header: bad magic");
  const std::uint32_t version = r.u32();
  if (version != kFormatVersion) {
    throw SerializeError("header: unsupported format version " + std::to_string(version) +
                         " (this reader understands " + std::to_string(kFormatVersion) + ")");
  }
  const std::uint32_t endian = r.u32();
  if (endian != kEndianTag) throw SerializeError("header: endian tag mismatch");
  const std::uint64_t file_size = r.u64();
  if (file_size != bytes.size()) {
    throw SerializeError("header: declared file size " + std::to_string(file_size) +
                         " != actual " + std::to_string(bytes.size()) + " (truncated?)");
  }
  const std::uint32_t section_count = r.u32();
  if (section_count == 0 || section_count > kMaxSections) {
    throw SerializeError("header: section count " + std::to_string(section_count) +
                         " out of range");
  }
  r.u32();  // reserved
  const std::uint64_t declared_checksum = r.u64();
  const std::size_t table_end = kHeaderBytes + section_count * kTableEntryBytes;
  if (table_end > bytes.size()) throw SerializeError("header: section table escapes the file");
  if (header_checksum(bytes.first(table_end)) != declared_checksum) {
    throw SerializeError("header: checksum mismatch (corrupted)");
  }

  // Sections ascend without overlapping: `end` is where the previous
  // one (or the table) stopped, and the gap up to the next is padding.
  std::uint64_t end = table_end;
  std::vector<RawSection> sections;
  sections.reserve(section_count);
  for (std::uint32_t i = 0; i < section_count; ++i) {
    const std::uint32_t tag = r.u32();
    r.u32();  // reserved
    const std::uint64_t offset = r.u64();
    const std::uint64_t size = r.u64();
    const std::uint64_t checksum = r.u64();
    if (offset > bytes.size() || size > bytes.size() - offset) {
      throw SerializeError("section " + tag_name(tag) + ": escapes the file");
    }
    if (offset < end) {
      throw SerializeError("section " + tag_name(tag) +
                           ": overlaps the table or the previous section");
    }
    if (!all_zero(bytes.subspan(end, offset - end))) {
      throw SerializeError("section " + tag_name(tag) + ": padding before it is not zero");
    }
    const auto payload = bytes.subspan(offset, size);
    if (package_checksum(payload) != checksum) {
      throw SerializeError("section " + tag_name(tag) + ": checksum mismatch (corrupted)");
    }
    end = offset + size;
    sections.push_back(RawSection{tag, payload});
    if (info) info->push_back(SectionInfo{tag_name(tag), offset, size, checksum});
  }
  if (!all_zero(bytes.subspan(end))) {
    throw SerializeError("trailing bytes after the last section are not zero");
  }
  return sections;
}

/// The unique section with `tag`, or nullptr when absent (optional
/// sections like PACK); duplicates fail closed.
const RawSection* find_section(const std::vector<RawSection>& sections, std::uint32_t tag) {
  const RawSection* found = nullptr;
  for (const RawSection& s : sections) {
    if (s.tag != tag) continue;
    if (found) throw SerializeError("section " + tag_name(tag) + ": duplicated");
    found = &s;
  }
  return found;
}

/// The unique section with `tag`; duplicates and absence fail closed.
std::span<const std::byte> require_section(const std::vector<RawSection>& sections,
                                           std::uint32_t tag) {
  const RawSection* found = find_section(sections, tag);
  if (!found) throw SerializeError("section " + tag_name(tag) + ": missing");
  return found->payload;
}

}  // namespace

std::uint64_t package_checksum(std::span<const std::byte> bytes) {
  const std::byte* p = bytes.data();
  const std::size_t n = bytes.size();
  // xxHash64's lane seeds for seed 0.
  std::uint64_t v0 = kPrime1 + kPrime2;
  std::uint64_t v1 = kPrime2;
  std::uint64_t v2 = 0;
  std::uint64_t v3 = 0 - kPrime1;
  std::size_t i = 0;
  for (; n - i >= 32; i += 32) {
    v0 = lane_round(v0, load_le64(p + i));
    v1 = lane_round(v1, load_le64(p + i + 8));
    v2 = lane_round(v2, load_le64(p + i + 16));
    v3 = lane_round(v3, load_le64(p + i + 24));
  }
  // With the other three lanes fixed, the sum is a bijection of each.
  std::uint64_t h = std::rotl(v0, 1) + std::rotl(v1, 7) + std::rotl(v2, 12) + std::rotl(v3, 18);
  for (; i < n; ++i) {
    h = std::rotl(h ^ (static_cast<std::uint64_t>(p[i]) * kPrime5), 11) * kPrime1;
  }
  h += n;
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

std::vector<std::byte> save_model_bytes(const compile::CompiledModel& model) {
  model.graph.validate();

  struct Pending {
    std::uint32_t tag;
    std::vector<std::byte> payload;
  };
  ByteWriter grph;
  ByteWriter cnst;
  write_graph(grph, cnst, model.graph);
  ByteWriter pack;
  const bool has_pack = write_pack(pack, cnst, model.packed);  // appends blobs to CNST
  ByteWriter meta;
  write_meta(meta, model);
  ByteWriter plan;
  write_plan(plan, model.plan);
  ByteWriter rprt;
  write_report(rprt, model.report);

  std::vector<Pending> sections;
  sections.push_back(Pending{kTagMeta, meta.take()});
  sections.push_back(Pending{kTagGraph, grph.take()});
  sections.push_back(Pending{kTagConst, cnst.take()});
  sections.push_back(Pending{kTagPlan, plan.take()});
  sections.push_back(Pending{kTagReport, rprt.take()});
  if (has_pack) sections.push_back(Pending{kTagPack, pack.take()});

  // Lay out: header, table, then sections each at a 64-byte file
  // offset (so CNST's internally aligned const blobs stay aligned
  // relative to the file start — mmap friendly).
  std::size_t offset = align_file(kHeaderBytes + sections.size() * kTableEntryBytes);
  std::vector<std::uint64_t> offsets;
  for (const Pending& s : sections) {
    offsets.push_back(offset);
    offset = align_file(offset + s.payload.size());
  }
  const std::uint64_t file_size =
      offsets.back() + sections.back().payload.size();  // no trailing pad

  ByteWriter out;
  out.raw(kMagic, sizeof(kMagic));
  out.u32(kFormatVersion);
  out.u32(kEndianTag);
  out.u64(file_size);
  out.u32(static_cast<std::uint32_t>(sections.size()));
  out.u32(0);
  out.u64(0);  // header checksum, patched below once the table is complete
  for (std::size_t i = 0; i < sections.size(); ++i) {
    out.u32(sections[i].tag);
    out.u32(0);
    out.u64(offsets[i]);
    out.u64(sections[i].payload.size());
    out.u64(package_checksum(sections[i].payload));
  }
  const std::size_t table_end = out.size();
  for (std::size_t i = 0; i < sections.size(); ++i) {
    while (out.size() < offsets[i]) out.u8(0);
    out.raw(sections[i].payload.data(), sections[i].payload.size());
  }
  std::vector<std::byte> image = out.take();
  const std::uint64_t checksum =
      header_checksum(std::span<const std::byte>(image).first(table_end));
  for (int i = 0; i < 8; ++i) {
    image[kChecksumOffset + static_cast<std::size_t>(i)] =
        static_cast<std::byte>((checksum >> (8 * i)) & 0xFF);
  }
  return image;
}

std::uint64_t save_model(const compile::CompiledModel& model, const std::string& path) {
  const std::vector<std::byte> bytes = save_model_bytes(model);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.good()) throw SerializeError("cannot open " + path + " for writing");
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out.good()) throw SerializeError("short write to " + path);
  return bytes.size();
}

namespace {

/// Shared loader core: load_model_bytes copies every payload
/// (self-contained model); MappedPackage::map passes zero_copy=true so
/// i8 consts and packed panels borrow from `bytes`, which the caller
/// then must keep alive. Validation is identical either way.
compile::CompiledModel load_model_image(std::span<const std::byte> bytes, bool zero_copy) {
  std::vector<RawSection> sections;
  {
    OBS_SPAN("serialize.verify");
    sections = read_sections(bytes, nullptr);
  }

  compile::CompiledModel model;
  {
    OBS_SPAN("serialize.graph");
    ByteReader r(require_section(sections, kTagGraph), "GRPH");
    model.graph = read_graph(r, require_section(sections, kTagConst), zero_copy);
  }
  {
    OBS_SPAN("serialize.plan");
    ByteReader r(require_section(sections, kTagPlan), "PLAN");
    model.plan = read_plan(r);
    // Plan/arena invariants re-derived from the loaded graph: a package
    // whose plan cannot be proven safe never reaches an Executor.
    try {
      rt::check_plan(model.graph, model.plan);
    } catch (const std::exception& e) {
      throw SerializeError(std::string("PLAN: ") + e.what());
    }
  }
  {
    ByteReader r(require_section(sections, kTagReport), "RPRT");
    model.report = read_report(r);
  }

  // Cross-section consistency: the report must describe this graph and
  // this plan, and META's arch must agree with the report's.
  if (model.report.final_nodes != model.graph.size() ||
      model.report.final_executed != model.graph.executed_node_count() ||
      model.report.const_bytes != model.graph.const_bytes() ||
      model.report.arena_bytes != model.plan.arena_bytes ||
      model.report.naive_arena_bytes != model.plan.naive_bytes) {
    throw SerializeError("RPRT: report disagrees with the loaded graph/plan");
  }
  {
    ByteReader r(require_section(sections, kTagMeta), "META");
    r.str();                             // producer
    r.u32();                             // format version (repeated for tools)
    r.str();                             // writer git sha
    const std::string arch = r.str();
    if (arch != model.report.arch) throw SerializeError("META: arch disagrees with RPRT");
    if (!r.exhausted()) throw SerializeError("META: trailing bytes after metadata");
  }

  // PACK: packed kernel weight layouts. Optional — packages written
  // before the section existed (or by a writer with layouts this
  // reader doesn't know) simply lack usable entries.
  OBS_SPAN("serialize.pack");
  if (const RawSection* pack = find_section(sections, kTagPack)) {
    ByteReader r(pack->payload, "PACK");
    model.packed = read_pack(r, require_section(sections, kTagConst), model.graph, zero_copy);
  } else {
    model.packed.by_node.resize(static_cast<std::size_t>(model.graph.size()));
  }
  // Legacy fallback: repack any packable node the package didn't
  // cover, so old packages still run the blocked kernels (they just
  // pay the one-time repack the PACK section exists to avoid). Gated
  // on the same predicate the pack-weights step uses, so a loaded
  // model re-saves byte-identically.
  for (const ir::Node& node : model.graph.nodes()) {
    if (!rt::node_wants_packed_weights(model.graph, node)) continue;
    rt::PackedWeights& slot = model.packed.by_node[static_cast<std::size_t>(node.id)];
    if (!slot.empty()) continue;
    int cout = 0;
    int patch = 0;
    weight_geometry(model.graph, node, &cout, &patch);
    slot = rt::pack_weights_dot16(model.graph.node(node.inputs[1]).i8_data.data(), cout, patch);
  }
  return model;
}

std::vector<std::byte> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.good()) throw SerializeError("cannot open " + path);
  // A directory opens, and tellg() then reports a huge size: only
  // regular files are packages.
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec)) {
    throw SerializeError(path + " is not a regular file");
  }
  const std::streamsize size = in.tellg();
  if (size < 0) throw SerializeError("cannot size " + path);
  in.seekg(0);
  std::vector<std::byte> bytes(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!in.good()) throw SerializeError("short read from " + path);
  return bytes;
}

}  // namespace

compile::CompiledModel load_model_bytes(std::span<const std::byte> bytes) {
  return load_model_image(bytes, /*zero_copy=*/false);
}

compile::CompiledModel load_model(const std::string& path) {
  const std::vector<std::byte> bytes = read_file(path);
  return load_model_bytes(bytes);
}

// ------------------------------------------------------ MappedPackage

std::shared_ptr<const MappedPackage> MappedPackage::map(const std::string& path) {
  // shared_ptr wraps the raw `new` because the ctor is private; if
  // validation below throws, the destructor runs and unmaps.
  std::shared_ptr<MappedPackage> pkg(new MappedPackage());
  pkg->path_ = path;
#ifdef MICRONAS_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw SerializeError("cannot open " + path);
  struct stat st{};
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode) || st.st_size <= 0) {
    ::close(fd);
    throw SerializeError(path + " is not a non-empty regular file");
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the file referenced
  if (addr == MAP_FAILED) throw SerializeError("mmap failed for " + path);
  pkg->map_addr_ = addr;
  pkg->base_ = static_cast<const std::byte*>(addr);
  pkg->size_ = size;
#else
  pkg->fallback_ = read_file(path);
  pkg->base_ = pkg->fallback_.data();
  pkg->size_ = pkg->fallback_.size();
#endif
  const std::span<const std::byte> bytes(pkg->base_, static_cast<std::size_t>(pkg->size_));
  // Full fail-closed validation against the mapping. The header's
  // declared file size is checked against the actual mapping length
  // FIRST (read_sections), so a truncated file is rejected before any
  // payload byte is dereferenced — no SIGBUS window at load time.
  pkg->model_ = load_model_image(bytes, /*zero_copy=*/true);
  pkg->arch_ = pkg->model_.report.arch;
  {
    ByteReader r(bytes.subspan(kChecksumOffset, 8), "header");
    pkg->checksum_ = r.u64();
  }
  std::uint64_t in_place = 0;
  for (const ir::Node& node : pkg->model_.graph.nodes()) {
    if (node.i8_data.is_borrowed()) in_place += node.i8_data.size();
  }
  for (const rt::PackedWeights& pw : pkg->model_.packed.by_node) {
    if (pw.data.is_borrowed()) in_place += pw.data.size() * sizeof(std::int16_t);
  }
  pkg->zero_copy_bytes_ = in_place;
  return pkg;
}

MappedPackage::~MappedPackage() {
#ifdef MICRONAS_HAVE_MMAP
  if (map_addr_ != nullptr) ::munmap(map_addr_, static_cast<std::size_t>(size_));
#endif
}

PackageInfo read_package_info(std::span<const std::byte> bytes) {
  PackageInfo info;
  std::vector<RawSection> sections = read_sections(bytes, &info.sections);
  info.format_version = kFormatVersion;
  info.file_bytes = bytes.size();
  ByteReader r(require_section(sections, kTagMeta), "META");
  info.producer = r.str();
  r.u32();
  info.git_sha = r.str();
  info.arch = r.str();
  if (!r.exhausted()) throw SerializeError("META: trailing bytes after metadata");
  return info;
}

PackageInfo read_package_info_file(const std::string& path) {
  const std::vector<std::byte> bytes = read_file(path);
  return read_package_info(bytes);
}

std::string logits_hash_hex(const Tensor& logits) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(
                    fnv1a64(logits.data().data(), logits.numel() * sizeof(float))));
  return buf;
}

std::string read_golden_logits_hash(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) throw SerializeError("cannot open golden file " + path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ss(line);
    std::string key, value;
    if (ss >> key >> value && key == "logits_hash") return value;
  }
  throw SerializeError("no logits_hash line in " + path);
}

std::string PackageInfo::to_string() const {
  std::ostringstream ss;
  ss << "mnpkg v" << format_version << ", " << file_bytes << " B, arch " << arch
     << ", written by " << producer << " @ " << git_sha << "\n";
  for (const SectionInfo& s : sections) {
    char line[96];
    std::snprintf(line, sizeof(line), "  %s  %8llu B at %8llu  checksum %016llx", s.tag.c_str(),
                  static_cast<unsigned long long>(s.size),
                  static_cast<unsigned long long>(s.offset),
                  static_cast<unsigned long long>(s.checksum));
    ss << line << "\n";
  }
  return ss.str();
}

}  // namespace micronas::serialize
