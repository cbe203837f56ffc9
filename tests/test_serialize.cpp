// Model package (.mnpkg) round-trip and robustness suite.
//
//   * save -> load -> save is byte-identical and the reloaded model
//     executes to bit-identical logits, across 25 sampled genotypes;
//   * every truncation and every single-byte corruption of a package
//     fails closed with SerializeError (never UB — this file also runs
//     under the ASan/UBSan CI job), including the one-pass integrity
//     rules: every header, table and padding byte and both ends of
//     every section are flipped, and re-forged tables whose sections
//     overlap or descend are rejected;
//   * package_checksum changes on every single-bit flip and does not
//     depend on alignment, and a known answer pins its value;
//   * the fixed golden scenario's reloaded logits hash equals the
//     logits_hash recorded in tests/golden/compile_report.golden, and
//     the package layout matches tests/golden/serialize_package.golden
//     (regenerate intentional changes with scripts/update_golden.sh).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>

#include "src/common/rng.hpp"
#include "src/data/synthetic.hpp"
#include "src/ir/graph.hpp"
#include "src/rt/runtime.hpp"
#include "src/serialize/serialize.hpp"

namespace micronas {
namespace {

#ifndef MICRONAS_SOURCE_DIR
#error "MICRONAS_SOURCE_DIR must point at the repository root"
#endif

using serialize::SerializeError;

compile::CompiledModel compile_small(const nb201::Genotype& g, int input = 8,
                                     std::uint64_t seed = 1) {
  compile::CompilerOptions options;
  options.macro.cells_per_stage = 1;
  options.macro.input_size = input;
  options.seed = seed;
  return compile::compile_genotype(g, options);
}

Tensor sample_input(int input_size, std::uint64_t seed) {
  DatasetSpec spec;
  spec.height = spec.width = input_size;
  Rng rng(seed);
  SyntheticDataset data(spec, rng);
  return data.sample_batch(1, rng).images;
}


TEST(Serialize, RoundTripIsByteIdenticalAndBitExactOn25Genotypes) {
  Rng rng(42);
  for (int i = 0; i < 25; ++i) {
    const auto index = static_cast<int>(
        rng.index(static_cast<std::size_t>(nb201::kNumArchitectures)));
    const nb201::Genotype g = nb201::Genotype::from_index(index);
    const compile::CompiledModel model = compile_small(g);

    const std::vector<std::byte> bytes = serialize::save_model_bytes(model);
    const compile::CompiledModel loaded = serialize::load_model_bytes(bytes);

    // Save-of-load is byte-identical: nothing is lost or reordered.
    EXPECT_EQ(bytes, serialize::save_model_bytes(loaded)) << "genotype " << index;

    // Structure survived.
    ASSERT_EQ(loaded.graph.size(), model.graph.size());
    EXPECT_EQ(loaded.plan.arena_bytes, model.plan.arena_bytes);
    EXPECT_EQ(loaded.plan.buffers.size(), model.plan.buffers.size());
    EXPECT_EQ(loaded.report.to_string(), model.report.to_string());

    // Execution is bit-exact: same logits from the reloaded model.
    const Tensor input = sample_input(8, 7);
    rt::Executor original(model.graph, model.plan, rt::ExecOptions{1});
    rt::Executor reloaded(loaded.graph, loaded.plan, rt::ExecOptions{1});
    const Tensor a = original.run(input);
    const Tensor b = reloaded.run(input);
    ASSERT_EQ(a.numel(), b.numel());
    for (std::size_t k = 0; k < a.numel(); ++k) {
      ASSERT_EQ(a[k], b[k]) << "genotype " << index << " logit " << k;
    }
  }
}

TEST(Serialize, FloatPipelineRoundTrips) {
  // Unquantized (fold/fuse/quantize off) models serialize too: f32
  // consts and float ops exercise the non-quant node paths.
  compile::CompilerOptions options;
  options.macro.cells_per_stage = 1;
  options.macro.input_size = 8;
  options.fold = options.fuse = options.quantize = false;
  const compile::CompiledModel model =
      compile::compile_genotype(nb201::Genotype::from_index(123), options);
  const std::vector<std::byte> bytes = serialize::save_model_bytes(model);
  const compile::CompiledModel loaded = serialize::load_model_bytes(bytes);
  EXPECT_EQ(bytes, serialize::save_model_bytes(loaded));

  const Tensor input = sample_input(8, 3);
  rt::Executor a(model.graph, model.plan, rt::ExecOptions{1});
  rt::Executor b(loaded.graph, loaded.plan, rt::ExecOptions{1});
  EXPECT_EQ(serialize::logits_hash_hex(a.run(input)),
            serialize::logits_hash_hex(b.run(input)));
}

TEST(Serialize, PackageInfoPeeksWithoutLoading) {
  const compile::CompiledModel model = compile_small(nb201::Genotype::from_index(777));
  const std::vector<std::byte> bytes = serialize::save_model_bytes(model);
  const serialize::PackageInfo info = serialize::read_package_info(bytes);
  EXPECT_EQ(info.format_version, serialize::kFormatVersion);
  EXPECT_EQ(info.file_bytes, bytes.size());
  EXPECT_EQ(info.arch, model.report.arch);
  ASSERT_EQ(info.sections.size(), 6u);  // META GRPH CNST PLAN RPRT PACK
  // Const blobs must sit at mmap-friendly offsets.
  for (const serialize::SectionInfo& s : info.sections) {
    EXPECT_EQ(s.offset % serialize::kConstAlignment, 0u) << s.tag;
  }
}

TEST(Serialize, SaveLoadFileRoundTrip) {
  const compile::CompiledModel model = compile_small(nb201::Genotype::from_index(4321));
  const std::string path = ::testing::TempDir() + "micronas_roundtrip.mnpkg";
  const std::uint64_t written = serialize::save_model(model, path);
  EXPECT_GT(written, 0u);
  const compile::CompiledModel loaded = serialize::load_model(path);
  EXPECT_EQ(serialize::save_model_bytes(loaded), serialize::save_model_bytes(model));
  std::remove(path.c_str());
}

TEST(Serialize, LoadIsAtLeastFiveTimesFasterThanRecompile) {
  // The package format's reason to exist: loading parses bytes while
  // recompiling re-lowers, re-folds and re-runs calibration inference.
  // Observed ~30x on the reduced skeleton; 5x is the acceptance bar
  // (min-of-3 on both sides to shrug off scheduler noise).
  const nb201::Genotype g = nb201::Genotype::from_index(2024);
  compile::CompilerOptions options;
  options.macro.cells_per_stage = 1;
  options.macro.input_size = 16;
  const std::vector<std::byte> bytes =
      serialize::save_model_bytes(compile::compile_genotype(g, options));

  const auto min_ms = [](auto&& fn) {
    double best = 1e300;
    for (int i = 0; i < 3; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      fn();
      const auto t1 = std::chrono::steady_clock::now();
      best = std::min(best, std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
    return best;
  };
  const double compile_ms =
      min_ms([&] { compile::compile_genotype(g, options); });
  const double load_ms = min_ms([&] { serialize::load_model_bytes(bytes); });
  EXPECT_GE(compile_ms / load_ms, 5.0)
      << "compile " << compile_ms << " ms vs load " << load_ms << " ms";
}

TEST(Serialize, EveryTruncationFailsClosed) {
  const compile::CompiledModel model = compile_small(nb201::Genotype::from_index(888));
  const std::vector<std::byte> bytes = serialize::save_model_bytes(model);
  ASSERT_GT(bytes.size(), 0u);

  // Dense near the header/table, strided through the payload.
  std::vector<std::size_t> cuts;
  for (std::size_t n = 0; n < std::min<std::size_t>(bytes.size(), 256); ++n) cuts.push_back(n);
  const std::size_t stride = std::max<std::size_t>(1, bytes.size() / 211);
  for (std::size_t n = 256; n < bytes.size(); n += stride) cuts.push_back(n);
  for (std::size_t n : cuts) {
    const std::span<const std::byte> prefix(bytes.data(), n);
    EXPECT_THROW(serialize::load_model_bytes(prefix), SerializeError)
        << "truncation to " << n << " bytes must fail closed";
  }
}

TEST(Serialize, RejectsGarbageAndEmptyInput) {
  EXPECT_THROW(serialize::load_model_bytes({}), SerializeError);
  std::vector<std::byte> junk(4096, std::byte{0x5A});
  EXPECT_THROW(serialize::load_model_bytes(junk), SerializeError);
  EXPECT_THROW(serialize::load_model("/nonexistent/path/model.mnpkg"), SerializeError);
}

TEST(Serialize, DirectoriesFailClosed) {
  // A directory opens as a stream whose size reads as huge, so the
  // loader must reject it before allocating that size.
  const std::string dir = ::testing::TempDir();
  EXPECT_THROW(serialize::load_model(dir), SerializeError);
  EXPECT_THROW(serialize::read_package_info_file(dir), SerializeError);
  EXPECT_THROW(serialize::MappedPackage::map(dir), SerializeError);
}

// ------------------------------------------------------ package checksum

std::vector<std::byte> seeded_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::byte> bytes(n);
  for (std::byte& b : bytes) b = static_cast<std::byte>(rng.uniform_int(0, 255));
  return bytes;
}

TEST(PackageChecksum, EverySingleBitFlipChangesTheValue) {
  // Lengths 0..130 cover zero to four full 32-byte lane blocks and
  // every tail length.
  for (std::size_t len = 0; len <= 130; ++len) {
    std::vector<std::byte> bytes = seeded_bytes(len, 1000 + len);
    const std::uint64_t intact = serialize::package_checksum(bytes);
    for (std::size_t bit = 0; bit < len * 8; ++bit) {
      const auto mask = static_cast<std::byte>(1U << (bit % 8));
      bytes[bit / 8] ^= mask;
      EXPECT_NE(serialize::package_checksum(bytes), intact) << "length " << len << " bit " << bit;
      bytes[bit / 8] ^= mask;
    }
  }
}

TEST(PackageChecksum, ValueIsIndependentOfAlignment) {
  const std::vector<std::byte> bytes = seeded_bytes(130, 7);
  std::vector<std::byte> shifted(bytes.size() + 8);
  for (std::size_t len = 0; len <= bytes.size(); ++len) {
    const std::uint64_t want = serialize::package_checksum(std::span(bytes).first(len));
    for (std::size_t start = 0; start < 8; ++start) {
      std::copy_n(bytes.begin(), len, shifted.begin() + static_cast<std::ptrdiff_t>(start));
      EXPECT_EQ(serialize::package_checksum(std::span(shifted).subspan(start, len)), want)
          << "length " << len << " start " << start;
    }
  }
}

TEST(PackageChecksum, KnownAnswer) {
  // Pins the format: a refactor, a compiler or a big-endian host that
  // computes another value cannot read or write packages. 100 bytes run
  // three blocks through the lanes and leave a four-byte tail.
  std::vector<std::byte> ramp(100);
  for (std::size_t i = 0; i < ramp.size(); ++i) ramp[i] = static_cast<std::byte>(i * 37 + 11);
  EXPECT_EQ(serialize::package_checksum(ramp), 0x918831bdde2485e5ULL);
  EXPECT_EQ(serialize::package_checksum({}), 0x9090306c6e91ed59ULL);
}

// ------------------------------------------------- mmap-backed loading
//
// MappedPackage::map shares every fail-closed gate with the copying
// loader (same load_model_image core), but the payload is a live file
// mapping, so the corpora must ALSO hold through the mmap path: a
// truncated or corrupted file throws SerializeError at map() time —
// the declared-size check runs against the actual mapping length
// before any payload byte is dereferenced, so a short file can never
// SIGBUS.

void write_file_bytes(const std::string& path, std::span<const std::byte> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << "cannot write " << path;
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

TEST(Serialize, MappedLoadMatchesCopiedLoad) {
  const compile::CompiledModel model = compile_small(nb201::Genotype::from_index(888));
  const std::string path = ::testing::TempDir() + "micronas_mapped.mnpkg";
  serialize::save_model(model, path);

  const std::shared_ptr<const serialize::MappedPackage> pkg = serialize::MappedPackage::map(path);
  const compile::CompiledModel copied = serialize::load_model(path);
  std::remove(path.c_str());

  ASSERT_EQ(pkg->model().graph.size(), copied.graph.size());
  EXPECT_EQ(pkg->model().plan.arena_bytes, copied.plan.arena_bytes);
  EXPECT_EQ(pkg->arch(), copied.report.arch);
  EXPECT_GT(pkg->zero_copy_bytes(), 0u);

  // Bit-identical logits off the mapping (the file is already deleted:
  // the mapping outlives the directory entry, POSIX semantics).
  const Tensor input = sample_input(8, 7);
  rt::Executor mapped_exec(pkg->model().graph, pkg->model().plan,
                           rt::ExecOptions{1, &pkg->model().packed});
  rt::Executor copied_exec(copied.graph, copied.plan, rt::ExecOptions{1, &copied.packed});
  const Tensor a = mapped_exec.run(input);
  const Tensor b = copied_exec.run(input);
  ASSERT_EQ(a.numel(), b.numel());
  for (std::size_t k = 0; k < a.numel(); ++k) ASSERT_EQ(a[k], b[k]) << "logit " << k;
}

TEST(Serialize, MappedTruncationsFailClosed) {
  const compile::CompiledModel model = compile_small(nb201::Genotype::from_index(888));
  const std::vector<std::byte> bytes = serialize::save_model_bytes(model);
  const std::string path = ::testing::TempDir() + "micronas_mapped_trunc.mnpkg";

  // Dense near the header/table, strided through the payload (sparser
  // than the in-memory corpus: each cut is a file write + mmap).
  std::vector<std::size_t> cuts;
  for (std::size_t n = 0; n < std::min<std::size_t>(bytes.size(), 64); ++n) cuts.push_back(n);
  const std::size_t stride = std::max<std::size_t>(1, bytes.size() / 53);
  for (std::size_t n = 64; n < bytes.size(); n += stride) cuts.push_back(n);
  for (std::size_t n : cuts) {
    write_file_bytes(path, std::span<const std::byte>(bytes.data(), n));
    EXPECT_THROW(serialize::MappedPackage::map(path), SerializeError)
        << "mapped truncation to " << n << " bytes must fail closed";
  }
  std::remove(path.c_str());
}

/// Expects `bytes` to fail closed through load_model_bytes and through
/// MappedPackage::map of a file holding them.
void expect_fails_closed_both_ways(const std::vector<std::byte>& bytes, const std::string& what) {
  EXPECT_THROW(serialize::load_model_bytes(bytes), SerializeError) << what;
  const std::string path = ::testing::TempDir() + "micronas_structure.mnpkg";
  write_file_bytes(path, bytes);
  EXPECT_THROW(serialize::MappedPackage::map(path), SerializeError) << "mapped " << what;
  std::remove(path.c_str());
}

/// Flips each byte at `positions` in turn and expects both loaders to
/// reject it. The file is written once and patched in place, so a
/// flip costs two one-byte writes rather than a whole-file write.
void expect_flips_fail_closed(const std::vector<std::byte>& bytes,
                              const std::vector<std::size_t>& positions) {
  const std::string path = ::testing::TempDir() + "micronas_flips.mnpkg";
  write_file_bytes(path, bytes);
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(file.good()) << "cannot reopen " << path;
  const auto poke = [&](std::size_t pos, std::byte value) {
    file.seekp(static_cast<std::streamoff>(pos));
    file.write(reinterpret_cast<const char*>(&value), 1);
    file.flush();
  };
  std::vector<std::byte> corrupted = bytes;
  for (const std::size_t pos : positions) {
    corrupted[pos] ^= std::byte{0xFF};
    EXPECT_THROW(serialize::load_model_bytes(corrupted), SerializeError)
        << "flipped byte at " << pos << " must fail closed";
    poke(pos, corrupted[pos]);
    EXPECT_THROW(serialize::MappedPackage::map(path), SerializeError)
        << "mapped flipped byte at " << pos << " must fail closed";
    corrupted[pos] = bytes[pos];
    poke(pos, bytes[pos]);
  }
  file.close();
  std::remove(path.c_str());
}

TEST(Serialize, EverySingleByteFlipFailsClosed) {
  const compile::CompiledModel model = compile_small(nb201::Genotype::from_index(888));
  const std::vector<std::byte> bytes = serialize::save_model_bytes(model);

  // Strided through the whole file; the SerializeIntegrity corpora
  // below flip every byte outside the section interiors.
  std::vector<std::size_t> positions;
  const std::size_t stride = std::max<std::size_t>(1, bytes.size() / 499);
  for (std::size_t pos = 0; pos < bytes.size(); pos += stride) positions.push_back(pos);
  expect_flips_fail_closed(bytes, positions);
}

TEST(Serialize, MappedRejectsMissingAndEmptyFiles) {
  EXPECT_THROW(serialize::MappedPackage::map("/nonexistent/path/model.mnpkg"), SerializeError);
  const std::string path = ::testing::TempDir() + "micronas_mapped_empty.mnpkg";
  write_file_bytes(path, {});
  EXPECT_THROW(serialize::MappedPackage::map(path), SerializeError);
  std::remove(path.c_str());
}

// ------------------------------------------------------ forged packages
//
// The truncation/byte-flip corpus above is caught by checksums, but
// the checksums are unkeyed: a real attacker patches a field and
// recomputes every checksum. These tests mount exactly that attack —
// the forged package passes all integrity gates, so hostile values
// must fail closed on semantic validation (SerializeError), never
// reach UB (SIGFPE in conv_out_size, signed overflow, unbounded
// allocation).

void poke_le(std::vector<std::byte>& bytes, std::size_t at, std::uint64_t value, int width) {
  for (int i = 0; i < width; ++i) {
    bytes[at + static_cast<std::size_t>(i)] = static_cast<std::byte>((value >> (8 * i)) & 0xFF);
  }
}

// Header layout documented in serialize.hpp: file size at byte 16,
// header checksum at 32, table of 32-byte entries from 40.
constexpr std::size_t kFileSizeAt = 16;
constexpr std::size_t kChecksumAt = 32;
constexpr std::size_t kTableAt = 40;
constexpr std::size_t kEntryBytes = 32;

/// Recompute all section checksums, then the header checksum over the
/// header and table with its own field read as zero.
void reforge_checksums(std::vector<std::byte>& bytes) {
  serialize::ByteReader header(bytes, "header");
  header.skip(24);
  const std::uint32_t section_count = header.u32();
  for (std::uint32_t i = 0; i < section_count; ++i) {
    const std::size_t entry_at = kTableAt + i * kEntryBytes;
    const std::span<const std::byte> entry_bytes(bytes.data() + entry_at, kEntryBytes);
    serialize::ByteReader entry(entry_bytes, "entry");
    entry.skip(8);  // tag, reserved
    const std::uint64_t offset = entry.u64();
    const std::uint64_t size = entry.u64();
    poke_le(bytes, entry_at + 24,
            serialize::package_checksum(std::span(bytes).subspan(offset, size)), 8);
  }
  const std::size_t table_end = kTableAt + section_count * kEntryBytes;
  std::vector<std::byte> head(bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(table_end));
  poke_le(head, kChecksumAt, 0, 8);
  poke_le(bytes, kChecksumAt, serialize::package_checksum(head), 8);
}

serialize::SectionInfo section_named(const std::vector<std::byte>& bytes,
                                     const std::string& tag) {
  for (const serialize::SectionInfo& s : serialize::read_package_info(bytes).sections) {
    if (s.tag == tag) return s;
  }
  throw std::logic_error("package has no " + tag + " section");
}

/// Walk GRPH node records (mirroring the schema; op bytes follow
/// ir::OpKind declaration order) to the first op that consumes conv
/// attrs; returns the offset of its kernel field within the payload.
std::size_t conv_attrs_offset(std::span<const std::byte> grph) {
  serialize::ByteReader r(grph, "GRPH");
  const std::uint32_t node_count = r.u32();
  r.i32();  // input
  r.i32();  // output
  for (std::uint32_t i = 0; i < node_count; ++i) {
    r.i32();  // id
    const int op = r.u8();
    r.str();  // name
    const std::uint32_t num_inputs = r.u32();
    for (std::uint32_t k = 0; k < num_inputs; ++k) r.i32();
    const int rank = r.u8();
    for (int d = 0; d < rank; ++d) r.i32();
    r.u8();  // dtype
    if (op == static_cast<int>(ir::OpKind::kConv2d) ||
        op == static_cast<int>(ir::OpKind::kAvgPool) ||
        op == static_cast<int>(ir::OpKind::kQConv2d) ||
        op == static_cast<int>(ir::OpKind::kQAvgPool)) {
      return r.pos();
    }
    r.i32();  // kernel
    r.i32();  // stride
    r.i32();  // pad
    r.u8();   // fused_relu
    r.f64();  // bn_eps
    for (int a = 0; a < 3; ++a) {  // in_q, in2_q, out_q
      r.f64();
      r.i32();
    }
    const std::uint32_t num_mantissa = r.u32();
    for (std::uint32_t k = 0; k < num_mantissa; ++k) r.i32();
    const std::uint32_t num_shift = r.u32();
    for (std::uint32_t k = 0; k < num_shift; ++k) r.i32();
    r.i32();  // mantissa2
    r.i32();  // shift2
    if (r.u8() != 0) {  // const payload ref
      r.u64();
      r.u64();
    }
  }
  throw std::logic_error("GRPH has no conv/pool node");
}

/// Offset of arena_bytes within the RPRT payload (arch string, four
/// node counts, pass stats, then the byte totals).
std::size_t report_arena_offset(std::span<const std::byte> rprt) {
  serialize::ByteReader r(rprt, "RPRT");
  r.str();  // arch
  for (int i = 0; i < 4; ++i) r.i32();
  const std::uint32_t num_passes = r.u32();
  for (std::uint32_t i = 0; i < num_passes; ++i) {
    r.str();
    r.u8();
    r.i32();
    r.i32();
    r.f64();
  }
  return r.pos();
}

TEST(SerializeForged, HostileConvAttrsFailClosed) {
  const compile::CompiledModel model = compile_small(nb201::Genotype::from_index(888));
  const std::vector<std::byte> baseline = serialize::save_model_bytes(model);
  const serialize::SectionInfo grph = section_named(baseline, "GRPH");
  const std::size_t attrs_at =
      grph.offset + conv_attrs_offset(std::span<const std::byte>(baseline).subspan(grph.offset, grph.size));

  // The reforge helper must be a faithful writer: recomputing the
  // checksums of an unmodified package reproduces it byte-for-byte.
  {
    std::vector<std::byte> intact = baseline;
    reforge_checksums(intact);
    EXPECT_EQ(intact, baseline);
  }

  // Keep the genuine kernel for the stride/pad attacks so the
  // kernel/weight-shape cross-check cannot mask them: stride 0 used to
  // reach conv_out_size's division (SIGFPE), pad near INT_MAX its
  // `in + 2*pad` (signed overflow).
  const std::span<const std::byte> attr_bytes(baseline.data() + attrs_at, 12);
  serialize::ByteReader attrs(attr_bytes, "attrs");
  const std::int32_t kernel0 = attrs.i32();
  const std::int32_t stride0 = attrs.i32();
  const std::int32_t pad0 = attrs.i32();
  const struct {
    std::int32_t kernel, stride, pad;
  } hostile[] = {
      {kernel0, 0, pad0},          {kernel0, 1, INT32_MAX}, {kernel0, -1, pad0},
      {kernel0, stride0, -1},      {0, stride0, pad0},      {INT32_MAX, stride0, pad0},
  };
  for (const auto& h : hostile) {
    std::vector<std::byte> forged = baseline;
    poke_le(forged, attrs_at + 0, static_cast<std::uint32_t>(h.kernel), 4);
    poke_le(forged, attrs_at + 4, static_cast<std::uint32_t>(h.stride), 4);
    poke_le(forged, attrs_at + 8, static_cast<std::uint32_t>(h.pad), 4);
    reforge_checksums(forged);
    EXPECT_THROW(serialize::load_model_bytes(forged), SerializeError)
        << "kernel=" << h.kernel << " stride=" << h.stride << " pad=" << h.pad;
  }
}

TEST(SerializeForged, HostileArenaDemandFailsClosed) {
  // A forged plan declaring naive_bytes == arena_bytes == 2^62 (report
  // patched to agree, all checksums valid) passes every structural
  // check; the loader must reject it before an Executor would try to
  // allocate a 4-exabyte arena.
  const compile::CompiledModel model = compile_small(nb201::Genotype::from_index(888));
  const std::vector<std::byte> baseline = serialize::save_model_bytes(model);
  const serialize::SectionInfo plan = section_named(baseline, "PLAN");
  const serialize::SectionInfo rprt = section_named(baseline, "RPRT");
  const std::size_t report_at =
      rprt.offset + report_arena_offset(std::span<const std::byte>(baseline).subspan(rprt.offset, rprt.size));

  std::vector<std::byte> forged = baseline;
  const std::uint64_t huge = 1ULL << 62;
  poke_le(forged, plan.offset + 0, huge, 8);  // plan.arena_bytes
  poke_le(forged, plan.offset + 8, huge, 8);  // plan.naive_bytes
  poke_le(forged, report_at + 0, huge, 8);    // report.arena_bytes
  poke_le(forged, report_at + 8, huge, 8);    // report.naive_arena_bytes
  reforge_checksums(forged);
  EXPECT_THROW(serialize::load_model_bytes(forged), SerializeError);
}

// ------------------------------------------------ one-pass integrity
//
// Each file byte is verified once: header and table by the header
// checksum, a section by its own checksum, and every other byte by the
// zero check, with sections ascending and never overlapping. These
// corpora cover the bytes and tables those rules exist for, through
// both loaders. The strided corpora above cover the section interiors.

TEST(SerializeIntegrity, EveryByteOutsideSectionPayloadsIsVerified) {
  const std::vector<std::byte> bytes =
      serialize::save_model_bytes(compile_small(nb201::Genotype::from_index(888)));
  const std::vector<serialize::SectionInfo> sections = serialize::read_package_info(bytes).sections;

  // Header, table and every padding gap: all bytes not in a payload.
  std::vector<std::size_t> positions;
  std::size_t gap_bytes = 0;
  std::size_t end = kTableAt + sections.size() * kEntryBytes;
  for (std::size_t pos = 0; pos < end; ++pos) positions.push_back(pos);
  for (const serialize::SectionInfo& s : sections) {
    for (std::size_t pos = end; pos < s.offset; ++pos) positions.push_back(pos);
    gap_bytes += s.offset - end;
    end = s.offset + s.size;
  }
  ASSERT_EQ(end, bytes.size());
  ASSERT_GT(gap_bytes, 0u) << "no padding to flip — the corpus is vacuous";
  expect_flips_fail_closed(bytes, positions);
}

TEST(SerializeIntegrity, BothEndsOfEverySectionAreVerified) {
  const std::vector<std::byte> bytes =
      serialize::save_model_bytes(compile_small(nb201::Genotype::from_index(888)));
  std::vector<std::size_t> positions;
  for (const serialize::SectionInfo& s : serialize::read_package_info(bytes).sections) {
    const std::size_t edge = std::min<std::size_t>(64, s.size);
    for (std::size_t k = 0; k < edge; ++k) {
      positions.push_back(s.offset + k);
      positions.push_back(s.offset + s.size - 1 - k);
    }
  }
  expect_flips_fail_closed(bytes, positions);
}

TEST(SerializeIntegrity, ByteAppendedAfterTheLastSectionFailsClosed) {
  const std::vector<std::byte> bytes =
      serialize::save_model_bytes(compile_small(nb201::Genotype::from_index(888)));
  // As appended, the header's declared file size no longer matches.
  std::vector<std::byte> appended = bytes;
  appended.push_back(std::byte{0x5A});
  expect_fails_closed_both_ways(appended, "appended byte");
  // Declaring the longer file and re-forging the header checksum leaves
  // a nonzero byte outside every section: the zero check rejects it.
  poke_le(appended, kFileSizeAt, appended.size(), 8);
  reforge_checksums(appended);
  expect_fails_closed_both_ways(appended, "appended byte, re-forged header");
}

TEST(SerializeIntegrity, OverlappingOrDescendingSectionsFailClosed) {
  const std::vector<std::byte> baseline =
      serialize::save_model_bytes(compile_small(nb201::Genotype::from_index(888)));
  const std::vector<serialize::SectionInfo> sections =
      serialize::read_package_info(baseline).sections;
  ASSERT_EQ(sections.back().tag, "PACK");
  const auto entry_at = [](std::size_t i) { return kTableAt + i * kEntryBytes; };

  // Every forgery keeps all checksums valid (reforge_checksums hashes
  // whatever window the table names) and leaves no nonzero byte
  // outside the named windows, so only the ordering rule rejects it.
  std::vector<std::pair<std::string, std::vector<std::byte>>> forged;
  {
    // Table entries 1 and 2 swapped: section offsets descend.
    std::vector<std::byte> f = baseline;
    std::swap_ranges(f.begin() + static_cast<std::ptrdiff_t>(entry_at(1)),
                     f.begin() + static_cast<std::ptrdiff_t>(entry_at(2)),
                     f.begin() + static_cast<std::ptrdiff_t>(entry_at(2)));
    forged.emplace_back("descending offsets", std::move(f));
  }
  // The optional PACK section zeroed and its entry turned into an
  // unknown tag over another window; the loader would skip the unknown
  // section and repack the weights.
  const auto unknown_section_over = [&](std::uint64_t offset, std::uint64_t size) {
    const serialize::SectionInfo& pack = sections.back();
    const std::size_t entry = entry_at(sections.size() - 1);
    std::vector<std::byte> f = baseline;
    std::fill_n(f.begin() + static_cast<std::ptrdiff_t>(pack.offset), pack.size, std::byte{0});
    poke_le(f, entry, 0x5A5A5A5Au, 4);  // "ZZZZ"
    poke_le(f, entry + 8, offset, 8);
    poke_le(f, entry + 16, size, 8);
    return f;
  };
  const serialize::SectionInfo& rprt = sections[sections.size() - 2];
  forged.emplace_back("section overlapping the previous one",
                      unknown_section_over(rprt.offset, rprt.size));
  forged.emplace_back("section over the header", unknown_section_over(0, 8));

  for (auto& [what, f] : forged) {
    reforge_checksums(f);
    expect_fails_closed_both_ways(f, what);
  }
}

// --------------------------------------------- PLAN alias / strip tail
//
// The in-place-alias and row-strip records ride after the legacy PLAN
// layout. Both tell the executor to write one value over another's
// bytes, so a forged record is a memory-safety attack and must die in
// the loader's check_plan gate — while a package saved by a pre-tail
// writer (no records at all) still loads.

/// Byte offset, within the PLAN payload, of the appended tail (the u32
/// alias count): skips the legacy arena totals, placements, schedule.
std::size_t plan_tail_offset(std::span<const std::byte> plan) {
  serialize::ByteReader r(plan, "PLAN");
  r.i64();  // arena_bytes
  r.i64();  // naive_bytes
  r.skip(r.count(28) * 28);  // placements
  r.skip(r.count(4) * 4);    // schedule
  return r.pos();
}

/// A genotype whose plan actually streams: three stacked 3x3 convs at
/// one resolution, recompiled under half the arena their unstreamed
/// plan needs.
compile::CompiledModel compile_streamed() {
  const nb201::Genotype g = nb201::Genotype::from_string(
      "|nor_conv_3x3~0|+|none~0|nor_conv_3x3~1|+|none~0|none~1|nor_conv_3x3~2|");
  compile::CompilerOptions options;
  options.macro.num_stages = 1;
  options.macro.cells_per_stage = 1;
  options.macro.input_size = 32;
  const compile::CompiledModel base = compile::compile_genotype(g, options);
  options.plan.arena_budget = base.plan.arena_bytes / 2;
  compile::CompiledModel model = compile::compile_genotype(g, options);
  if (model.plan.strips.empty()) throw std::logic_error("expected a streamed plan");
  return model;
}

TEST(SerializeForged, ForgedAliasEntriesFailClosed) {
  const compile::CompiledModel model = compile_small(nb201::Genotype::from_index(888));
  const std::vector<std::byte> baseline = serialize::save_model_bytes(model);
  const serialize::SectionInfo plan = section_named(baseline, "PLAN");
  const std::size_t tail_at =
      plan.offset + plan_tail_offset(std::span<const std::byte>(baseline).subspan(plan.offset, plan.size));
  serialize::ByteReader tail(
      std::span<const std::byte>(baseline).subspan(tail_at, plan.offset + plan.size - tail_at), "tail");
  const std::uint32_t alias_count = tail.u32();
  ASSERT_GT(alias_count, 0u) << "default compile carries no alias record to forge";
  const std::size_t rec_at = tail_at + 4;  // first {node_id, alias_of} record
  serialize::ByteReader rec(std::span<const std::byte>(baseline).subspan(rec_at, 8), "alias record");
  const std::int32_t node_id = rec.i32();

  // Out-of-range target, self-alias (never one of the node's inputs),
  // and a "no alias" -1 that would orphan the shared offset the entry
  // came with: each must fail closed, the last via the overlap check
  // losing its storage-group exemption.
  const std::int32_t hostile_alias[] = {INT32_MAX, node_id, -1};
  for (const std::int32_t a : hostile_alias) {
    std::vector<std::byte> forged = baseline;
    poke_le(forged, rec_at + 4, static_cast<std::uint32_t>(a), 4);
    reforge_checksums(forged);
    EXPECT_THROW(serialize::load_model_bytes(forged), SerializeError) << "alias_of=" << a;
  }
  // A record naming a node with no placement dies in the reader itself.
  std::vector<std::byte> forged = baseline;
  poke_le(forged, rec_at + 0, static_cast<std::uint32_t>(INT32_MAX), 4);
  reforge_checksums(forged);
  EXPECT_THROW(serialize::load_model_bytes(forged), SerializeError);
}

TEST(SerializeForged, ForgedStripGeometryFailsClosed) {
  const compile::CompiledModel model = compile_streamed();
  const std::vector<std::byte> baseline = serialize::save_model_bytes(model);
  const serialize::SectionInfo plan = section_named(baseline, "PLAN");
  const std::size_t tail_at =
      plan.offset + plan_tail_offset(std::span<const std::byte>(baseline).subspan(plan.offset, plan.size));
  serialize::ByteReader tail(
      std::span<const std::byte>(baseline).subspan(tail_at, plan.offset + plan.size - tail_at), "tail");
  const std::size_t alias_count = tail.u32();
  const std::size_t strips_at = tail_at + 4 + alias_count * 8;
  serialize::ByteReader strips(
      std::span<const std::byte>(baseline).subspan(strips_at, plan.offset + plan.size - strips_at), "strips");
  const std::uint32_t strip_count = strips.u32();
  ASSERT_GT(strip_count, 0u) << "streamed compile carries no strip record to forge";
  const std::size_t rec_at = strips_at + 4;  // first {node_id, strip_h} record
  const std::size_t scratch_at = strips_at + 4 + strip_count * 8;
  serialize::ByteReader rec(std::span<const std::byte>(baseline).subspan(rec_at, 8), "strip record");
  rec.i32();  // node_id
  const std::int32_t strip_h = rec.i32();
  const std::int32_t out_h = 32;
  ASSERT_GT(strip_h, 1);
  ASSERT_LT(strip_h, out_h);

  // strip_h = 0 breaks the halo-safety floor (a full strip must cover
  // at least `pad` rows or the bottom-up scatter clobbers unread
  // input); a huge strip_h escapes the output; and even a legal-range
  // strip_h that differs from the planner's choice must re-derive to a
  // different scratch requirement than the serialized one.
  const std::int32_t hostile_h[] = {0, 1 << 20, out_h};
  for (const std::int32_t h : hostile_h) {
    std::vector<std::byte> forged = baseline;
    poke_le(forged, rec_at + 4, static_cast<std::uint32_t>(h), 4);
    reforge_checksums(forged);
    EXPECT_THROW(serialize::load_model_bytes(forged), SerializeError) << "strip_h=" << h;
  }
  // A strip on a node that cannot stream, and a scratch demand the
  // strips do not account for (an executor allocates this much).
  std::vector<std::byte> forged = baseline;
  poke_le(forged, rec_at + 0, static_cast<std::uint32_t>(INT32_MAX), 4);
  reforge_checksums(forged);
  EXPECT_THROW(serialize::load_model_bytes(forged), SerializeError);
  forged = baseline;
  poke_le(forged, scratch_at, 1ULL << 62, 8);
  reforge_checksums(forged);
  EXPECT_THROW(serialize::load_model_bytes(forged), SerializeError);
}

/// Byte positions of one GRPH node record's requant fields (mirroring
/// the record schema, like conv_attrs_offset), relative to the payload.
struct RequantFieldsAt {
  std::size_t name = 0;      // u32 length, then the bytes
  std::size_t mantissa = 0;  // u32 count, then that many i32s
  std::size_t shift = 0;     // u32 count, then that many i32s
  std::size_t shift2 = 0;    // i32; mantissa2 is the i32 before it
  std::size_t end = 0;       // one past the record
  std::uint32_t count = 0;   // mantissas (== shifts)
};

/// The record of the first node of kind `op` in a GRPH payload.
RequantFieldsAt requant_fields(std::span<const std::byte> grph, ir::OpKind op) {
  serialize::ByteReader r(grph, "GRPH");
  const std::uint32_t node_count = r.u32();
  r.i32();  // input
  r.i32();  // output
  for (std::uint32_t i = 0; i < node_count; ++i) {
    RequantFieldsAt at;
    r.i32();  // id
    const int node_op = r.u8();
    at.name = r.pos();
    r.str();
    const std::uint32_t num_inputs = r.u32();
    for (std::uint32_t k = 0; k < num_inputs; ++k) r.i32();
    const int rank = r.u8();
    for (int d = 0; d < rank; ++d) r.i32();
    r.u8();   // dtype
    r.i32();  // kernel
    r.i32();  // stride
    r.i32();  // pad
    r.u8();   // fused_relu
    r.f64();  // bn_eps
    for (int a = 0; a < 3; ++a) {  // in_q, in2_q, out_q
      r.f64();
      r.i32();
    }
    at.mantissa = r.pos();
    at.count = r.u32();
    for (std::uint32_t k = 0; k < at.count; ++k) r.i32();
    at.shift = r.pos();
    const std::uint32_t num_shift = r.u32();
    for (std::uint32_t k = 0; k < num_shift; ++k) r.i32();
    r.i32();  // mantissa2
    at.shift2 = r.pos();
    r.i32();
    if (r.u8() != 0) {  // const payload ref
      r.u64();
      r.u64();
    }
    at.end = r.pos();
    if (node_op == static_cast<int>(op)) return at;
  }
  throw std::logic_error("GRPH has no node of the requested kind");
}

/// The package with the first `op` node's mantissa and shift arrays cut
/// to their first `keep` entries. The name grows by the bytes the
/// arrays lose, so the record, the GRPH section and every later offset
/// keep their sizes, and only the checksums need re-forging. keep ==
/// the current count changes the name alone (the control).
std::vector<std::byte> with_requant_count(const std::vector<std::byte>& bytes, ir::OpKind op,
                                          std::uint32_t keep) {
  const serialize::SectionInfo grph = section_named(bytes, "GRPH");
  const std::span<const std::byte> payload(bytes.data() + grph.offset, grph.size);
  const RequantFieldsAt at = requant_fields(payload, op);
  const std::size_t grow = 8 * static_cast<std::size_t>(at.count - keep);
  serialize::ByteReader name_len(payload.subspan(at.name, 4), "name");
  const std::uint32_t len = name_len.u32();
  // Rewrite the record from its name on, copying from the original.
  std::vector<std::byte> out = bytes;
  std::size_t cursor = grph.offset + at.name;
  const auto copy = [&](std::size_t from, std::size_t to) {  // payload-relative
    std::copy(bytes.begin() + static_cast<std::ptrdiff_t>(grph.offset + from),
              bytes.begin() + static_cast<std::ptrdiff_t>(grph.offset + to),
              out.begin() + static_cast<std::ptrdiff_t>(cursor));
    cursor += to - from;
  };
  const auto put_u32 = [&](std::uint32_t v) {
    poke_le(out, cursor, v, 4);
    cursor += 4;
  };
  put_u32(len + static_cast<std::uint32_t>(grow));
  copy(at.name + 4, at.name + 4 + len);
  std::fill_n(out.begin() + static_cast<std::ptrdiff_t>(cursor), grow, std::byte{'x'});
  cursor += grow;
  copy(at.name + 4 + len, at.mantissa);
  put_u32(keep);
  copy(at.mantissa + 4, at.mantissa + 4 + 4 * keep);
  put_u32(keep);
  copy(at.shift + 4, at.shift + 4 + 4 * keep);
  copy(at.shift2 - 4, at.end);  // mantissa2 onward
  EXPECT_EQ(cursor, grph.offset + at.end);
  reforge_checksums(out);
  return out;
}

/// The package with the i32 at `field` of the first `op` node's record
/// (a RequantFieldsAt member, plus `extra` bytes) set to `value`.
std::vector<std::byte> with_requant_i32(const std::vector<std::byte>& bytes, ir::OpKind op,
                                        std::size_t RequantFieldsAt::*field, std::size_t extra,
                                        std::int32_t value) {
  const serialize::SectionInfo grph = section_named(bytes, "GRPH");
  const RequantFieldsAt at =
      requant_fields(std::span<const std::byte>(bytes.data() + grph.offset, grph.size), op);
  std::vector<std::byte> out = bytes;
  poke_le(out, grph.offset + at.*field + extra, static_cast<std::uint32_t>(value), 4);
  reforge_checksums(out);
  return out;
}

// Requant mantissas and shifts reach the kernels' unchecked fixed-point
// core, which is defined only for the per-channel counts the kernels
// index and for shifts in [-31, 31]. A forger who resizes the arrays or
// writes a shift outside that domain must get a SerializeError at load,
// not an out-of-bounds read, an undefined shift or a throw from inside a
// SIMD clone (which std::terminate()s) at run time.
TEST(SerializeForged, HostileRequantAttrsFailClosed) {
  const compile::CompiledModel conv_model = compile_small(nb201::Genotype::from_index(888));
  const compile::CompiledModel pool_model = compile_small(nb201::Genotype::from_index(15624));
  const std::vector<std::byte> conv_bytes = serialize::save_model_bytes(conv_model);
  const std::vector<std::byte> pool_bytes = serialize::save_model_bytes(pool_model);
  const auto first_shift = 4;  // past the shift count

  // The rewriting itself is benign: a longer name with the arrays kept
  // loads and runs.
  const Tensor input = sample_input(8, 31);
  for (const auto& [bytes, op] : {std::pair{&conv_bytes, ir::OpKind::kQConv2d},
                                  std::pair{&pool_bytes, ir::OpKind::kQAvgPool}}) {
    const serialize::SectionInfo grph = section_named(*bytes, "GRPH");
    const std::uint32_t count =
        requant_fields(std::span<const std::byte>(bytes->data() + grph.offset, grph.size), op)
            .count;
    const compile::CompiledModel renamed =
        serialize::load_model_bytes(with_requant_count(*bytes, op, count));
    rt::Executor exec(renamed.graph, renamed.plan, rt::ExecOptions{1, &renamed.packed});
    EXPECT_EQ(exec.run(input).numel(), static_cast<std::size_t>(10));
  }

  const struct {
    const char* what;
    std::vector<std::byte> bytes;
  } hostile[] = {
      {"qconv2d shift -40",
       with_requant_i32(conv_bytes, ir::OpKind::kQConv2d, &RequantFieldsAt::shift, first_shift,
                        -40)},
      {"qconv2d shift +40",
       with_requant_i32(conv_bytes, ir::OpKind::kQConv2d, &RequantFieldsAt::shift, first_shift,
                        40)},
      {"qconv2d mantissa/shift cut to 1",
       with_requant_count(conv_bytes, ir::OpKind::kQConv2d, 1)},
      {"qavg_pool mantissa/shift emptied",
       with_requant_count(pool_bytes, ir::OpKind::kQAvgPool, 0)},
      {"qavg_pool shift -40",
       with_requant_i32(pool_bytes, ir::OpKind::kQAvgPool, &RequantFieldsAt::shift, first_shift,
                        -40)},
      {"qadd shift2 -40",
       with_requant_i32(pool_bytes, ir::OpKind::kQAdd, &RequantFieldsAt::shift2, 0, -40)},
  };
  for (const auto& h : hostile) expect_fails_closed_both_ways(h.bytes, h.what);

  // The same graphs built in memory: the Executor constructor validates.
  const auto rejects = [](const compile::CompiledModel& model, ir::OpKind op,
                          const std::function<void(ir::QuantAttrs&)>& mutate,
                          const char* what) {
    ir::Graph graph = model.graph;
    for (const ir::Node& node : graph.nodes()) {
      if (node.op != op) continue;
      mutate(graph.node(node.id).quant);
      break;
    }
    EXPECT_THROW(rt::Executor(graph, model.plan, rt::ExecOptions{1, &model.packed}),
                 std::logic_error)
        << what;
  };
  rejects(conv_model, ir::OpKind::kQConv2d, [](ir::QuantAttrs& q) { q.shift[0] = -40; },
          "qconv2d shift -40");
  rejects(conv_model, ir::OpKind::kQConv2d, [](ir::QuantAttrs& q) { q.shift[0] = 40; },
          "qconv2d shift +40");
  rejects(conv_model, ir::OpKind::kQConv2d,
          [](ir::QuantAttrs& q) {
            q.mantissa.resize(1);
            q.shift.resize(1);
          },
          "qconv2d mantissa/shift cut to 1");
  rejects(pool_model, ir::OpKind::kQAvgPool,
          [](ir::QuantAttrs& q) {
            q.mantissa.clear();
            q.shift.clear();
          },
          "qavg_pool mantissa/shift emptied");
  rejects(pool_model, ir::OpKind::kQAvgPool, [](ir::QuantAttrs& q) { q.shift[0] = -40; },
          "qavg_pool shift -40");
  rejects(pool_model, ir::OpKind::kQAdd, [](ir::QuantAttrs& q) { q.shift2 = -40; },
          "qadd shift2 -40");
}

TEST(Serialize, LegacyPlanWithoutTailLoads) {
  // A package written before the alias/strip tail existed carries the
  // bare PLAN layout. Reproduce one by compiling with aliasing off (the
  // tail is then 16 zero bytes) and shrinking the declared PLAN size to
  // cut it; the orphaned bytes stay in the file, which the section
  // table permits.
  compile::CompilerOptions options;
  options.macro.cells_per_stage = 1;
  options.macro.input_size = 8;
  options.plan.alias_inplace = false;
  const compile::CompiledModel model =
      compile::compile_genotype(nb201::Genotype::from_index(888), options);
  for (const rt::BufferPlacement& b : model.plan.buffers) ASSERT_LT(b.alias_of, 0);
  ASSERT_TRUE(model.plan.strips.empty());

  std::vector<std::byte> legacy = serialize::save_model_bytes(model);
  const serialize::SectionInfo plan = section_named(legacy, "PLAN");
  const std::size_t tail =
      plan_tail_offset(std::span<const std::byte>(legacy).subspan(plan.offset, plan.size));
  ASSERT_EQ(plan.size - tail, 16u);  // empty tail: two zero counts + zero scratch

  const std::vector<serialize::SectionInfo> sections =
      serialize::read_package_info(legacy).sections;
  for (std::size_t i = 0; i < sections.size(); ++i) {
    if (sections[i].tag != "PLAN") continue;
    poke_le(legacy, kTableAt + i * kEntryBytes + 16, tail, 8);  // entry size field
  }
  reforge_checksums(legacy);

  const compile::CompiledModel loaded = serialize::load_model_bytes(legacy);
  EXPECT_EQ(loaded.plan.arena_bytes, model.plan.arena_bytes);
  EXPECT_TRUE(loaded.plan.strips.empty());
  EXPECT_EQ(loaded.plan.stream_scratch_bytes, 0);
  for (const rt::BufferPlacement& b : loaded.plan.buffers) EXPECT_LT(b.alias_of, 0);

  const Tensor input = sample_input(8, 11);
  rt::Executor a(model.graph, model.plan, rt::ExecOptions{1});
  rt::Executor b(loaded.graph, loaded.plan, rt::ExecOptions{1});
  const Tensor want = a.run(input);
  const Tensor got = b.run(input);
  ASSERT_EQ(want.numel(), got.numel());
  for (std::size_t k = 0; k < want.numel(); ++k) ASSERT_EQ(want[k], got[k]);
}

// ------------------------------------------------------- PACK section
//
// The kernel weight-layout table is an *optional* section with a
// forward/backward-compat contract: old readers skip the unknown tag,
// old packages (no PACK) load and get repacked, and unknown layout
// bytes inside PACK degrade to the repack fallback — while forged
// geometry still fails closed like every other hostile field.

/// Byte offsets inside the PACK payload, mirroring read_pack: u32
/// entry count, then 29-byte entries {i32 node_id, u8 layout,
/// i32 cout, i32 patch, u64 cnst_offset, u64 size}.
constexpr std::size_t kPackFirstEntryAt = 4;
constexpr std::size_t kPackLayoutAt = kPackFirstEntryAt + 4;
constexpr std::size_t kPackCoutAt = kPackFirstEntryAt + 5;

/// The loaded set must be indistinguishable from packing the loaded
/// graph from scratch — the invariant that makes serialized panels,
/// the loader's repack fallback, and runtime-owned packing
/// interchangeable.
void expect_packed_equals_fresh_pack(const compile::CompiledModel& loaded) {
  const rt::PackedWeightSet fresh = rt::pack_graph_weights(loaded.graph);
  ASSERT_EQ(loaded.packed.by_node.size(), fresh.by_node.size());
  std::size_t packed_nodes = 0;
  for (std::size_t i = 0; i < fresh.by_node.size(); ++i) {
    const rt::PackedWeights& got = loaded.packed.by_node[i];
    const rt::PackedWeights& want = fresh.by_node[i];
    ASSERT_EQ(got.empty(), want.empty()) << "node " << i;
    if (want.empty()) continue;
    ++packed_nodes;
    EXPECT_EQ(static_cast<int>(got.layout), static_cast<int>(want.layout)) << "node " << i;
    EXPECT_EQ(got.cout, want.cout) << "node " << i;
    EXPECT_EQ(got.patch, want.patch) << "node " << i;
    EXPECT_EQ(got.data, want.data) << "node " << i;
  }
  EXPECT_GT(packed_nodes, 0u) << "no packed-weight nodes — the check is vacuous";
}

TEST(SerializePack, RoundTripsPackedWeightsVerbatim) {
  const compile::CompiledModel model = compile_small(nb201::Genotype::from_index(888));
  const std::vector<std::byte> bytes = serialize::save_model_bytes(model);
  ASSERT_GE(section_named(bytes, "PACK").size, kPackFirstEntryAt + 29);
  const compile::CompiledModel loaded = serialize::load_model_bytes(bytes);
  expect_packed_equals_fresh_pack(loaded);
}

TEST(SerializePack, LegacyPackageWithoutPackIsRepackedOnLoad) {
  const compile::CompiledModel model = compile_small(nb201::Genotype::from_index(888));
  const std::vector<std::byte> baseline = serialize::save_model_bytes(model);

  // Rename PACK's tag in the section table to a fourcc this reader has
  // never heard of. That simulates both compat directions at once: a
  // future writer's extra section (unknown tags are stored and
  // ignored) and a pre-PACK legacy package (find_section comes back
  // empty, so the loader must repack from the graph weights).
  const serialize::PackageInfo info = serialize::read_package_info(baseline);
  std::size_t pack_index = info.sections.size();
  for (std::size_t i = 0; i < info.sections.size(); ++i) {
    if (info.sections[i].tag == "PACK") pack_index = i;
  }
  ASSERT_LT(pack_index, info.sections.size());
  std::vector<std::byte> legacy = baseline;
  poke_le(legacy, kTableAt + pack_index * kEntryBytes, 0x5A5A5A5Au, 4);  // "ZZZZ"
  reforge_checksums(legacy);

  const compile::CompiledModel loaded = serialize::load_model_bytes(legacy);
  expect_packed_equals_fresh_pack(loaded);

  const Tensor input = sample_input(8, 7);
  rt::Executor want(model.graph, model.plan, rt::ExecOptions{1});
  rt::Executor got(loaded.graph, loaded.plan, rt::ExecOptions{1});
  EXPECT_EQ(serialize::logits_hash_hex(got.run(input)),
            serialize::logits_hash_hex(want.run(input)))
      << "repack fallback changed the numerics";
}

TEST(SerializePack, ForgedEntryGeometryFailsClosed) {
  const compile::CompiledModel model = compile_small(nb201::Genotype::from_index(888));
  const std::vector<std::byte> baseline = serialize::save_model_bytes(model);
  const serialize::SectionInfo pack = section_named(baseline, "PACK");
  ASSERT_GE(pack.size, kPackFirstEntryAt + 29);

  // cout that disagrees with the node's weight tensor: a forged value
  // with valid checksums must die on the geometry cross-check, never
  // reach the blob copy.
  std::vector<std::byte> forged = baseline;
  poke_le(forged, pack.offset + kPackCoutAt, 0x7FFFFFFFu, 4);
  reforge_checksums(forged);
  EXPECT_THROW(serialize::load_model_bytes(forged), SerializeError);
}

TEST(SerializePack, UnknownLayoutTagIsSkippedAndRepacked) {
  const compile::CompiledModel model = compile_small(nb201::Genotype::from_index(888));
  const std::vector<std::byte> baseline = serialize::save_model_bytes(model);
  const serialize::SectionInfo pack = section_named(baseline, "PACK");
  ASSERT_GE(pack.size, kPackFirstEntryAt + 29);

  // A layout byte from the future: the entry is skipped (its geometry
  // is opaque to this reader), the node falls through to the repack
  // fallback, and execution stays bit-identical.
  std::vector<std::byte> forged = baseline;
  poke_le(forged, pack.offset + kPackLayoutAt, 42, 1);
  reforge_checksums(forged);

  const compile::CompiledModel loaded = serialize::load_model_bytes(forged);
  expect_packed_equals_fresh_pack(loaded);

  const Tensor input = sample_input(8, 7);
  rt::Executor want(model.graph, model.plan, rt::ExecOptions{1});
  rt::Executor got(loaded.graph, loaded.plan, rt::ExecOptions{1});
  EXPECT_EQ(serialize::logits_hash_hex(got.run(input)),
            serialize::logits_hash_hex(want.run(input)));
}

// ----------------------------------------------------------- golden ties

/// The fixed golden scenario of tests/test_compile_e2e.cpp.
compile::CompiledModel golden_model() {
  const nb201::Genotype genotype = nb201::Genotype::from_string(
      "|nor_conv_3x3~0|+|none~0|skip_connect~1|+|avg_pool_3x3~0|nor_conv_1x1~1|nor_conv_3x3~2|");
  compile::CompilerOptions options;
  options.macro.cells_per_stage = 1;
  options.macro.input_size = 16;
  options.seed = 7;
  return compile::compile_genotype(genotype, options);
}

TEST(SerializeGolden, ReloadedLogitsHashMatchesCompileReportGolden) {
  const std::string want = serialize::read_golden_logits_hash(
      MICRONAS_SOURCE_DIR "/tests/golden/compile_report.golden");

  const std::vector<std::byte> bytes = serialize::save_model_bytes(golden_model());
  const compile::CompiledModel loaded = serialize::load_model_bytes(bytes);
  rt::Executor exec(loaded.graph, loaded.plan, rt::ExecOptions{1});
  const Tensor logits = exec.run(sample_input(16, 7));
  EXPECT_EQ(serialize::logits_hash_hex(logits), want)
      << "save -> load -> execute no longer reproduces the golden compile-report logits";
}

/// Stable layout summary of the golden scenario's package: section
/// sizes plus content checksums for the deterministic sections. META
/// embeds the writer's variable-length git sha, so only its presence
/// is pinned (neither size nor checksum); RPRT carries pass wall
/// times, so only its size is.
std::string package_summary() {
  const compile::CompiledModel model = golden_model();
  const std::vector<std::byte> bytes = serialize::save_model_bytes(model);
  const serialize::PackageInfo info = serialize::read_package_info(bytes);
  std::ostringstream ss;
  ss << "format_version " << info.format_version << "\n";
  ss << "arch " << info.arch << "\n";
  for (const serialize::SectionInfo& s : info.sections) {
    ss << "section " << s.tag;
    if (s.tag != "META") ss << " " << s.size;
    if (s.tag == "GRPH" || s.tag == "CNST" || s.tag == "PLAN") {
      char sum[32];
      std::snprintf(sum, sizeof(sum), "%016llx", static_cast<unsigned long long>(s.checksum));
      ss << " checksum " << sum;
    }
    ss << "\n";
  }
  ss << "arena_bytes " << model.plan.arena_bytes << "\n";
  return ss.str();
}

TEST(SerializeGolden, PackageLayoutMatchesGolden) {
  const char* path = MICRONAS_SOURCE_DIR "/tests/golden/serialize_package.golden";
  const std::string actual = package_summary();

  if (std::getenv("MICRONAS_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "golden file regenerated at " << path;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " — run scripts/update_golden.sh";
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(expected.str(), actual)
      << "package layout drifted; if intentional, run scripts/update_golden.sh";
}

}  // namespace
}  // namespace micronas
