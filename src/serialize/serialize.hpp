// Versioned binary model package (.mnpkg): persistent CompiledModel.
//
// PR 4 closed the search -> executable loop but a compiled model died
// with the process; this module is the deploy-once/serve-many half
// (the TFLite-Micro flatbuffer-model idiom, scaled to this repo's IR).
// save_model() serializes a compile::CompiledModel — IR graph in
// schedule order, const/weight blobs, quant params, memory plan and
// compile metadata — and load_model() reconstructs it bit-exactly: the
// reloaded graph executes to the same logits hash the compile report
// golden records, and save(load(save(m))) is byte-identical.
//
// File layout (all integers little-endian; see bytes.hpp):
//
//   header   magic "MNASPKG\0" | u32 format_version | u32 endian tag
//            0x01020304 | u64 file_size | u32 section_count | u32 pad
//            | u64 header checksum
//   table    section_count x { u32 tag | u32 pad | u64 offset
//            | u64 size | u64 package_checksum of the payload }
//   payload  sections, each zero-padded to a 64-byte file offset
//
// Integrity is one pass over the file (format version 2). The header
// checksum is package_checksum over the header and table, with its own
// field read as zero; the table in turn carries every section's
// checksum. Sections must ascend through the file without overlapping
// the table or each other, and every byte outside the header, the
// table and the sections (the padding) must be zero. Each file byte is
// thus verified exactly once: by the header checksum, by its section's
// checksum, or by the zero check. Version 1 packages are rejected.
//
// Sections (unknown tags are ignored for forward compatibility; the
// format version only bumps on incompatible layout changes):
//
//   META  producer, format version, git sha of the writer, arch string
//   GRPH  node records in schedule order; const payloads point into CNST
//   CNST  raw constant blobs, each 64-byte aligned relative to the file
//         start so a flash/mmap deployment can use them in place
//   PLAN  static arena plan (offsets, lifetimes, schedule)
//   RPRT  the full CompileReport (pass telemetry, latency, plan text)
//   PACK  kernel weight-layout table (optional, additive): per qconv /
//         qlinear node, a rt::WeightLayout tag plus the CNST location
//         of the packed GEMM panels, so a server runs the blocked int8
//         kernels straight off the loaded image with zero repacking.
//         Packages without it (or with layout tags this reader doesn't
//         know) load fine and repack from the canonical weights.
//
// The loader is fail-closed: every offset/size is bounds-checked, the
// checksums and the zero check must hold (any single changed byte is
// rejected), the graph is re-validated node by node (declared output
// types must equal re-inferred types), and the memory plan's liveness
// and overlap invariants are re-derived from the loaded graph before an
// Executor ever sees the model. A package that loads is a package that
// runs.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/compile/compiler.hpp"
#include "src/serialize/bytes.hpp"

namespace micronas::serialize {

inline constexpr std::uint32_t kFormatVersion = 2;
inline constexpr int kConstAlignment = 64;  // mmap/flash-friendly

/// The package checksum: four independent 64-bit lanes over the
/// little-endian 8-byte words of each 32-byte block, then the byte
/// tail, the length and a final avalanche. Every step is a bijection of
/// the running state, so changing any one byte of `bytes` always
/// changes the value. The lane round and the avalanche are xxHash64's;
/// the lane merge and the tail are not, so the value is not XXH64's.
/// Words are read with memcpy and byte-swapped on big-endian hosts, so
/// the value depends neither on the host byte order nor on the
/// alignment of `bytes`.
std::uint64_t package_checksum(std::span<const std::byte> bytes);

/// Section table entry as read back from a package header.
struct SectionInfo {
  std::string tag;            // four-character code, e.g. "GRPH"
  std::uint64_t offset = 0;   // from the start of the file
  std::uint64_t size = 0;     // payload bytes (before padding)
  std::uint64_t checksum = 0; // package_checksum over the payload
};

/// Header + section table peek (no graph reconstruction): what a
/// registry or CLI shows before deciding to load the blob.
struct PackageInfo {
  std::uint32_t format_version = 0;
  std::uint64_t file_bytes = 0;
  std::string producer;
  std::string git_sha;   // writer provenance, "unknown" outside git
  std::string arch;      // canonical genotype string
  std::vector<SectionInfo> sections;

  std::string to_string() const;
};

/// Serialize to an in-memory package image.
std::vector<std::byte> save_model_bytes(const compile::CompiledModel& model);

/// Serialize to `path` (atomically enough for tests: write then flush;
/// throws SerializeError on I/O failure). Returns the package size.
std::uint64_t save_model(const compile::CompiledModel& model, const std::string& path);

/// Parse + validate a package image; throws SerializeError on any
/// corruption. The returned model is self-contained (owns its consts).
compile::CompiledModel load_model_bytes(std::span<const std::byte> bytes);

/// Load from `path`; throws SerializeError on I/O failure or corruption.
compile::CompiledModel load_model(const std::string& path);

/// A .mnpkg mapped read-only into the address space, validated, with
/// the CompiledModel rebuilt IN PLACE: int8 const payloads and packed
/// GEMM panels are ConstView::borrowed pointers into the mapping
/// (zero-copy weights — this is what the CNST section's 64-byte
/// file-relative alignment exists for), while the graph structure,
/// plan and report are reconstructed through exactly the same
/// fail-closed validation as load_model (checksums, zero padding,
/// attr range checks, Graph::from_nodes re-inference, rt::check_plan).
/// A corrupted or truncated file throws SerializeError at map() time —
/// the declared-file-size check runs against the actual mapping length
/// before any payload is dereferenced, so truncation can never SIGBUS.
///
/// Lifetime contract: model() borrows the mapping, so the
/// MappedPackage must outlive every Graph/Executor that references the
/// model. map() returns a shared_ptr precisely so callers (the serve
/// registry) can alias model handles to the package's lifetime; the
/// destructor unmaps. Instances are immutable after map() — sharing
/// one across threads is race-free.
class MappedPackage {
 public:
  static std::shared_ptr<const MappedPackage> map(const std::string& path);
  ~MappedPackage();

  MappedPackage(const MappedPackage&) = delete;
  MappedPackage& operator=(const MappedPackage&) = delete;

  const compile::CompiledModel& model() const { return model_; }
  const std::string& path() const { return path_; }
  std::uint64_t file_bytes() const { return size_; }
  /// The header checksum, which covers the header and the section
  /// table and through the table every section's checksum: the content
  /// identity a registry keys on (two byte-identical files share it).
  std::uint64_t content_checksum() const { return checksum_; }
  /// Canonical genotype string from META (registry key half two).
  const std::string& arch() const { return arch_; }
  /// True when `p` points inside the mapped file image — what the
  /// zero-copy tests assert about every borrowed const.
  bool contains(const void* p) const {
    const auto* b = static_cast<const std::byte*>(p);
    return b >= base_ && b < base_ + size_;
  }
  /// Bytes the model references in place instead of copying (i8 consts
  /// + packed panels). On a non-POSIX or big-endian fallback some or
  /// all payloads are copied and this shrinks accordingly.
  std::uint64_t zero_copy_bytes() const { return zero_copy_bytes_; }
  /// False when the platform fallback read the file into an owned
  /// buffer instead of mmap (consts still point into that buffer).
  bool is_mmap() const { return map_addr_ != nullptr; }

 private:
  MappedPackage() = default;

  compile::CompiledModel model_;
  std::string path_;
  std::string arch_;
  const std::byte* base_ = nullptr;
  std::uint64_t size_ = 0;
  std::uint64_t checksum_ = 0;
  std::uint64_t zero_copy_bytes_ = 0;
  void* map_addr_ = nullptr;  // munmap handle (null on fallback)
  std::vector<std::byte> fallback_;  // owned image when mmap is unavailable
};

/// Header/section-table/META inspection without reconstructing the
/// graph (still runs the full integrity pass over every section).
PackageInfo read_package_info(std::span<const std::byte> bytes);
PackageInfo read_package_info_file(const std::string& path);

/// FNV-1a64 over the raw logits bytes as the 16-hex-digit string the
/// golden fixtures record (`logits_hash <hex>`). One definition shared
/// by the goldens' writer (test_compile_e2e), the round-trip tests and
/// the serve_bench/CI format-drift gate, so they cannot diverge.
std::string logits_hash_hex(const Tensor& logits);

/// The value of the `logits_hash <hex>` line in a golden fixture;
/// throws SerializeError when the file or the line is missing.
std::string read_golden_logits_hash(const std::string& path);

}  // namespace micronas::serialize
