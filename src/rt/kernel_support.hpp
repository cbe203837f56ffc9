// Internal to src/rt/: what the f32 and int8 kernel translation units
// share — window geometry, the SIMD clone attribute and the one
// requant-domain check. Not part of the runtime's public surface.
#pragma once

#include <stdexcept>
#include <string>

#include "src/hw/quant.hpp"

// Function multiversioning for the hot loops: the build stays baseline
// x86-64 (runs anywhere), but an annotated function is additionally
// compiled for wider SIMD levels and dispatched once at load time via
// the ELF ifunc mechanism — vectorization without making the binary
// ISA-specific. The attribute only affects code generation of the
// annotated function (inlined callees included); integer kernels do
// the same exact int32 arithmetic in every clone, so outputs are
// bit-identical across ISA levels. Off under MICRONAS_PORTABLE and on
// toolchains/targets without the feature. (GCC spells AVX-512 targets
// "arch=x86-64-v4"; clang spells them as plain features.) Also off
// under TSan: the ifunc resolvers run during relocation, before the
// TSan runtime initializes, and crash at program startup — and the CI
// tsan job runs the int8 property suite.
//
// Nothing may throw inside a cloned function, inlined callees
// included. Under GCC 12 an exception leaving a target_clones function
// is not catchable: a ten-line probe (`try { cloned(); } catch (...)
// {}`) aborts in std::terminate, while the same loop without the
// attribute is caught. So every check that can throw (requant shift
// range, shapes) runs in the uncloned entry point before the cloned
// loops start; the requant core itself is selects only.
#if defined(__SANITIZE_THREAD__)
#define MICRONAS_NO_SIMD_CLONES 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MICRONAS_NO_SIMD_CLONES 1
#endif
#endif

#if defined(MICRONAS_NO_SIMD_CLONES) || defined(MICRONAS_PORTABLE)
#define MICRONAS_SIMD_CLONES
#elif defined(__x86_64__) && defined(__ELF__) && defined(__clang__)
#define MICRONAS_SIMD_CLONES __attribute__((target_clones("default", "avx2", "avx512bw")))
#elif defined(__x86_64__) && defined(__ELF__) && defined(__GNUC__)
#define MICRONAS_SIMD_CLONES \
  __attribute__((target_clones("default", "arch=x86-64-v3", "arch=x86-64-v4")))
#else
#define MICRONAS_SIMD_CLONES
#endif

namespace micronas::rt {

struct TapRange {
  int begin = 0;
  int end = 0;  // begin <= end <= out
};

/// Output positions o in [begin, end) whose tap at offset `tap` of a
/// window lands inside the input: 0 <= o * stride - pad + tap < in.
/// The one geometry helper of the window kernels (the f32 im2col rows
/// and columns, both average pools' sweeps). Only about pad / stride
/// outputs at either edge can miss the input, so it walks in from both
/// ends instead of dividing.
inline TapRange valid_outputs(int in, int out, int tap, int stride, int pad) {
  TapRange r{0, out};
  while (r.begin < out && r.begin * stride - pad + tap < 0) ++r.begin;
  while (r.end > r.begin && (r.end - 1) * stride - pad + tap >= in) --r.end;
  return r;
}

/// Entry-point check of a kernel's requant shifts: throws
/// std::invalid_argument unless every shift[0..n) lies inside
/// multiply_by_quantized_multiplier's domain. Graph::validate already
/// guarantees this for executor dispatches; direct kernel callers get
/// a catchable error here instead of undefined shifts inside a clone.
inline void check_requant_shifts(const int* shift, int n, const char* kernel) {
  for (int i = 0; i < n; ++i) {
    if (!requant_shift_in_range(shift[i])) {
      throw std::invalid_argument(std::string(kernel) + ": requant shift " +
                                  std::to_string(shift[i]) + " outside [" +
                                  std::to_string(-kMaxRequantShift) + ", " +
                                  std::to_string(kMaxRequantShift) + "]");
    }
  }
}

}  // namespace micronas::rt
