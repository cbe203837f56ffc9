#include "src/rt/runtime.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "src/obs/trace.hpp"
#include "src/rt/kernels_f32.hpp"
#include "src/rt/kernels_int8.hpp"
#include "src/rt/kernels_int8_gemm.hpp"

namespace micronas::rt {

namespace {

/// Per-node Σ_k w[c,k] for kQConv2d / kQLinear (the kernels'
/// zero-point correction term).
std::vector<std::vector<std::int32_t>> compute_weight_sums(const ir::Graph& graph) {
  std::vector<std::vector<std::int32_t>> sums_by_node(static_cast<std::size_t>(graph.size()));
  for (const auto& node : graph.nodes()) {
    if (node.op != ir::OpKind::kQConv2d && node.op != ir::OpKind::kQLinear) continue;
    const ir::Node& w = graph.node(node.inputs[1]);
    const int cout = w.type.shape[0];
    const auto patch = w.type.shape.numel() / static_cast<std::size_t>(cout);
    std::vector<std::int32_t> sums(static_cast<std::size_t>(cout), 0);
    for (int c = 0; c < cout; ++c) {
      std::int32_t s = 0;
      for (std::size_t k = 0; k < patch; ++k) {
        s += w.i8_data[static_cast<std::size_t>(c) * patch + k];
      }
      sums[static_cast<std::size_t>(c)] = s;
    }
    sums_by_node[static_cast<std::size_t>(node.id)] = std::move(sums);
  }
  return sums_by_node;
}

/// Conv scratch high-water in BYTES across the graph's kQConv2d nodes:
/// whichever of the scalar kernel's int8 im2col and the dot16 GEMM's
/// int16 image + operand (qconv_gemm_scratch_bytes) is larger, since
/// kernel selection happens per dispatch. Scales with each node's own
/// batch dimension times `batch_mult` (the executor's batch capacity).
std::size_t max_qconv_scratch_bytes(const ir::Graph& graph, int batch_mult) {
  std::size_t max_bytes = 0;
  for (const auto& node : graph.nodes()) {
    if (node.op != ir::OpKind::kQConv2d) continue;
    const ir::Node& x = graph.node(node.inputs[0]);
    const std::size_t batch = static_cast<std::size_t>(batch_mult) *
                              static_cast<std::size_t>(node.type.shape[0]);
    const std::size_t scalar_bytes = batch * static_cast<std::size_t>(node.type.shape[2]) *
                                     static_cast<std::size_t>(node.type.shape[3]) *
                                     static_cast<std::size_t>(x.type.shape[1]) *
                                     static_cast<std::size_t>(node.conv.kernel * node.conv.kernel);
    const std::size_t gemm_bytes =
        batch * qconv_gemm_scratch_bytes(x.type.shape[1], x.type.shape[2], x.type.shape[3],
                                         node.conv.kernel, node.conv.pad, node.type.shape[2],
                                         node.type.shape[3]);
    max_bytes = std::max({max_bytes, scalar_bytes, gemm_bytes});
  }
  return max_bytes;
}

/// The unplanned layout: every value at its own aligned arena offset,
/// so no two values ever share bytes (the plan's naive total).
MemoryPlan disjoint_plan(const ir::Graph& graph) {
  MemoryPlan plan;
  for (const auto& node : graph.nodes()) {
    if (node.is_const()) continue;
    BufferPlacement b;
    b.node_id = node.id;
    b.offset = plan.arena_bytes;
    b.size = node.type.bytes();
    plan.buffers.push_back(b);
    plan.arena_bytes += (b.size + kMaxPlanAlignment - 1) / kMaxPlanAlignment * kMaxPlanAlignment;
  }
  plan.naive_bytes = plan.arena_bytes;
  return plan;
}

MemoryPlan plan_at_batch(const ir::Graph& graph, MemoryPlanOptions options, int batch) {
  options.batch = batch;
  return plan_memory(graph, options);
}

const std::byte* const_data(const ir::Node& node) {
  switch (node.type.dtype) {
    case ir::DType::kF32:
      return reinterpret_cast<const std::byte*>(node.f32_data.data().data());
    case ir::DType::kI8:
      return reinterpret_cast<const std::byte*>(node.i8_data.data());
    case ir::DType::kI32:
      return reinterpret_cast<const std::byte*>(node.i32_data.data());
  }
  throw std::logic_error("Executor: unhandled constant dtype");
}

/// A kQConv2d node's geometry (batch through out_w) from its shapes.
QConv2dArgs qconv_geometry(const ir::Graph& graph, const ir::Node& node) {
  const Shape& x = graph.node(node.inputs[0]).type.shape;
  QConv2dArgs a;
  a.batch = x[0];
  a.cin = x[1];
  a.h = x[2];
  a.w = x[3];
  a.cout = node.type.shape[1];
  a.kernel = node.conv.kernel;
  a.stride = node.conv.stride;
  a.pad = node.conv.pad;
  a.out_h = node.type.shape[2];
  a.out_w = node.type.shape[3];
  return a;
}

/// Row-strip streamed qconv2d / qavg_pool over ONE sample whose output
/// plane overlays its input plane (the planner placed both at one
/// offset). Strips of `strip_h` output rows run bottom-up; each
/// iteration first gathers strip si's input rows (halo included, with
/// padding materialized as the input zero point — bit-identical to the
/// padded kernel, whose pad cells contribute zero after the zero-point
/// correction), then scatters the previously computed strip from the
/// staging area, then computes strip si into staging. Scattered rows
/// start at least `strip_h >= pad` rows below anything a future gather
/// still reads, so the overlay never clobbers live input. The partial
/// strip, if any, is strip 0 (the top), keeping every in-loop scatter
/// at full strip height.
void run_strip_streamed(const ir::Node& node, const Shape& xs, int strip_h,
                        const std::int8_t* x, std::int8_t* y, std::int8_t* scratch,
                        std::int8_t* columns, const std::int32_t* weight_sum,
                        const std::int8_t* weight, const std::int32_t* bias,
                        const PackedWeights* packed, ThreadPool* pool) {
  const int cin = xs[1];
  const int in_h = xs[2];
  const int in_w = xs[3];
  const int cout = node.type.shape[1];
  const int out_h = node.type.shape[2];
  const int out_w = node.type.shape[3];
  const int k = node.conv.kernel;
  const int pad = node.conv.pad;
  const int wp = in_w + 2 * pad;
  const int in_zp = node.quant.in_q.zero_point;
  // Same split as strip_scratch_bytes: gather block (aligned), then stage.
  const long long gather_cap = static_cast<long long>(cin) * (strip_h - 1 + k) * wp;
  std::int8_t* gather = scratch;
  std::int8_t* stage =
      scratch + (gather_cap + kMaxPlanAlignment - 1) / kMaxPlanAlignment * kMaxPlanAlignment;
  const int zp_byte = static_cast<int>(static_cast<std::int8_t>(in_zp));

  const int strips = (out_h + strip_h - 1) / strip_h;
  int prev_a = -1;
  int prev_h = 0;
  for (int si = strips - 1; si >= 0; --si) {
    const int end = out_h - (strips - 1 - si) * strip_h;
    const int a = std::max(0, end - strip_h);
    const int h = end - a;
    const int in_rows = h - 1 + k;  // h + 2*pad: the strip plus its halo
    for (int c = 0; c < cin; ++c) {
      std::int8_t* plane = gather + static_cast<std::ptrdiff_t>(c) * in_rows * wp;
      for (int r = 0; r < in_rows; ++r) {
        const int iy = a - pad + r;
        std::int8_t* row = plane + static_cast<std::ptrdiff_t>(r) * wp;
        if (iy < 0 || iy >= in_h) {
          std::memset(row, zp_byte, static_cast<std::size_t>(wp));
          continue;
        }
        if (pad > 0) {
          std::memset(row, zp_byte, static_cast<std::size_t>(pad));
          std::memset(row + pad + in_w, zp_byte, static_cast<std::size_t>(pad));
        }
        std::memcpy(row + pad, x + (static_cast<std::ptrdiff_t>(c) * in_h + iy) * in_w,
                    static_cast<std::size_t>(in_w));
      }
    }
    if (prev_a >= 0) {
      for (int c = 0; c < cout; ++c) {
        std::memcpy(y + (static_cast<std::ptrdiff_t>(c) * out_h + prev_a) * out_w,
                    stage + static_cast<std::ptrdiff_t>(c) * prev_h * out_w,
                    static_cast<std::size_t>(prev_h) * static_cast<std::size_t>(out_w));
      }
    }
    if (node.op == ir::OpKind::kQConv2d) {
      QConv2dArgs ar;
      ar.batch = 1;
      ar.cin = cin;
      ar.h = in_rows;
      ar.w = wp;
      ar.cout = cout;
      ar.kernel = k;
      ar.stride = 1;
      ar.pad = 0;  // padding is already materialized in the gather
      ar.out_h = h;
      ar.out_w = out_w;
      ar.in_zp = in_zp;
      ar.out_zp = node.quant.out_q.zero_point;
      ar.fused_relu = node.conv.fused_relu;
      ar.input = gather;
      ar.weight = weight;
      ar.bias = bias;
      ar.weight_sum = weight_sum;
      ar.mantissa = node.quant.mantissa.data();
      ar.shift = node.quant.shift.data();
      ar.columns = columns;
      ar.output = stage;
      qconv2d_auto(ar, packed, pool);
    } else {
      qavg_pool(gather, stage, 1, cin, in_rows, wp, k, 1, 0, h, out_w, in_zp,
                node.quant.mantissa[0], node.quant.shift[0], node.quant.out_q.zero_point);
    }
    prev_a = a;
    prev_h = h;
  }
  for (int c = 0; c < cout; ++c) {
    std::memcpy(y + (static_cast<std::ptrdiff_t>(c) * out_h + prev_a) * out_w,
                stage + static_cast<std::ptrdiff_t>(c) * prev_h * out_w,
                static_cast<std::size_t>(prev_h) * static_cast<std::size_t>(out_w));
  }
}

/// Static per-node attribution (op name, selected kernel variant,
/// bytes touched, strip height) resolved once at executor
/// construction. The same facts feed obs span tags and the profile
/// accumulator, so the hot loop only reads this table.
std::vector<OpProfileEntry> build_profile_table(const ir::Graph& graph, const MemoryPlan& plan,
                                                const PackedWeightSet* packed) {
  std::vector<OpProfileEntry> table(static_cast<std::size_t>(graph.size()));
  for (const auto& node : graph.nodes()) {
    if (node.is_const() || node.op == ir::OpKind::kInput) continue;
    OpProfileEntry& e = table[static_cast<std::size_t>(node.id)];
    e.node_id = node.id;
    e.op = op_kind_name(node.op).c_str();  // static storage in op_kind_name
    e.bytes = node.type.bytes();
    for (const int id : node.inputs) {
      const ir::Node& in = graph.node(id);
      if (!in.is_const()) e.bytes += in.type.bytes();
    }
    if (const StripStream* strip = plan.find_strip(node.id)) e.strip_h = strip->strip_h;
    if (node.op == ir::OpKind::kQConv2d) {
      e.kernel = qconv_kernel_name(select_qconv_kernel(qconv_geometry(graph, node),
                                                       packed ? packed->find(node.id) : nullptr));
    } else if (node.op == ir::OpKind::kQLinear) {
      const Shape& x = graph.node(node.inputs[0]).type.shape;
      QLinearArgs a{};
      a.batch = x[0];
      a.in_features = x[1];
      a.out_features = node.type.shape[1];
      e.kernel = qlinear_kernel_name(
          select_qlinear_kernel(a, packed ? packed->find(node.id) : nullptr));
    }
  }
  return table;
}

/// Span + optional timing around one node dispatch. Disabled tracing
/// and profiling cost one predicted branch each.
class NodeScope {
 public:
  NodeScope(OpProfileEntry& entry, bool profile)
      : entry_(entry), span_(entry.op), profile_(profile) {
    if (span_.active()) {
      span_.tag("node", static_cast<long long>(entry_.node_id));
      if (entry_.kernel[0] != '\0') span_.tag("kernel", entry_.kernel);
      span_.tag("bytes", entry_.bytes);
      if (entry_.strip_h > 0) span_.tag("strip_h", static_cast<long long>(entry_.strip_h));
    }
    if (profile_) start_us_ = obs::now_us();
  }
  ~NodeScope() {
    if (profile_) {
      entry_.calls += 1;
      entry_.total_ms += (obs::now_us() - start_us_) / 1000.0;
    }
  }
  NodeScope(const NodeScope&) = delete;
  NodeScope& operator=(const NodeScope&) = delete;

 private:
  OpProfileEntry& entry_;
  obs::Span span_;
  bool profile_;
  double start_us_ = 0.0;
};

}  // namespace

Executor::Executor(const ir::Graph& graph, const MemoryPlan& plan, ExecOptions options)
    : Executor(graph, plan, 1, options) {}

Executor::Executor(const ir::Graph& graph, ExecOptions options)
    : Executor(graph, disjoint_plan(graph), 1, options) {}

Executor::Executor(const ir::Graph& graph, int batch_capacity, ExecOptions options,
                   MemoryPlanOptions plan_options)
    : Executor(graph, plan_at_batch(graph, plan_options, batch_capacity), batch_capacity,
               options) {}

Executor::Executor(const ir::Graph& graph, MemoryPlan plan, int batch_capacity,
                   ExecOptions options)
    : graph_(graph), plan_(std::move(plan)), capacity_(batch_capacity), options_(options) {
  if (capacity_ < 1) throw std::invalid_argument("Executor: batch capacity must be >= 1");
  graph_.validate();
  const ir::Node& in = graph_.node(graph_.input());
  const ir::Node& out = graph_.node(graph_.output());
  if (in.type.dtype != ir::DType::kF32 || out.type.dtype != ir::DType::kF32) {
    throw std::invalid_argument(
        "Executor: graph must start and end in f32 nodes (insert a quantize / dequantize)");
  }
  if (capacity_ > 1 && in.type.shape[0] != 1) {
    throw std::invalid_argument(
        "Executor: batch capacity > 1 needs a graph compiled at batch 1 — the input batch dim "
        "is the sample axis the executor widens; got input " +
        in.type.shape.to_string());
  }
  // The plan must be a batch-capacity plan of this graph: every
  // placement holds capacity_ samples of its value.
  for (const BufferPlacement& b : plan_.buffers) {
    const long long want = graph_.node(b.node_id).type.bytes() * capacity_;
    if (b.size != want) {
      throw std::invalid_argument("Executor: plan holds " + std::to_string(b.size) +
                                  " B for node %" + std::to_string(b.node_id) + ", want " +
                                  std::to_string(want) + " B at batch capacity " +
                                  std::to_string(capacity_));
    }
    // At capacity > 1 the per-sample slot strides of an in-place pair
    // only line up when the two buffers are the same size (plan_memory
    // enforces this; a hand-built plan must not bypass it).
    if (capacity_ > 1 && b.alias_of >= 0) {
      const BufferPlacement* target = plan_.find(b.alias_of);
      if (target == nullptr || target->size != b.size) {
        throw std::invalid_argument(
            "Executor: aliased placement %" + std::to_string(b.node_id) +
            " must match its target's size at batch capacity > 1");
      }
    }
  }
  for (const StripStream& s : plan_.strips) {
    const BufferPlacement* y = plan_.find(s.node_id);
    const BufferPlacement* x = plan_.find(graph_.node(s.node_id).inputs[0]);
    if (capacity_ > 1 && (y == nullptr || x == nullptr || y->size != x->size)) {
      throw std::invalid_argument(
          "Executor: streamed placement %" + std::to_string(s.node_id) +
          " must match its input's size at batch capacity > 1");
    }
  }

  if (options_.threads != 1) pool_ = std::make_unique<ThreadPool>(options_.threads);
  arena_.resize(static_cast<std::size_t>(plan_.arena_bytes));
  // Resolve every node's storage once: the walk never searches the plan.
  slots_.resize(static_cast<std::size_t>(graph_.size()));
  for (const auto& node : graph_.nodes()) {
    Slots& s = slots_[static_cast<std::size_t>(node.id)];
    if (node.is_const()) {
      s.base = const_cast<std::byte*>(const_data(node));
      continue;
    }
    const BufferPlacement* b = plan_.find(node.id);
    if (!b) {
      throw std::logic_error("Executor: node %" + std::to_string(node.id) +
                             " has no arena placement");
    }
    s.base = arena_.data() + b->offset;
    s.stride = static_cast<std::size_t>(node.type.bytes());
  }
  weight_sums_ = compute_weight_sums(graph_);
  columns_.resize(max_qconv_scratch_bytes(graph_, capacity_));
  stream_scratch_.resize(static_cast<std::size_t>(plan_.stream_scratch_bytes));
  if (options_.packed != nullptr) {
    packed_ = options_.packed;
  } else if (fast_kernels_enabled()) {
    owned_packed_ = pack_graph_weights(graph_);
    packed_ = &owned_packed_;
  }
  profile_ = build_profile_table(graph_, plan_, packed_);
}

std::size_t Executor::sample_io_bytes(const ir::Graph& graph, const ir::Node& node) {
  // f32 conv/linear cost is dominated by per-element arithmetic, not
  // the bytes moved — always worth a pool dispatch.
  if (node.op == ir::OpKind::kConv2d || node.op == ir::OpKind::kLinear) return kHeavySample;
  std::size_t bytes = static_cast<std::size_t>(node.type.bytes());
  for (const int id : node.inputs) {
    const ir::Node& in = graph.node(id);
    if (in.is_const()) continue;  // weights/params are shared, not per-sample
    bytes += static_cast<std::size_t>(in.type.bytes());
  }
  return bytes;
}

template <typename Fn>
void Executor::each_sample(const ir::Node& node, int n, const Fn& fn) {
  // A pool dispatch costs on the order of a context switch; for a
  // memory-bound broadcast op that only pays off once a sample touches
  // tens of KB (kMinParallelSampleBytes, compared against
  // sample_io_bytes so every op is measured in the same unit). Below
  // that the serial loop is strictly faster, and the results are
  // identical either way (samples are independent).
  if (n > 1 && pool_ && pool_->size() > 1 &&
      sample_io_bytes(graph_, node) >= kMinParallelSampleBytes) {
    pool_->parallel_for(static_cast<std::size_t>(n),
                        [&fn](std::size_t i) { fn(static_cast<int>(i)); });
  } else {
    for (int i = 0; i < n; ++i) fn(i);
  }
}

std::vector<Tensor> Executor::run_batch(std::span<const Tensor* const> inputs) {
  const int n = static_cast<int>(inputs.size());
  if (n < 1 || n > capacity_) {
    throw std::invalid_argument("Executor::run_batch: batch of " + std::to_string(n) +
                                " outside [1, capacity " + std::to_string(capacity_) + "]");
  }
  const ir::Node& in = graph_.node(graph_.input());
  for (int s = 0; s < n; ++s) {
    const Tensor& x = *inputs[static_cast<std::size_t>(s)];
    if (!(x.shape() == in.type.shape)) {
      throw std::invalid_argument("Executor::run_batch: input " + std::to_string(s) +
                                  " shape " + x.shape().to_string() + " != graph input " +
                                  in.type.shape.to_string());
    }
    std::memcpy(slot<float>(in.id, s), x.data().data(), x.numel() * sizeof(float));
  }
  // The observer sees a value's n slots as one span.
  const auto observe = [&](const ir::Node& node) {
    if (observer_ && node.type.dtype == ir::DType::kF32) {
      observer_(node.id, std::span<const float>(slot<const float>(node.id, 0),
                                                n * node.type.shape.numel()));
    }
  };
  observe(in);

  obs::Span span("rt.run");
  span.tag("batch", static_cast<long long>(n));
  for (const auto& node : graph_.nodes()) {
    if (node.is_const() || node.op == ir::OpKind::kInput) continue;
    {
      NodeScope scope(profile_[static_cast<std::size_t>(node.id)], options_.profile);
      dispatch(node, n);
    }
    observe(node);
  }

  // A fully folded graph ends in a constant, which every slot shares.
  const ir::Node& out = graph_.node(graph_.output());
  std::vector<Tensor> results;
  results.reserve(static_cast<std::size_t>(n));
  for (int s = 0; s < n; ++s) {
    Tensor& r = results.emplace_back(out.type.shape);
    std::memcpy(r.data().data(), slot<const float>(out.id, s), r.numel() * sizeof(float));
  }
  return results;
}

std::vector<Tensor> Executor::run_batch(std::span<const Tensor> inputs) {
  std::vector<const Tensor*> ptrs;
  ptrs.reserve(inputs.size());
  for (const Tensor& t : inputs) ptrs.push_back(&t);
  return run_batch(std::span<const Tensor* const>(ptrs.data(), ptrs.size()));
}

Tensor Executor::run(const Tensor& input) {
  const Tensor* p = &input;
  return std::move(run_batch(std::span<const Tensor* const>(&p, 1)).front());
}

void Executor::dispatch(const ir::Node& node, int n) {
  const Shape& shape = node.type.shape;
  const Shape& x = graph_.node(node.inputs[0]).type.shape;
  const std::size_t numel = shape.numel();  // one slot: the graph batch
  const auto f32 = [&](std::size_t i, int s) { return slot<const float>(node.inputs[i], s); };
  const auto i8 = [&](std::size_t i, int s) { return slot<const std::int8_t>(node.inputs[i], s); };
  const std::int32_t* weight_sum = weight_sums_[static_cast<std::size_t>(node.id)].data();
  const PackedWeights* packed = packed_ ? packed_->find(node.id) : nullptr;

  if (const StripStream* strip = plan_.find_strip(node.id)) {
    // Output overlays input: stream each sample in row strips through
    // the one strip scratch, so samples run serially. The planner only
    // streams nodes whose per-sample input and output bases coincide
    // (batch 1, or cin == cout), and the constructor re-checks the
    // slot sizes at capacity > 1.
    const bool conv = node.op == ir::OpKind::kQConv2d;
    const std::ptrdiff_t per_in = static_cast<std::ptrdiff_t>(x[1]) * x[2] * x[3];
    const std::ptrdiff_t per_out = static_cast<std::ptrdiff_t>(shape[1]) * shape[2] * shape[3];
    for (int j = 0; j < n * x[0]; ++j) {
      run_strip_streamed(node, x, strip->strip_h, i8(0, 0) + j * per_in,
                         slot<std::int8_t>(node.id, 0) + j * per_out, stream_scratch_.data(),
                         columns_.data(), weight_sum, conv ? i8(1, 0) : nullptr,
                         conv ? slot<const std::int32_t>(node.inputs[2], 0) : nullptr, packed,
                         pool_.get());
    }
    return;
  }

  switch (node.op) {
    case ir::OpKind::kConv2d:
      // One slot splits its output channels over the pool; several
      // slots split over samples instead, never both.
      each_sample(node, n, [&](int s) {
        conv2d_f32(f32(0, s), f32(1, s), node.inputs.size() == 3 ? f32(2, s) : nullptr,
                   slot<float>(node.id, s), x[0], x[1], x[2], x[3], shape[1], node.conv.kernel,
                   node.conv.stride, node.conv.pad, shape[2], shape[3], node.conv.fused_relu,
                   n == 1 ? pool_.get() : nullptr);
      });
      return;
    case ir::OpKind::kBatchNorm:
      each_sample(node, n, [&](int s) {
        batch_norm_f32(f32(0, s), f32(1, s), f32(2, s), f32(3, s), f32(4, s),
                       slot<float>(node.id, s), x[0], x[1], x[2] * x[3], node.conv.bn_eps);
      });
      return;
    case ir::OpKind::kChannelAffine:
      each_sample(node, n, [&](int s) {
        channel_affine_f32(f32(0, s), f32(1, s), f32(2, s), slot<float>(node.id, s), x[0], x[1],
                           x[2] * x[3]);
      });
      return;
    case ir::OpKind::kRelu:
      each_sample(node, n, [&](int s) { relu_f32(f32(0, s), slot<float>(node.id, s), numel); });
      return;
    case ir::OpKind::kAvgPool:
      each_sample(node, n, [&](int s) {
        avg_pool_f32(f32(0, s), slot<float>(node.id, s), x[0], x[1], x[2], x[3],
                     node.conv.kernel, node.conv.stride, node.conv.pad, shape[2], shape[3]);
      });
      return;
    case ir::OpKind::kAdd:
      each_sample(node, n, [&](int s) {
        add_f32(f32(0, s), f32(1, s), slot<float>(node.id, s), numel);
      });
      return;
    case ir::OpKind::kGlobalAvgPool:
      each_sample(node, n, [&](int s) {
        global_avg_pool_f32(f32(0, s), slot<float>(node.id, s), x[0], x[1], x[2] * x[3]);
      });
      return;
    case ir::OpKind::kLinear:
      each_sample(node, n, [&](int s) {
        linear_f32(f32(0, s), f32(1, s), node.inputs.size() == 3 ? f32(2, s) : nullptr,
                   slot<float>(node.id, s), x[0], x[1], shape[1]);
      });
      return;
    case ir::OpKind::kQuantize:
      each_sample(node, n, [&](int s) {
        quantize_buffer(f32(0, s), slot<std::int8_t>(node.id, s), numel, node.quant.out_q.scale,
                        node.quant.out_q.zero_point);
      });
      return;
    case ir::OpKind::kDequantize:
      each_sample(node, n, [&](int s) {
        dequantize_buffer(i8(0, s), slot<float>(node.id, s), numel, node.quant.in_q.scale,
                          node.quant.in_q.zero_point);
      });
      return;
    case ir::OpKind::kQConv2d: {
      // The widened-M path: every slot in ONE im2col GEMM invocation
      // with M = n * batch * out_h * out_w, partitioned over output
      // channels.
      QConv2dArgs a = qconv_geometry(graph_, node);
      a.batch *= n;
      a.in_zp = node.quant.in_q.zero_point;
      a.out_zp = node.quant.out_q.zero_point;
      a.fused_relu = node.conv.fused_relu;
      a.input = i8(0, 0);
      a.weight = i8(1, 0);
      a.bias = slot<const std::int32_t>(node.inputs[2], 0);
      a.weight_sum = weight_sum;
      a.mantissa = node.quant.mantissa.data();
      a.shift = node.quant.shift.data();
      a.columns = columns_.data();
      a.output = slot<std::int8_t>(node.id, 0);
      qconv2d_auto(a, packed, pool_.get());
      return;
    }
    case ir::OpKind::kQAvgPool:
      each_sample(node, n, [&](int s) {
        qavg_pool(i8(0, s), slot<std::int8_t>(node.id, s), x[0], x[1], x[2], x[3],
                  node.conv.kernel, node.conv.stride, node.conv.pad, shape[2], shape[3],
                  node.quant.in_q.zero_point, node.quant.mantissa[0], node.quant.shift[0],
                  node.quant.out_q.zero_point);
      });
      return;
    case ir::OpKind::kQAdd:
      each_sample(node, n, [&](int s) {
        qadd(i8(0, s), i8(1, s), slot<std::int8_t>(node.id, s), numel, node.quant.in_q.zero_point,
             node.quant.mantissa[0], node.quant.shift[0], node.quant.in2_q.zero_point,
             node.quant.mantissa2, node.quant.shift2, node.quant.out_q.zero_point);
      });
      return;
    case ir::OpKind::kQGlobalAvgPool:
      each_sample(node, n, [&](int s) {
        qglobal_avg_pool(i8(0, s), slot<std::int8_t>(node.id, s), x[0], x[1], x[2], x[3],
                         node.quant.in_q.zero_point, node.quant.mantissa[0],
                         node.quant.shift[0], node.quant.out_q.zero_point);
      });
      return;
    case ir::OpKind::kQLinear: {
      // qlinear is already an M-widened GEMM: every slot's rows, one call.
      QLinearArgs a;
      a.batch = n * x[0];
      a.in_features = x[1];
      a.out_features = shape[1];
      a.in_zp = node.quant.in_q.zero_point;
      a.out_zp = node.quant.out_q.zero_point;
      a.input = i8(0, 0);
      a.weight = i8(1, 0);
      a.bias = slot<const std::int32_t>(node.inputs[2], 0);
      a.weight_sum = weight_sum;
      a.mantissa = node.quant.mantissa.data();
      a.shift = node.quant.shift.data();
      a.output = slot<std::int8_t>(node.id, 0);
      qlinear_auto(a, packed, pool_.get());
      return;
    }
    case ir::OpKind::kQRelu:
      each_sample(node, n, [&](int s) {
        qrelu(i8(0, s), slot<std::int8_t>(node.id, s), numel, node.quant.out_q.zero_point);
      });
      return;
    case ir::OpKind::kInput:
    case ir::OpKind::kConst:
      return;  // never dispatched: the walk skips them
  }
  throw std::logic_error("Executor::dispatch: unhandled op kind");
}

}  // namespace micronas::rt
