#include "src/compile/passes.hpp"

#include <cmath>
#include <map>
#include <stdexcept>
#include <vector>

#include "src/rt/kernels_f32.hpp"

namespace micronas::compile {

namespace {

bool is_zero_const(const ir::Node& n) {
  if (!n.is_const() || n.type.dtype != ir::DType::kF32) return false;
  for (float v : n.f32_data.data()) {
    if (v != 0.0F) return false;
  }
  return true;
}

bool all_inputs_const(const ir::Graph& g, const ir::Node& n) {
  if (n.inputs.empty()) return false;
  for (int in : n.inputs) {
    if (!g.node(in).is_const()) return false;
  }
  return true;
}

/// Rewrite every edge (and the output) through the replacement map,
/// resolving chains a->b->c. Returns true if any edge moved.
bool apply_replacements(ir::Graph& g, const std::map<int, int>& replace) {
  if (replace.empty()) return false;
  auto resolve = [&](int id) {
    auto it = replace.find(id);
    while (it != replace.end()) {
      id = it->second;
      it = replace.find(id);
    }
    return id;
  };
  bool changed = false;
  for (int id = 0; id < g.size(); ++id) {
    ir::Node& node = g.node(id);
    for (int& in : node.inputs) {
      const int r = resolve(in);
      if (r != in) {
        in = r;
        changed = true;
      }
    }
  }
  const int out = resolve(g.output());
  if (out != g.output()) {
    g.set_output(out);
    changed = true;
  }
  return changed;
}

/// Compile-time evaluation of an all-constant node with the runtime's
/// own f32 kernels. Returns an empty Tensor for unsupported ops.
Tensor evaluate_const_node(const ir::Graph& g, const ir::Node& n) {
  const auto in = [&](std::size_t i) -> const Tensor& { return g.node(n.inputs[i]).f32_data; };
  Tensor out(n.type.shape);
  switch (n.op) {
    case ir::OpKind::kRelu:
      rt::relu_f32(in(0).data().data(), out.data().data(), out.numel());
      return out;
    case ir::OpKind::kAdd:
      rt::add_f32(in(0).data().data(), in(1).data().data(), out.data().data(), out.numel());
      return out;
    case ir::OpKind::kChannelAffine: {
      const Shape& x = in(0).shape();
      rt::channel_affine_f32(in(0).data().data(), in(1).data().data(), in(2).data().data(),
                             out.data().data(), x[0], x[1], x[2] * x[3]);
      return out;
    }
    case ir::OpKind::kAvgPool: {
      const Shape& x = in(0).shape();
      rt::avg_pool_f32(in(0).data().data(), out.data().data(), x[0], x[1], x[2], x[3],
                       n.conv.kernel, n.conv.stride, n.conv.pad, n.type.shape[2],
                       n.type.shape[3]);
      return out;
    }
    case ir::OpKind::kGlobalAvgPool: {
      const Shape& x = in(0).shape();
      rt::global_avg_pool_f32(in(0).data().data(), out.data().data(), x[0], x[1], x[2] * x[3]);
      return out;
    }
    case ir::OpKind::kConv2d: {
      const Shape& x = in(0).shape();
      const float* bias = n.inputs.size() == 3 ? in(2).data().data() : nullptr;
      std::vector<float> columns(
          rt::conv2d_f32_columns(x[1], n.conv.kernel, n.type.shape[2], n.type.shape[3]));
      rt::conv2d_f32(in(0).data().data(), in(1).data().data(), bias, out.data().data(), x[0],
                     x[1], x[2], x[3], n.type.shape[1], n.conv.kernel, n.conv.stride, n.conv.pad,
                     n.type.shape[2], n.type.shape[3], n.conv.fused_relu, columns.data(),
                     nullptr);
      return out;
    }
    case ir::OpKind::kLinear: {
      const Shape& x = in(0).shape();
      const float* bias = n.inputs.size() == 3 ? in(2).data().data() : nullptr;
      rt::linear_f32(in(0).data().data(), in(1).data().data(), bias, out.data().data(), x[0],
                     x[1], n.type.shape[1]);
      return out;
    }
    default:
      return Tensor();
  }
}

}  // namespace

bool ConstantFoldPass::run(ir::Graph& graph) {
  bool changed_any = false;
  // Nodes rewritten away stay in the graph until dce; track them so a
  // later fixpoint iteration does not fold the corpse again.
  std::vector<char> dead(static_cast<std::size_t>(graph.size()), 0);
  for (bool changed = true; changed;) {
    changed = false;
    std::map<int, int> replace;
    dead.resize(static_cast<std::size_t>(graph.size()), 0);

    for (int id = 0; id < graph.size(); ++id) {
      ir::Node& node = graph.node(id);
      if (node.is_const() || node.op == ir::OpKind::kInput || dead[static_cast<std::size_t>(id)])
        continue;

      // Batch norm with constant parameters folds to a channel affine:
      // scale = γ/√(σ²+ε), shift = β − μ·scale, computed now.
      if (node.op == ir::OpKind::kBatchNorm) {
        bool params_const = true;
        for (std::size_t i = 1; i < node.inputs.size(); ++i) {
          if (!graph.node(node.inputs[i]).is_const()) params_const = false;
        }
        if (params_const) {
          const std::string bn_name = node.name;  // survives nodes_ realloc
          const Tensor& gamma = graph.node(node.inputs[1]).f32_data;
          const Tensor& beta = graph.node(node.inputs[2]).f32_data;
          const Tensor& mean = graph.node(node.inputs[3]).f32_data;
          const Tensor& var = graph.node(node.inputs[4]).f32_data;
          const int channels = gamma.shape()[0];
          Tensor scale(Shape{channels}), shift(Shape{channels});
          for (int c = 0; c < channels; ++c) {
            const float s =
                gamma[static_cast<std::size_t>(c)] /
                std::sqrt(var[static_cast<std::size_t>(c)] + static_cast<float>(node.conv.bn_eps));
            scale[static_cast<std::size_t>(c)] = s;
            shift[static_cast<std::size_t>(c)] =
                beta[static_cast<std::size_t>(c)] - mean[static_cast<std::size_t>(c)] * s;
          }
          const int s_id = graph.add_const(std::move(scale), bn_name + ".scale");
          const int b_id = graph.add_const(std::move(shift), bn_name + ".shift");
          ir::Node& bn = graph.node(id);  // add_const may reallocate nodes_
          bn.op = ir::OpKind::kChannelAffine;
          bn.inputs = {bn.inputs[0], s_id, b_id};
          changed = true;
          continue;
        }
      }

      // x + 0 == x: `none` edges lower to zero constants; their adds
      // dissolve here and dce reclaims the constants.
      if (node.op == ir::OpKind::kAdd) {
        const bool a_zero = is_zero_const(graph.node(node.inputs[0]));
        const bool b_zero = is_zero_const(graph.node(node.inputs[1]));
        if (a_zero || b_zero) {
          replace[id] = b_zero ? node.inputs[0] : node.inputs[1];
          dead[static_cast<std::size_t>(id)] = 1;
          changed = true;
          continue;
        }
      }

      // Whole-node folding: all inputs constant -> run the kernel once
      // at compile time and keep only the result.
      if (all_inputs_const(graph, node)) {
        Tensor folded = evaluate_const_node(graph, node);
        if (!folded.empty()) {
          const int c_id = graph.add_const(std::move(folded), node.name + ".folded");
          replace[id] = c_id;
          dead.resize(static_cast<std::size_t>(graph.size()), 0);
          dead[static_cast<std::size_t>(id)] = 1;
          changed = true;
          continue;
        }
      }
    }

    apply_replacements(graph, replace);
    changed_any = changed_any || changed;
  }
  return changed_any;
}

bool FuseConvBnReluPass::run(ir::Graph& graph) {
  bool changed_any = false;
  std::vector<char> dead(static_cast<std::size_t>(graph.size()), 0);
  for (bool changed = true; changed;) {
    changed = false;
    std::map<int, int> replace;
    dead.resize(static_cast<std::size_t>(graph.size()), 0);

    // Use counts over *live* nodes only: a replaced (dead) consumer
    // must not pin its producer against fusion.
    std::vector<int> uses(static_cast<std::size_t>(graph.size()), 0);
    for (int id = 0; id < graph.size(); ++id) {
      if (dead[static_cast<std::size_t>(id)]) continue;
      for (int in : graph.node(id).inputs) ++uses[static_cast<std::size_t>(in)];
    }
    ++uses[static_cast<std::size_t>(graph.output())];

    for (int id = 0; id < graph.size(); ++id) {
      ir::Node& node = graph.node(id);
      if (dead[static_cast<std::size_t>(id)]) continue;

      // conv -> channel_affine: scale the weights per output channel
      // and fold the shift into the bias.
      if (node.op == ir::OpKind::kChannelAffine) {
        const int conv_id = node.inputs[0];
        const ir::Node& conv = graph.node(conv_id);
        if (conv.op != ir::OpKind::kConv2d || conv.conv.fused_relu ||
            uses[static_cast<std::size_t>(conv_id)] != 1 ||
            !graph.node(node.inputs[1]).is_const() || !graph.node(node.inputs[2]).is_const()) {
          continue;
        }
        const std::string conv_name = conv.name;  // survives nodes_ realloc
        const Tensor& scale = graph.node(node.inputs[1]).f32_data;
        const Tensor& shift = graph.node(node.inputs[2]).f32_data;
        const ir::Node& w_const = graph.node(conv.inputs[1]);
        const Shape w_shape = w_const.type.shape;
        const int cout = w_shape[0];
        const std::size_t per_channel = w_const.f32_data.numel() / static_cast<std::size_t>(cout);

        Tensor new_w(w_shape);
        for (int c = 0; c < cout; ++c) {
          const float s = scale[static_cast<std::size_t>(c)];
          for (std::size_t k = 0; k < per_channel; ++k) {
            const std::size_t i = static_cast<std::size_t>(c) * per_channel + k;
            new_w[i] = w_const.f32_data[i] * s;
          }
        }
        Tensor new_b(Shape{cout});
        const bool had_bias = conv.inputs.size() == 3;
        for (int c = 0; c < cout; ++c) {
          const float old_b =
              had_bias ? graph.node(conv.inputs[2]).f32_data[static_cast<std::size_t>(c)] : 0.0F;
          new_b[static_cast<std::size_t>(c)] =
              old_b * scale[static_cast<std::size_t>(c)] + shift[static_cast<std::size_t>(c)];
        }
        const int w_id = graph.add_const(std::move(new_w), conv_name + ".w.fused");
        const int b_id = graph.add_const(std::move(new_b), conv_name + ".b.fused");
        ir::Node& conv_mut = graph.node(conv_id);  // re-fetch after add_const
        conv_mut.inputs = {conv_mut.inputs[0], w_id, b_id};
        replace[id] = conv_id;
        dead.resize(static_cast<std::size_t>(graph.size()), 0);
        dead[static_cast<std::size_t>(id)] = 1;
        changed = true;
        continue;
      }

      // conv -> relu: absorb into the conv's fused activation.
      if (node.op == ir::OpKind::kRelu) {
        const int conv_id = node.inputs[0];
        ir::Node& conv = graph.node(conv_id);
        if (conv.op != ir::OpKind::kConv2d || conv.conv.fused_relu ||
            uses[static_cast<std::size_t>(conv_id)] != 1) {
          continue;
        }
        conv.conv.fused_relu = true;
        replace[id] = conv_id;
        dead[static_cast<std::size_t>(id)] = 1;
        changed = true;
        continue;
      }
    }

    apply_replacements(graph, replace);
    changed_any = changed_any || changed;
  }
  return changed_any;
}

bool DeadCodeElimPass::run(ir::Graph& graph) { return graph.compact() > 0; }

bool ScheduleReorderPass::run(ir::Graph& graph) {
  // Executed nodes other than the input are the reorderable set; the
  // input always runs at step 0 and constants take no step at all.
  std::vector<int> executed;
  for (const auto& node : graph.nodes()) {
    if (node.is_const() || node.op == ir::OpKind::kInput) continue;
    executed.push_back(node.id);
  }
  if (executed.size() < 2) return false;

  const long long before = rt::plan_memory(graph, plan_options_).arena_bytes;

  // List scheduling: at each step pick the ready node with the lowest
  // memory pressure — bytes its output allocates minus bytes it frees
  // (non-const inputs for which it is the last unscheduled consumer;
  // the graph output never frees, it stays live to the end). Ties go to
  // the lowest node id, keeping the pass deterministic.
  std::vector<int> pending(static_cast<std::size_t>(graph.size()), 0);   // unscheduled deps
  std::vector<int> consumers(static_cast<std::size_t>(graph.size()), 0);  // unscheduled readers
  for (const int id : executed) {
    for (const int in : graph.node(id).inputs) {
      if (graph.node(in).is_const()) continue;
      consumers[static_cast<std::size_t>(in)]++;
      if (graph.node(in).op != ir::OpKind::kInput) pending[static_cast<std::size_t>(id)]++;
    }
  }
  std::vector<int> ready;
  for (const int id : executed) {
    if (pending[static_cast<std::size_t>(id)] == 0) ready.push_back(id);
  }
  std::vector<int> order;
  order.reserve(executed.size());
  while (!ready.empty()) {
    std::size_t best = 0;
    long long best_cost = 0;
    for (std::size_t i = 0; i < ready.size(); ++i) {
      const ir::Node& node = graph.node(ready[i]);
      long long cost = node.type.bytes();
      for (const int in : node.inputs) {
        const ir::Node& src = graph.node(in);
        if (src.is_const() || in == graph.output()) continue;
        if (consumers[static_cast<std::size_t>(in)] == 1) cost -= src.type.bytes();
      }
      if (i == 0 || cost < best_cost ||
          (cost == best_cost && ready[i] < ready[best])) {
        best = i;
        best_cost = cost;
      }
    }
    const int id = ready[best];
    ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(best));
    order.push_back(id);
    for (const int in : graph.node(id).inputs) {
      if (!graph.node(in).is_const()) consumers[static_cast<std::size_t>(in)]--;
    }
    for (const int other : executed) {
      int uses = 0;  // an op may read the same value twice (add(x, x))
      for (const int in : graph.node(other).inputs) uses += in == id ? 1 : 0;
      if (uses == 0) continue;
      if ((pending[static_cast<std::size_t>(other)] -= uses) == 0) ready.push_back(other);
    }
  }
  if (order.size() != executed.size()) {
    throw std::logic_error("schedule-reorder: list scheduling did not cover the graph");
  }
  if (order == executed) return false;

  // Rebuild the node list in the new order: input first, each node's
  // const operands right before their first consumer, stragglers (a
  // const output of a fully folded graph, say) in original order last.
  std::vector<int> remap(static_cast<std::size_t>(graph.size()), -1);
  std::vector<int> new_order;
  new_order.reserve(static_cast<std::size_t>(graph.size()));
  const auto emit = [&](int id) {
    if (remap[static_cast<std::size_t>(id)] >= 0) return;
    remap[static_cast<std::size_t>(id)] = static_cast<int>(new_order.size());
    new_order.push_back(id);
  };
  emit(graph.input());
  for (const int id : order) {
    for (const int in : graph.node(id).inputs) {
      if (graph.node(in).is_const()) emit(in);
    }
    emit(id);
  }
  for (const auto& node : graph.nodes()) emit(node.id);

  std::vector<ir::Node> nodes;
  nodes.reserve(new_order.size());
  for (const int id : new_order) {
    ir::Node node = graph.node(id);
    node.id = remap[static_cast<std::size_t>(id)];
    for (int& in : node.inputs) in = remap[static_cast<std::size_t>(in)];
    nodes.push_back(std::move(node));
  }
  ir::Graph reordered =
      ir::Graph::from_nodes(std::move(nodes), remap[static_cast<std::size_t>(graph.input())],
                            remap[static_cast<std::size_t>(graph.output())]);

  // Keep the permutation only when the planner proves it smaller —
  // anything else would churn node ids (and package bytes) for nothing.
  const long long after = rt::plan_memory(reordered, plan_options_).arena_bytes;
  if (after >= before) return false;
  graph = std::move(reordered);
  return true;
}

}  // namespace micronas::compile
