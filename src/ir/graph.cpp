#include "src/ir/graph.hpp"

#include <array>
#include <sstream>
#include <stdexcept>

#include "src/tensor/ops.hpp"

namespace micronas::ir {

const std::string& dtype_name(DType d) {
  static const std::array<std::string, 3> names = {"f32", "i8", "i32"};
  return names[static_cast<std::size_t>(d)];
}

int dtype_bytes(DType d) {
  switch (d) {
    case DType::kF32: return 4;
    case DType::kI8: return 1;
    case DType::kI32: return 4;
  }
  throw std::invalid_argument("dtype_bytes: invalid dtype");
}

std::string TensorType::to_string() const {
  return dtype_name(dtype) + shape.to_string();
}

const std::string& op_kind_name(OpKind kind) {
  static_assert(kOpKindCount == 18, "update kOpKindCount alongside the name table");
  static const std::array<std::string, 18> names = {
      "input",      "const",     "conv2d",  "batch_norm", "channel_affine", "relu",
      "avg_pool",   "add",       "gap",     "linear",     "quantize",       "dequantize",
      "qconv2d",    "qavg_pool", "qadd",    "qgap",       "qlinear",        "qrelu"};
  const auto i = static_cast<std::size_t>(kind);
  if (i >= names.size()) throw std::invalid_argument("op_kind_name: invalid kind");
  return names[i];
}

std::string Node::to_string() const {
  std::ostringstream ss;
  ss << "%" << id << " = " << op_kind_name(op);
  if (!inputs.empty()) {
    ss << "(";
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      ss << (i ? ", " : "") << "%" << inputs[i];
    }
    ss << ")";
  }
  ss << " : " << type.to_string();
  if (op == OpKind::kConv2d || op == OpKind::kQConv2d || op == OpKind::kAvgPool ||
      op == OpKind::kQAvgPool) {
    ss << " k" << conv.kernel << "s" << conv.stride << "p" << conv.pad;
  }
  if (conv.fused_relu) ss << " +relu";
  if (!name.empty()) ss << "  // " << name;
  return ss.str();
}

int Graph::add_input(TensorType type, std::string name) {
  if (input_ >= 0) throw std::invalid_argument("Graph::add_input: input already declared");
  Node n;
  n.op = OpKind::kInput;
  n.type = std::move(type);
  n.name = std::move(name);
  input_ = append(std::move(n));
  return input_;
}

int Graph::add_const(Tensor data, std::string name) {
  Node n;
  n.op = OpKind::kConst;
  n.type = TensorType{data.shape(), DType::kF32};
  n.f32_data = std::move(data);
  n.name = std::move(name);
  return append(std::move(n));
}

int Graph::add_const_i8(Shape shape, std::vector<std::int8_t> data, std::string name) {
  if (shape.numel() != data.size()) {
    throw std::invalid_argument("Graph::add_const_i8: shape/data size mismatch");
  }
  Node n;
  n.op = OpKind::kConst;
  n.type = TensorType{std::move(shape), DType::kI8};
  n.i8_data = std::move(data);
  n.name = std::move(name);
  return append(std::move(n));
}

int Graph::add_const_i32(Shape shape, std::vector<std::int32_t> data, std::string name) {
  if (shape.numel() != data.size()) {
    throw std::invalid_argument("Graph::add_const_i32: shape/data size mismatch");
  }
  Node n;
  n.op = OpKind::kConst;
  n.type = TensorType{std::move(shape), DType::kI32};
  n.i32_data = std::move(data);
  n.name = std::move(name);
  return append(std::move(n));
}

int Graph::add_node(OpKind op, std::vector<int> inputs, ConvAttrs attrs, std::string name) {
  if (op == OpKind::kInput || op == OpKind::kConst) {
    throw std::invalid_argument("Graph::add_node: use add_input/add_const");
  }
  Node n;
  n.op = op;
  n.inputs = std::move(inputs);
  n.conv = attrs;
  n.name = std::move(name);
  for (int in : n.inputs) {
    if (in < 0 || in >= size()) {
      throw std::invalid_argument("Graph::add_node: input id out of range");
    }
  }
  n.type = infer_type(n);
  return append(std::move(n));
}

void Graph::set_output(int id) {
  if (id < 0 || id >= size()) throw std::invalid_argument("Graph::set_output: id out of range");
  output_ = id;
}

int Graph::append(Node n) {
  n.id = size();
  nodes_.push_back(std::move(n));
  return nodes_.back().id;
}

namespace {

void require(bool ok, const std::string& what) {
  if (!ok) throw std::invalid_argument("ir type inference: " + what);
}

const TensorType& in_type(const Graph& g, const Node& n, std::size_t i) {
  require(i < n.inputs.size(), op_kind_name(n.op) + ": missing input " + std::to_string(i));
  return g.node(n.inputs[i]).type;
}

/// The requant attributes a node's kernel reads: one mantissa and one
/// shift per output channel on kQConv2d / kQLinear, exactly one of
/// each on the pools and kQAdd, and every shift used (kQAdd's shift2
/// too) inside multiply_by_quantized_multiplier's domain. The kernels
/// run the requant core unchecked on this guarantee. Ops that ignore
/// the fields leave them unconstrained.
void check_requant_attrs(const Node& n) {
  std::size_t want = 0;
  switch (n.op) {
    case OpKind::kQConv2d:
    case OpKind::kQLinear:
      want = static_cast<std::size_t>(n.type.shape[1]);
      break;
    case OpKind::kQAvgPool:
    case OpKind::kQGlobalAvgPool:
    case OpKind::kQAdd:
      want = 1;
      break;
    default:
      return;
  }
  const auto fail = [&](const std::string& what) {
    throw std::logic_error("Graph::validate: " + what + " on " + op_kind_name(n.op) + " %" +
                           std::to_string(n.id));
  };
  if (n.quant.mantissa.size() != want || n.quant.shift.size() != want) {
    fail(std::to_string(n.quant.mantissa.size()) + " mantissas and " +
         std::to_string(n.quant.shift.size()) + " shifts, want " + std::to_string(want));
  }
  for (const int shift : n.quant.shift) {
    if (!requant_shift_in_range(shift)) fail("requant shift " + std::to_string(shift));
  }
  if (n.op == OpKind::kQAdd && !requant_shift_in_range(n.quant.shift2)) {
    fail("requant shift2 " + std::to_string(n.quant.shift2));
  }
}

}  // namespace

TensorType Graph::infer_type(const Node& n) const {
  const auto arity = [&](std::size_t lo, std::size_t hi) {
    require(n.inputs.size() >= lo && n.inputs.size() <= hi,
            op_kind_name(n.op) + ": wrong arity " + std::to_string(n.inputs.size()));
  };
  switch (n.op) {
    case OpKind::kInput:
    case OpKind::kConst:
      return n.type;

    case OpKind::kConv2d:
    case OpKind::kQConv2d: {
      const bool q = n.op == OpKind::kQConv2d;
      arity(q ? 3 : 2, 3);
      const TensorType& x = in_type(*this, n, 0);
      const TensorType& w = in_type(*this, n, 1);
      require(x.shape.rank() == 4 && w.shape.rank() == 4, "conv2d: rank-4 x and weight required");
      require(x.dtype == (q ? DType::kI8 : DType::kF32), "conv2d: activation dtype");
      require(w.dtype == (q ? DType::kI8 : DType::kF32), "conv2d: weight dtype");
      require(w.shape[1] == x.shape[1], "conv2d: Cin mismatch");
      require(w.shape[2] == n.conv.kernel && w.shape[3] == n.conv.kernel,
              "conv2d: kernel attr/weight mismatch");
      if (n.inputs.size() == 3) {
        const TensorType& b = in_type(*this, n, 2);
        require(b.shape.rank() == 1 && b.shape[0] == w.shape[0], "conv2d: bias shape");
        require(b.dtype == (q ? DType::kI32 : DType::kF32), "conv2d: bias dtype");
      }
      const int ho = ops::conv_out_size(x.shape[2], n.conv.kernel, n.conv.stride, n.conv.pad);
      const int wo = ops::conv_out_size(x.shape[3], n.conv.kernel, n.conv.stride, n.conv.pad);
      return {Shape{x.shape[0], w.shape[0], ho, wo}, x.dtype};
    }

    case OpKind::kBatchNorm: {
      arity(5, 5);
      const TensorType& x = in_type(*this, n, 0);
      require(x.shape.rank() == 4 && x.dtype == DType::kF32, "batch_norm: rank-4 f32 input");
      for (std::size_t i = 1; i < 5; ++i) {
        const TensorType& p = in_type(*this, n, i);
        require(p.shape.rank() == 1 && p.shape[0] == x.shape[1] && p.dtype == DType::kF32,
                "batch_norm: per-channel f32 params required");
      }
      return x;
    }

    case OpKind::kChannelAffine: {
      arity(3, 3);
      const TensorType& x = in_type(*this, n, 0);
      require(x.shape.rank() == 4 && x.dtype == DType::kF32, "channel_affine: rank-4 f32 input");
      for (std::size_t i = 1; i < 3; ++i) {
        const TensorType& p = in_type(*this, n, i);
        require(p.shape.rank() == 1 && p.shape[0] == x.shape[1] && p.dtype == DType::kF32,
                "channel_affine: per-channel f32 params required");
      }
      return x;
    }

    case OpKind::kRelu:
    case OpKind::kQRelu: {
      arity(1, 1);
      const TensorType& x = in_type(*this, n, 0);
      require(x.dtype == (n.op == OpKind::kQRelu ? DType::kI8 : DType::kF32), "relu: dtype");
      return x;
    }

    case OpKind::kAvgPool:
    case OpKind::kQAvgPool: {
      arity(1, 1);
      const TensorType& x = in_type(*this, n, 0);
      require(x.shape.rank() == 4, "avg_pool: rank-4 input");
      require(x.dtype == (n.op == OpKind::kQAvgPool ? DType::kI8 : DType::kF32),
              "avg_pool: dtype");
      const int ho = ops::conv_out_size(x.shape[2], n.conv.kernel, n.conv.stride, n.conv.pad);
      const int wo = ops::conv_out_size(x.shape[3], n.conv.kernel, n.conv.stride, n.conv.pad);
      return {Shape{x.shape[0], x.shape[1], ho, wo}, x.dtype};
    }

    case OpKind::kAdd:
    case OpKind::kQAdd: {
      arity(2, 2);
      const TensorType& a = in_type(*this, n, 0);
      const TensorType& b = in_type(*this, n, 1);
      require(a.shape == b.shape, "add: shape mismatch");
      require(a.dtype == b.dtype, "add: dtype mismatch");
      require(a.dtype == (n.op == OpKind::kQAdd ? DType::kI8 : DType::kF32), "add: dtype");
      return a;
    }

    case OpKind::kGlobalAvgPool:
    case OpKind::kQGlobalAvgPool: {
      arity(1, 1);
      const TensorType& x = in_type(*this, n, 0);
      require(x.shape.rank() == 4, "gap: rank-4 input");
      require(x.dtype == (n.op == OpKind::kQGlobalAvgPool ? DType::kI8 : DType::kF32),
              "gap: dtype");
      return {Shape{x.shape[0], x.shape[1]}, x.dtype};
    }

    case OpKind::kLinear:
    case OpKind::kQLinear: {
      const bool q = n.op == OpKind::kQLinear;
      arity(q ? 3 : 2, 3);
      const TensorType& x = in_type(*this, n, 0);
      const TensorType& w = in_type(*this, n, 1);
      require(x.shape.rank() == 2 && w.shape.rank() == 2, "linear: rank-2 x and weight");
      require(w.shape[1] == x.shape[1], "linear: feature mismatch");
      require(x.dtype == (q ? DType::kI8 : DType::kF32), "linear: activation dtype");
      if (n.inputs.size() == 3) {
        const TensorType& b = in_type(*this, n, 2);
        require(b.shape.rank() == 1 && b.shape[0] == w.shape[0], "linear: bias shape");
        require(b.dtype == (q ? DType::kI32 : DType::kF32), "linear: bias dtype");
      }
      return {Shape{x.shape[0], w.shape[0]}, x.dtype};
    }

    case OpKind::kQuantize: {
      arity(1, 1);
      const TensorType& x = in_type(*this, n, 0);
      require(x.dtype == DType::kF32, "quantize: f32 input required");
      return {x.shape, DType::kI8};
    }

    case OpKind::kDequantize: {
      arity(1, 1);
      const TensorType& x = in_type(*this, n, 0);
      require(x.dtype == DType::kI8, "dequantize: i8 input required");
      return {x.shape, DType::kF32};
    }
  }
  throw std::invalid_argument("infer_type: unhandled op kind");
}

int Graph::executed_node_count() const {
  int n = 0;
  for (const auto& node : nodes_) {
    if (node.op != OpKind::kConst && node.op != OpKind::kInput) ++n;
  }
  return n;
}

long long Graph::const_bytes() const {
  long long total = 0;
  for (const auto& node : nodes_) {
    if (node.is_const()) total += node.type.bytes();
  }
  return total;
}

int Graph::compact() {
  if (output_ < 0) throw std::logic_error("Graph::compact: no output set");
  std::vector<bool> live(nodes_.size(), false);
  std::vector<int> stack = {output_};
  while (!stack.empty()) {
    const int id = stack.back();
    stack.pop_back();
    if (live[static_cast<std::size_t>(id)]) continue;
    live[static_cast<std::size_t>(id)] = true;
    for (int in : nodes_[static_cast<std::size_t>(id)].inputs) stack.push_back(in);
  }
  // The input stays even if a pass disconnected it (the runtime's entry
  // contract); unreachable inputs would make the executable ill-formed.
  if (input_ >= 0) live[static_cast<std::size_t>(input_)] = true;

  std::vector<int> remap(nodes_.size(), -1);
  std::vector<Node> kept;
  kept.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (!live[i]) continue;
    remap[i] = static_cast<int>(kept.size());
    kept.push_back(std::move(nodes_[i]));
  }
  const int removed = static_cast<int>(nodes_.size() - kept.size());
  nodes_ = std::move(kept);
  for (auto& node : nodes_) {
    node.id = remap[static_cast<std::size_t>(node.id)];
    for (int& in : node.inputs) in = remap[static_cast<std::size_t>(in)];
  }
  input_ = input_ >= 0 ? remap[static_cast<std::size_t>(input_)] : -1;
  output_ = remap[static_cast<std::size_t>(output_)];
  return removed;
}

void Graph::validate() const {
  if (input_ < 0) throw std::logic_error("Graph::validate: no input declared");
  if (output_ < 0) throw std::logic_error("Graph::validate: no output set");
  for (const auto& node : nodes_) {
    for (int in : node.inputs) {
      if (in < 0 || in >= size()) throw std::logic_error("Graph::validate: dangling input id");
      // Topology: an executed node may only consume constants or
      // earlier nodes — the node list must be a valid schedule.
      const Node& producer = nodes_[static_cast<std::size_t>(in)];
      if (!producer.is_const() && in >= node.id) {
        throw std::logic_error("Graph::validate: node %" + std::to_string(node.id) +
                               " consumes later node %" + std::to_string(in));
      }
    }
    // Re-infer and compare: passes must keep types consistent.
    if (node.op != OpKind::kInput && node.op != OpKind::kConst) {
      TensorType t = infer_type(node);
      if (!(t == node.type)) {
        throw std::logic_error("Graph::validate: stale type on %" + std::to_string(node.id) +
                               " (" + node.type.to_string() + " vs inferred " + t.to_string() +
                               ")");
      }
      check_requant_attrs(node);
    }
  }
}

Graph Graph::from_nodes(std::vector<Node> nodes, int input, int output) {
  Graph g;
  g.nodes_ = std::move(nodes);
  const int n = g.size();
  if (input < 0 || input >= n) {
    throw std::invalid_argument("Graph::from_nodes: input id out of range");
  }
  if (output < 0 || output >= n) {
    throw std::invalid_argument("Graph::from_nodes: output id out of range");
  }
  for (int i = 0; i < n; ++i) {
    const Node& node = g.nodes_[static_cast<std::size_t>(i)];
    if (node.id != i) {
      throw std::invalid_argument("Graph::from_nodes: node id/index mismatch at " +
                                  std::to_string(i));
    }
    if ((node.op == OpKind::kInput) != (i == input)) {
      throw std::invalid_argument(
          "Graph::from_nodes: exactly the declared input node may be kInput (node " +
          std::to_string(i) + ")");
    }
    const std::size_t numel = node.type.shape.numel();
    bool payload_ok = false;
    if (node.is_const()) {
      switch (node.type.dtype) {
        case DType::kF32:
          payload_ok = node.f32_data.shape() == node.type.shape && node.i8_data.empty() &&
                       node.i32_data.empty();
          break;
        case DType::kI8:
          payload_ok = node.i8_data.size() == numel && node.f32_data.empty() &&
                       node.i32_data.empty();
          break;
        case DType::kI32:
          payload_ok = node.i32_data.size() == numel && node.f32_data.empty() &&
                       node.i8_data.empty();
          break;
      }
    } else {
      payload_ok = node.f32_data.empty() && node.i8_data.empty() && node.i32_data.empty();
    }
    if (!payload_ok) {
      throw std::invalid_argument("Graph::from_nodes: const payload/type mismatch on %" +
                                  std::to_string(i));
    }
  }
  g.input_ = input;
  g.output_ = output;
  g.validate();
  return g;
}

std::string Graph::to_string() const {
  std::ostringstream ss;
  ss << "graph {  // " << size() << " nodes, " << executed_node_count() << " executed\n";
  for (const auto& node : nodes_) ss << "  " << node.to_string() << "\n";
  ss << "  output %" << output_ << "\n}";
  return ss.str();
}

}  // namespace micronas::ir
