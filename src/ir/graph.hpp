// Typed dataflow IR for the deployment compiler (src/compile/) and the
// reference runtime (src/rt/).
//
// A Graph is a flat, topologically ordered list of single-output nodes;
// a node's id doubles as the id of the value it produces, so the node
// list *is* the execution schedule. Constants (weights, folded
// batch-norm parameters, quantized tensors) are nodes too — they model
// flash-resident data, are skipped by the executor and the memory
// planner, and may appear anywhere in the list (passes append new
// constants after the nodes that consume them).
//
// Shape and dtype inference runs at construction: add_node computes the
// output TensorType from the inputs and attributes and throws on
// inconsistent wiring, so a Graph that exists is well-typed. The
// mid-level op set intentionally mirrors what the NB201 deployment
// skeleton needs — this is a TinyML deployment IR, not a general one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/const_view.hpp"
#include "src/hw/quant.hpp"
#include "src/tensor/tensor.hpp"

namespace micronas::ir {

enum class DType { kF32, kI8, kI32 };

const std::string& dtype_name(DType d);
int dtype_bytes(DType d);

/// Static type of one value: shape + element dtype.
struct TensorType {
  Shape shape;
  DType dtype = DType::kF32;

  long long bytes() const {
    return static_cast<long long>(shape.numel()) * dtype_bytes(dtype);
  }
  bool operator==(const TensorType& o) const { return shape == o.shape && dtype == o.dtype; }
  std::string to_string() const;
};

enum class OpKind {
  kInput,        // graph input placeholder
  kConst,        // flash-resident constant (weights, scales, zeros)
  kConv2d,       // inputs: x, weight[, bias]; optional fused ReLU
  kBatchNorm,    // inputs: x, gamma, beta, mean, var (all [C])
  kChannelAffine,// inputs: x, scale[C], shift[C] — folded batch norm
  kRelu,         // inputs: x
  kAvgPool,      // inputs: x (count_include_pad)
  kAdd,          // inputs: a, b (same type)
  kGlobalAvgPool,// inputs: x; [N,C,H,W] -> [N,C]
  kLinear,       // inputs: x, weight[, bias]
  kQuantize,     // f32 -> i8 with out_q
  kDequantize,   // i8 -> f32 with in_q
  kQConv2d,      // inputs: x(i8), weight(i8), bias(i32); per-channel requant
  kQAvgPool,     // i8 pooling with requant
  kQAdd,         // i8 add; per-operand requant
  kQGlobalAvgPool,
  kQLinear,
  kQRelu,        // max(q, zero_point); in/out share params
};

const std::string& op_kind_name(OpKind kind);

/// Number of OpKind values — range check for deserialized op bytes
/// (static_assert'd against the name table in graph.cpp).
inline constexpr int kOpKindCount = 18;

/// Convolution / pooling geometry (also reused by kLinear for nothing
/// but uniformity — unused fields stay at their defaults).
struct ConvAttrs {
  int kernel = 1;
  int stride = 1;
  int pad = 0;
  bool fused_relu = false;
  double bn_eps = 1e-5;  // kBatchNorm only
};

/// Quantization attributes of a quantized node's output (and, for
/// requantizing ops, the fixed-point multipliers that map the int32
/// accumulator domain onto it). Populated by the int8-ptq pass.
struct QuantAttrs {
  AffineParams in_q;    // input activation params (kQuantize: of the f32 source)
  AffineParams in2_q;   // second operand (kQAdd)
  AffineParams out_q;   // output activation params
  /// Per-output-channel requant multipliers (kQConv2d / kQLinear:
  /// in_scale * w_scale[c] / out_scale; kQAvgPool / kQGlobalAvgPool /
  /// kQAdd: single-entry).
  std::vector<std::int32_t> mantissa;
  std::vector<int> shift;
  /// Second-operand multiplier (kQAdd).
  std::int32_t mantissa2 = 0;
  int shift2 = 0;
};

struct Node {
  int id = -1;
  OpKind op = OpKind::kInput;
  std::string name;            // diagnostic label, e.g. "cell2.n3.e1.conv3x3"
  std::vector<int> inputs;     // producer node ids
  TensorType type;             // output type
  ConvAttrs conv;
  QuantAttrs quant;

  // Constant payload; exactly one is populated, per type.dtype.
  // i8_data is a ConstView so a mapped package (serialize::
  // MappedPackage) can point weights straight into the file image —
  // graphs built in memory keep owning their payloads through the
  // implicit vector conversion.
  Tensor f32_data;
  ConstView<std::int8_t> i8_data;
  std::vector<std::int32_t> i32_data;

  bool is_const() const { return op == OpKind::kConst; }
  std::string to_string() const;
};

class Graph {
 public:
  /// Declare the (single) graph input; must be the first node added.
  int add_input(TensorType type, std::string name = "input");

  int add_const(Tensor data, std::string name);
  int add_const_i8(Shape shape, std::vector<std::int8_t> data, std::string name);
  int add_const_i32(Shape shape, std::vector<std::int32_t> data, std::string name);

  /// Append an op node; infers and validates the output type, throws
  /// std::invalid_argument on malformed wiring. Returns the node id.
  int add_node(OpKind op, std::vector<int> inputs, ConvAttrs attrs = {},
               std::string name = {});

  void set_output(int id);
  int output() const { return output_; }
  int input() const { return input_; }

  const Node& node(int id) const { return nodes_[static_cast<std::size_t>(id)]; }
  Node& node(int id) { return nodes_[static_cast<std::size_t>(id)]; }
  const std::vector<Node>& nodes() const { return nodes_; }
  int size() const { return static_cast<int>(nodes_.size()); }

  /// Number of non-const, non-input (i.e. executed) nodes.
  int executed_node_count() const;
  /// Total bytes of constant payloads (the flash image of the graph).
  long long const_bytes() const;

  /// Drop every node not reachable from the output, preserving order,
  /// and remap ids. Returns the number of nodes removed.
  int compact();

  /// Structural validation (wiring, types, topology of executed nodes,
  /// and the requant mantissa/shift counts and shift range every
  /// requantizing op's kernel relies on); throws std::logic_error with
  /// a description on violation.
  void validate() const;

  /// Reassemble a graph from raw node records — the deserializer path:
  /// constants may appear after their consumers (passes append them),
  /// so a saved node list cannot be replayed through add_node. Checks
  /// id/index agreement, the single-kInput invariant and const
  /// payload/type consistency, then runs the same type re-inference
  /// and topology validation as validate(); throws on any violation.
  static Graph from_nodes(std::vector<Node> nodes, int input, int output);

  std::string to_string() const;

 private:
  int append(Node n);
  TensorType infer_type(const Node& n) const;

  std::vector<Node> nodes_;
  int input_ = -1;
  int output_ = -1;
};

}  // namespace micronas::ir
