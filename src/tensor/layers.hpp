// Stateful layers: parameters + cached activations + backward.
//
// `Layer` is the unit the cell-network executor composes into a DAG.
// Each layer caches what its backward pass needs during forward;
// backward accumulates parameter gradients internally and returns the
// gradient w.r.t. its input. The NTK proxy reads parameter gradients
// through the param_spans()/grad_spans() views after each per-sample
// backward pass.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/tensor/tensor.hpp"

namespace micronas {

class Rng;

/// Abstract differentiable layer with zero or more parameter tensors.
class Layer {
 public:
  virtual ~Layer() = default;

  virtual Tensor forward(const Tensor& input) = 0;
  /// Gradient w.r.t. the *input* of the last forward; accumulates
  /// parameter gradients internally. Must be called after forward.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Mutable views over each parameter tensor / its gradient.
  virtual std::vector<std::span<float>> param_spans() { return {}; }
  virtual std::vector<std::span<float>> grad_spans() { return {}; }

  void zero_grad() {
    for (auto s : grad_spans()) {
      for (auto& g : s) g = 0.0F;
    }
  }

  /// Initialize parameters (no-op for parameter-free layers).
  virtual void init(Rng& /*rng*/) {}

  virtual std::string name() const = 0;

  /// Number of scalar parameters.
  std::size_t param_count() {
    std::size_t n = 0;
    for (auto s : param_spans()) n += s.size();
    return n;
  }
};

/// Convolution (square kernel, no bias by default — matching the
/// ReLU-conv blocks of NAS-Bench-201 where BN absorbs the bias).
class Conv2dLayer final : public Layer {
 public:
  Conv2dLayer(int cin, int cout, int kernel, int stride, int pad, bool bias = false);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<std::span<float>> param_spans() override;
  std::vector<std::span<float>> grad_spans() override;
  void init(Rng& rng) override;
  std::string name() const override;

  int cin() const { return cin_; }
  int cout() const { return cout_; }
  int kernel() const { return kernel_; }
  int stride() const { return stride_; }

 private:
  int cin_, cout_, kernel_, stride_, pad_;
  bool has_bias_;
  Tensor weight_, bias_;
  Tensor grad_weight_, grad_bias_;
  Tensor cached_input_;
  std::vector<float> columns_;  // im2col scratch, reused across forwards
};

/// ReLU; exposes the last activation mask for the linear-region proxy.
class ReluLayer final : public Layer {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "relu"; }

  const Tensor& last_mask() const { return mask_; }

 private:
  Tensor mask_;
};

/// Average pooling (count_include_pad semantics).
class AvgPoolLayer final : public Layer {
 public:
  AvgPoolLayer(int kernel, int stride, int pad) : kernel_(kernel), stride_(stride), pad_(pad) {}
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override;

 private:
  int kernel_, stride_, pad_;
  Shape input_shape_;
};

/// Identity (skip connection).
class IdentityLayer final : public Layer {
 public:
  Tensor forward(const Tensor& input) override { return input; }
  Tensor backward(const Tensor& grad_output) override { return grad_output; }
  std::string name() const override { return "identity"; }
};

/// Zero (the `none` operation): output is a zero tensor of input shape.
class ZeroLayer final : public Layer {
 public:
  Tensor forward(const Tensor& input) override {
    shape_ = input.shape();
    return Tensor(shape_);
  }
  Tensor backward(const Tensor& grad_output) override {
    (void)grad_output;
    return Tensor(shape_);
  }
  std::string name() const override { return "zero"; }

 private:
  Shape shape_;
};

/// Global average pool [N,C,H,W] -> [N,C].
class GlobalAvgPoolLayer final : public Layer {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "gap"; }

 private:
  Shape input_shape_;
};

/// Fully connected classifier head.
class LinearLayer final : public Layer {
 public:
  LinearLayer(int in_features, int out_features, bool bias = true);
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<std::span<float>> param_spans() override;
  std::vector<std::span<float>> grad_spans() override;
  void init(Rng& rng) override;
  std::string name() const override;

 private:
  int in_features_, out_features_;
  bool has_bias_;
  Tensor weight_, bias_, grad_weight_, grad_bias_;
  Tensor cached_input_;
};

std::unique_ptr<Layer> make_conv(int cin, int cout, int kernel, int stride, int pad, bool bias = false);

}  // namespace micronas
