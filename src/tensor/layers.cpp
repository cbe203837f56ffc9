#include "src/tensor/layers.hpp"

#include <sstream>

#include "src/tensor/init.hpp"
#include "src/tensor/ops.hpp"

namespace micronas {

Conv2dLayer::Conv2dLayer(int cin, int cout, int kernel, int stride, int pad, bool bias)
    : cin_(cin),
      cout_(cout),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      has_bias_(bias),
      weight_(Shape{cout, cin, kernel, kernel}),
      grad_weight_(Shape{cout, cin, kernel, kernel}) {
  if (has_bias_) {
    bias_ = Tensor(Shape{cout});
    grad_bias_ = Tensor(Shape{cout});
  }
}

Tensor Conv2dLayer::forward(const Tensor& input) {
  cached_input_ = input;
  // rt::conv2d_f32 through the Tensor wrapper, over this layer's own
  // column buffer: allocated on the first forward, reused after.
  return ops::conv2d_forward_gemm(input, weight_, has_bias_ ? &bias_ : nullptr, stride_, pad_,
                                  columns_);
}

Tensor Conv2dLayer::backward(const Tensor& grad_output) {
  auto g = ops::conv2d_backward(cached_input_, weight_, has_bias_, stride_, pad_, grad_output);
  grad_weight_.add_(g.grad_weight);
  if (has_bias_) grad_bias_.add_(g.grad_bias);
  return std::move(g.grad_input);
}

std::vector<std::span<float>> Conv2dLayer::param_spans() {
  std::vector<std::span<float>> v{weight_.data()};
  if (has_bias_) v.push_back(bias_.data());
  return v;
}

std::vector<std::span<float>> Conv2dLayer::grad_spans() {
  std::vector<std::span<float>> v{grad_weight_.data()};
  if (has_bias_) v.push_back(grad_bias_.data());
  return v;
}

void Conv2dLayer::init(Rng& rng) {
  init_kaiming_normal(weight_, cin_ * kernel_ * kernel_, rng);
  if (has_bias_) bias_.zero();
}

std::string Conv2dLayer::name() const {
  std::ostringstream ss;
  ss << "conv" << kernel_ << "x" << kernel_ << "(" << cin_ << "->" << cout_ << ",s" << stride_ << ")";
  return ss.str();
}

Tensor ReluLayer::forward(const Tensor& input) { return ops::relu_forward(input, &mask_); }

Tensor ReluLayer::backward(const Tensor& grad_output) { return ops::relu_backward(mask_, grad_output); }

Tensor AvgPoolLayer::forward(const Tensor& input) {
  input_shape_ = input.shape();
  return ops::avg_pool_forward(input, kernel_, stride_, pad_);
}

Tensor AvgPoolLayer::backward(const Tensor& grad_output) {
  return ops::avg_pool_backward(input_shape_, kernel_, stride_, pad_, grad_output);
}

std::string AvgPoolLayer::name() const {
  std::ostringstream ss;
  ss << "avgpool" << kernel_ << "x" << kernel_ << "(s" << stride_ << ")";
  return ss.str();
}

Tensor GlobalAvgPoolLayer::forward(const Tensor& input) {
  input_shape_ = input.shape();
  return ops::global_avg_pool_forward(input);
}

Tensor GlobalAvgPoolLayer::backward(const Tensor& grad_output) {
  return ops::global_avg_pool_backward(input_shape_, grad_output);
}

LinearLayer::LinearLayer(int in_features, int out_features, bool bias)
    : in_features_(in_features),
      out_features_(out_features),
      has_bias_(bias),
      weight_(Shape{out_features, in_features}),
      grad_weight_(Shape{out_features, in_features}) {
  if (has_bias_) {
    bias_ = Tensor(Shape{out_features});
    grad_bias_ = Tensor(Shape{out_features});
  }
}

Tensor LinearLayer::forward(const Tensor& input) {
  cached_input_ = input;
  return ops::linear_forward(input, weight_, has_bias_ ? &bias_ : nullptr);
}

Tensor LinearLayer::backward(const Tensor& grad_output) {
  auto g = ops::linear_backward(cached_input_, weight_, has_bias_, grad_output);
  grad_weight_.add_(g.grad_weight);
  if (has_bias_) grad_bias_.add_(g.grad_bias);
  return std::move(g.grad_input);
}

std::vector<std::span<float>> LinearLayer::param_spans() {
  std::vector<std::span<float>> v{weight_.data()};
  if (has_bias_) v.push_back(bias_.data());
  return v;
}

std::vector<std::span<float>> LinearLayer::grad_spans() {
  std::vector<std::span<float>> v{grad_weight_.data()};
  if (has_bias_) v.push_back(grad_bias_.data());
  return v;
}

void LinearLayer::init(Rng& rng) {
  init_kaiming_normal(weight_, in_features_, rng);
  if (has_bias_) bias_.zero();
}

std::string LinearLayer::name() const {
  std::ostringstream ss;
  ss << "linear(" << in_features_ << "->" << out_features_ << ")";
  return ss.str();
}

std::unique_ptr<Layer> make_conv(int cin, int cout, int kernel, int stride, int pad, bool bias) {
  return std::make_unique<Conv2dLayer>(cin, cout, kernel, stride, pad, bias);
}

}  // namespace micronas
