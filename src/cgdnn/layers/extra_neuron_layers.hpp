// Additional element-wise layers completing the Caffe neuron-layer family:
// Power, Exp, Log, AbsVal, BNLL (softplus) and ELU.
//
// All of them coalesce the whole loop nest, which the shared
// ElementwiseNeuronLayer base implements once: subclasses only provide the
// per-element function and derivative — and automatically get the paper's
// batch-level parallelization (a concrete demonstration of the
// network-agnostic property inside the library itself).
#pragma once

#include <cmath>

#include "cgdnn/layers/neuron_layers.hpp"

namespace cgdnn {

/// Base for stateless element-wise layers: y_i = f(x_i),
/// dx_i = dy_i * f'(x_i, y_i).
template <typename Dtype>
class ElementwiseNeuronLayer : public NeuronLayer<Dtype> {
 public:
  using NeuronLayer<Dtype>::NeuronLayer;

 protected:
  virtual Dtype Evaluate(Dtype x) const = 0;
  /// Derivative given input x and already-computed output y.
  virtual Dtype Derivative(Dtype x, Dtype y) const = 0;

  void Forward_cpu(const std::vector<Blob<Dtype>*>& bottom,
                   const std::vector<Blob<Dtype>*>& top) override;
  void Backward_cpu(const std::vector<Blob<Dtype>*>& top,
                    const std::vector<bool>& propagate_down,
                    const std::vector<Blob<Dtype>*>& bottom) override;
};

/// y = (shift + scale * x) ^ power
template <typename Dtype>
class PowerLayer : public ElementwiseNeuronLayer<Dtype> {
 public:
  explicit PowerLayer(const proto::LayerParameter& param)
      : ElementwiseNeuronLayer<Dtype>(param),
        power_(static_cast<Dtype>(param.power_param.power)),
        scale_(static_cast<Dtype>(param.power_param.scale)),
        shift_(static_cast<Dtype>(param.power_param.shift)) {}
  const char* type() const override { return "Power"; }

 protected:
  Dtype Evaluate(Dtype x) const override {
    return std::pow(shift_ + scale_ * x, power_);
  }
  Dtype Derivative(Dtype x, Dtype y) const override {
    // dy/dx = power * scale * (shift + scale x)^(power-1)
    //       = power * scale * y / (shift + scale x)  when the base != 0.
    const Dtype base = shift_ + scale_ * x;
    if (power_ == Dtype(1)) return scale_;
    if (base == Dtype(0)) return Dtype(0);
    return power_ * scale_ * y / base;
  }

 private:
  Dtype power_, scale_, shift_;
};

/// y = base ^ (shift + scale * x)
template <typename Dtype>
class ExpLayer : public ElementwiseNeuronLayer<Dtype> {
 public:
  explicit ExpLayer(const proto::LayerParameter& param)
      : ElementwiseNeuronLayer<Dtype>(param),
        log_base_(param.exp_param.base < 0
                      ? Dtype(1)
                      : static_cast<Dtype>(std::log(param.exp_param.base))),
        scale_(static_cast<Dtype>(param.exp_param.scale)),
        shift_(static_cast<Dtype>(param.exp_param.shift)) {
    CGDNN_CHECK(param.exp_param.base < 0 || param.exp_param.base > 0)
        << "Exp base must be positive (or -1 for e)";
  }
  const char* type() const override { return "Exp"; }

 protected:
  Dtype Evaluate(Dtype x) const override {
    return std::exp((shift_ + scale_ * x) * log_base_);
  }
  Dtype Derivative(Dtype /*x*/, Dtype y) const override {
    return y * scale_ * log_base_;
  }

 private:
  Dtype log_base_, scale_, shift_;
};

/// y = log_base(shift + scale * x)
template <typename Dtype>
class LogLayer : public ElementwiseNeuronLayer<Dtype> {
 public:
  explicit LogLayer(const proto::LayerParameter& param)
      : ElementwiseNeuronLayer<Dtype>(param),
        inv_log_base_(param.log_param.base < 0
                          ? Dtype(1)
                          : Dtype(1) / static_cast<Dtype>(
                                           std::log(param.log_param.base))),
        scale_(static_cast<Dtype>(param.log_param.scale)),
        shift_(static_cast<Dtype>(param.log_param.shift)) {}
  const char* type() const override { return "Log"; }

 protected:
  Dtype Evaluate(Dtype x) const override {
    return std::log(shift_ + scale_ * x) * inv_log_base_;
  }
  Dtype Derivative(Dtype x, Dtype /*y*/) const override {
    return scale_ * inv_log_base_ / (shift_ + scale_ * x);
  }

 private:
  Dtype inv_log_base_, scale_, shift_;
};

/// y = |x|
template <typename Dtype>
class AbsValLayer : public ElementwiseNeuronLayer<Dtype> {
 public:
  using ElementwiseNeuronLayer<Dtype>::ElementwiseNeuronLayer;
  const char* type() const override { return "AbsVal"; }

 protected:
  Dtype Evaluate(Dtype x) const override { return std::abs(x); }
  Dtype Derivative(Dtype x, Dtype /*y*/) const override {
    return x > 0 ? Dtype(1) : (x < 0 ? Dtype(-1) : Dtype(0));
  }
};

/// BNLL / softplus: y = log(1 + exp(x)), evaluated overflow-safely.
template <typename Dtype>
class BNLLLayer : public ElementwiseNeuronLayer<Dtype> {
 public:
  using ElementwiseNeuronLayer<Dtype>::ElementwiseNeuronLayer;
  const char* type() const override { return "BNLL"; }

 protected:
  Dtype Evaluate(Dtype x) const override {
    return x > 0 ? x + std::log1p(std::exp(-x)) : std::log1p(std::exp(x));
  }
  Dtype Derivative(Dtype x, Dtype /*y*/) const override {
    // sigmoid(x)
    return Dtype(0.5) * std::tanh(Dtype(0.5) * x) + Dtype(0.5);
  }
};

/// ELU: y = x for x > 0, alpha * (exp(x) - 1) otherwise.
template <typename Dtype>
class ELULayer : public ElementwiseNeuronLayer<Dtype> {
 public:
  explicit ELULayer(const proto::LayerParameter& param)
      : ElementwiseNeuronLayer<Dtype>(param),
        alpha_(static_cast<Dtype>(param.elu_param.alpha)) {}
  const char* type() const override { return "ELU"; }

 protected:
  Dtype Evaluate(Dtype x) const override {
    return x > 0 ? x : alpha_ * (std::exp(x) - Dtype(1));
  }
  Dtype Derivative(Dtype x, Dtype y) const override {
    return x > 0 ? Dtype(1) : y + alpha_;
  }

 private:
  Dtype alpha_;
};

}  // namespace cgdnn
