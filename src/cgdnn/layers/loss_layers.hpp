// Loss layers. SoftmaxWithLoss is the terminal layer of both evaluation
// networks; EuclideanLoss supports regression examples/tests.
//
// Loss reduction over the batch is a sum of per-sample terms. The forward
// loop writes per-sample losses to disjoint slots of an array that is then
// reduced in ascending sample order, which keeps the loss bit-independent
// of thread count — the loss value is the quantity developers watch for
// the paper's convergence-invariance property.
#pragma once

#include <vector>

#include "cgdnn/layers/layer.hpp"

namespace cgdnn {

/// Common base: loss layers take (prediction, label/target) bottoms and
/// produce a scalar top with default loss weight 1.
template <typename Dtype>
class LossLayer : public Layer<Dtype> {
 public:
  explicit LossLayer(const proto::LayerParameter& param)
      : Layer<Dtype>(param) {}
  void Reshape(const std::vector<Blob<Dtype>*>& bottom,
               const std::vector<Blob<Dtype>*>& top) override {
    CGDNN_CHECK_EQ(bottom[0]->num(), bottom[1]->num())
        << "prediction and label batch sizes differ";
    top[0]->Reshape(std::vector<index_t>{});  // scalar
  }
  int ExactNumBottomBlobs() const override { return 2; }
  int ExactNumTopBlobs() const override { return 1; }
  bool AllowForceBackward(int bottom_index) const override {
    return bottom_index != 1;  // never backprop into labels
  }

 protected:
  Dtype DefaultLossWeight(int index) const override {
    return index == 0 ? Dtype(1) : Dtype(0);
  }
};

template <typename Dtype>
class SoftmaxWithLossLayer : public LossLayer<Dtype> {
 public:
  explicit SoftmaxWithLossLayer(const proto::LayerParameter& param)
      : LossLayer<Dtype>(param) {}

  void Reshape(const std::vector<Blob<Dtype>*>& bottom,
               const std::vector<Blob<Dtype>*>& top) override;

  const char* type() const override { return "SoftmaxWithLoss"; }

  /// Class probabilities from the last forward pass (tests/examples).
  const Blob<Dtype>& prob() const { return prob_; }

 protected:
  void Forward_cpu(const std::vector<Blob<Dtype>*>& bottom,
                   const std::vector<Blob<Dtype>*>& top) override;
  void Backward_cpu(const std::vector<Blob<Dtype>*>& top,
                    const std::vector<bool>& propagate_down,
                    const std::vector<Blob<Dtype>*>& bottom) override;

 private:
  /// Computes prob_ for one sample and returns its -log p(label) term
  /// (0 for ignored labels).
  Dtype ForwardSample(const Dtype* bottom_data, const Dtype* label,
                      Dtype* prob_data, index_t n);
  void BackwardSample(const Dtype* label, Dtype* bottom_diff, index_t n,
                      Dtype scale) const;
  Dtype Normalizer() const;

  index_t num_ = 0;
  index_t channels_ = 0;
  Blob<Dtype> prob_;
  std::vector<Dtype> per_sample_loss_;
};

template <typename Dtype>
class EuclideanLossLayer : public LossLayer<Dtype> {
 public:
  explicit EuclideanLossLayer(const proto::LayerParameter& param)
      : LossLayer<Dtype>(param) {}

  void Reshape(const std::vector<Blob<Dtype>*>& bottom,
               const std::vector<Blob<Dtype>*>& top) override;

  const char* type() const override { return "EuclideanLoss"; }
  bool AllowForceBackward(int /*bottom_index*/) const override {
    return true;  // both bottoms are differentiable
  }

 protected:
  void Forward_cpu(const std::vector<Blob<Dtype>*>& bottom,
                   const std::vector<Blob<Dtype>*>& top) override;
  void Backward_cpu(const std::vector<Blob<Dtype>*>& top,
                    const std::vector<bool>& propagate_down,
                    const std::vector<Blob<Dtype>*>& bottom) override;

 private:
  Blob<Dtype> diff_;
};

}  // namespace cgdnn
