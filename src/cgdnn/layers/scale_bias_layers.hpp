// Scale and Bias layers: per-slice multiplicative / additive transforms
// with learnable coefficients, broadcast over the remaining axes (the
// building blocks batch-norm-style pipelines use in Caffe).
//
// For a bottom of shape (d0, ..., d_{axis-1}, S, inner...) with coefficient
// shape S (num_axes = 1 at `axis`, the common case):
//   Scale: y[o, s, i] = x[o, s, i] * w[s]     (+ b[s] with bias_term)
//   Bias:  y[o, s, i] = x[o, s, i] + b[s]
//
// Both passes coalesce the (outer, S) loops; coefficient gradients
// partition by coefficient index across threads (each w[s] sums over
// disjoint slices read by one thread only — no privatization needed, like
// InnerProduct's row partitioning).
#pragma once

#include "cgdnn/layers/layer.hpp"

namespace cgdnn {

template <typename Dtype>
class ScaleLayer : public Layer<Dtype> {
 public:
  explicit ScaleLayer(const proto::LayerParameter& param)
      : Layer<Dtype>(param) {}

  void LayerSetUp(const std::vector<Blob<Dtype>*>& bottom,
                  const std::vector<Blob<Dtype>*>& top) override;
  void Reshape(const std::vector<Blob<Dtype>*>& bottom,
               const std::vector<Blob<Dtype>*>& top) override;
  const char* type() const override { return "Scale"; }
  int ExactNumBottomBlobs() const override { return 1; }
  int ExactNumTopBlobs() const override { return 1; }

 protected:
  void Forward_cpu(const std::vector<Blob<Dtype>*>& bottom,
                   const std::vector<Blob<Dtype>*>& top) override;
  void Backward_cpu(const std::vector<Blob<Dtype>*>& top,
                    const std::vector<bool>& propagate_down,
                    const std::vector<Blob<Dtype>*>& bottom) override;

 private:
  bool bias_term_ = false;
  index_t outer_ = 0, scale_dim_ = 0, inner_ = 0;
};

template <typename Dtype>
class BiasLayer : public Layer<Dtype> {
 public:
  explicit BiasLayer(const proto::LayerParameter& param)
      : Layer<Dtype>(param) {}

  void LayerSetUp(const std::vector<Blob<Dtype>*>& bottom,
                  const std::vector<Blob<Dtype>*>& top) override;
  void Reshape(const std::vector<Blob<Dtype>*>& bottom,
               const std::vector<Blob<Dtype>*>& top) override;
  const char* type() const override { return "Bias"; }
  int ExactNumBottomBlobs() const override { return 1; }
  int ExactNumTopBlobs() const override { return 1; }

 protected:
  void Forward_cpu(const std::vector<Blob<Dtype>*>& bottom,
                   const std::vector<Blob<Dtype>*>& top) override;
  void Backward_cpu(const std::vector<Blob<Dtype>*>& top,
                    const std::vector<bool>& propagate_down,
                    const std::vector<Blob<Dtype>*>& bottom) override;

 private:
  index_t outer_ = 0, bias_dim_ = 0, inner_ = 0;
};

}  // namespace cgdnn
