// PoolingLayer: MAX / AVE spatial pooling (the paper's dimensionality-
// reduction layers, §2.2.1).
//
// Coarse-grain parallelization: the (sample, channel) loops are coalesced
// (Algorithm 4) — each (n, c) plane is an independent work unit in both
// passes, so there is no gradient race and no privatization is needed; the
// coalescing exists purely for work-balance (a batch of 64 with 16 threads
// would otherwise quantize badly once per-sample work shrinks deep in the
// net — the pool2 granularity effect of Fig. 5).
#pragma once

#include <vector>

#include "cgdnn/layers/layer.hpp"

namespace cgdnn {

template <typename Dtype>
class PoolingLayer : public Layer<Dtype> {
 public:
  explicit PoolingLayer(const proto::LayerParameter& param)
      : Layer<Dtype>(param) {}

  void LayerSetUp(const std::vector<Blob<Dtype>*>& bottom,
                  const std::vector<Blob<Dtype>*>& top) override;
  void Reshape(const std::vector<Blob<Dtype>*>& bottom,
               const std::vector<Blob<Dtype>*>& top) override;

  const char* type() const override { return "Pooling"; }
  int ExactNumBottomBlobs() const override { return 1; }
  int ExactNumTopBlobs() const override { return 1; }

 protected:
  void Forward_cpu(const std::vector<Blob<Dtype>*>& bottom,
                   const std::vector<Blob<Dtype>*>& top) override;
  void Backward_cpu(const std::vector<Blob<Dtype>*>& top,
                    const std::vector<bool>& propagate_down,
                    const std::vector<Blob<Dtype>*>& bottom) override;

 private:
  // Per-(sample, channel)-plane kernels.
  void ForwardPlane(const Dtype* bottom_plane, Dtype* top_plane,
                    index_t* mask_plane) const;
  void BackwardPlane(const Dtype* top_diff_plane, const index_t* mask_plane,
                     Dtype* bottom_diff_plane) const;

  proto::PoolingParameter::Method method_ =
      proto::PoolingParameter::Method::kMax;
  index_t kernel_ = 0, stride_ = 1, pad_ = 0;
  bool global_pooling_ = false;

  index_t num_ = 0, channels_ = 0, height_ = 0, width_ = 0;
  index_t pooled_h_ = 0, pooled_w_ = 0;

  /// Argmax per output element (MAX pooling only), for the backward pass.
  std::vector<index_t> max_idx_;
};

}  // namespace cgdnn
