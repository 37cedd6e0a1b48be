// BatchNormLayer: per-channel normalization to zero mean / unit variance
// (Caffe semantics: normalization only — pair with Scale(bias_term) for the
// learned affine transform).
//
// State blobs (never updated by the solver; their ParamSpecs get lr_mult 0
// automatically): [0] running mean x scale, [1] running variance x scale,
// [2] accumulated scale factor. Stored statistics are divided by the scale
// factor on use — Caffe's on-disk format, so .caffemodel-style weight
// exchange keeps working.
//
// Coarse-grain parallelization: channels are independent, so the (C) loop
// partitions across threads for statistics, normalization and backward —
// per-channel accumulations keep their serial order (bit-exact, no
// privatization), another instance of the §3.1.2 loop-rearrangement freedom.
#pragma once

#include "cgdnn/layers/layer.hpp"

namespace cgdnn {

template <typename Dtype>
class BatchNormLayer : public Layer<Dtype> {
 public:
  explicit BatchNormLayer(const proto::LayerParameter& param)
      : Layer<Dtype>(param) {}

  void LayerSetUp(const std::vector<Blob<Dtype>*>& bottom,
                  const std::vector<Blob<Dtype>*>& top) override;
  void Reshape(const std::vector<Blob<Dtype>*>& bottom,
               const std::vector<Blob<Dtype>*>& top) override;
  const char* type() const override { return "BatchNorm"; }
  int ExactNumBottomBlobs() const override { return 1; }
  int ExactNumTopBlobs() const override { return 1; }

 protected:
  void Forward_cpu(const std::vector<Blob<Dtype>*>& bottom,
                   const std::vector<Blob<Dtype>*>& top) override;
  void Backward_cpu(const std::vector<Blob<Dtype>*>& top,
                    const std::vector<bool>& propagate_down,
                    const std::vector<Blob<Dtype>*>& bottom) override;

 private:
  /// Forward for channels [c0, c1): statistics (train) or stored stats
  /// (global), then normalization; saves mean_/inv_std_ for backward.
  void ForwardChannels(const Dtype* x, Dtype* y, Dtype* mean,
                       Dtype* inv_std, index_t c0, index_t c1);
  /// Backward for channels [c0, c1).
  void BackwardChannels(const Dtype* x, const Dtype* dy, Dtype* dx,
                        index_t c0, index_t c1) const;
  /// Running-statistics EMA update (serial part of the train forward).
  void UpdateRunningStats();

  bool use_global_stats_ = false;
  Dtype moving_average_fraction_ = Dtype(0.999);
  Dtype eps_ = Dtype(1e-5);
  index_t num_ = 0, channels_ = 0, spatial_ = 0;

  Blob<Dtype> mean_;     // per-channel mean used by this pass
  Blob<Dtype> inv_std_;  // per-channel 1/sqrt(var + eps)
};

}  // namespace cgdnn
