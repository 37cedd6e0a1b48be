// InnerProductLayer (fully connected): top = bottom * W^T + b.
//
// This is the paper's poor-scalability case study (ip1 in Fig. 5: ~4.6-5.9x
// at 8 threads, flat beyond): the work per sample is one GEMV, so deep in
// the net the per-thread granularity is tiny, and its input layout (pool2's
// output distribution) does not match its own work distribution.
//
// Coarse-grain parallelization: threads take contiguous sample chunks; each
// chunk is an independent GEMM over its rows (bit-identical to the whole-
// batch evaluation). The backward weight and bias gradients are split by
// output row instead — each chunk transposes its rows of the top diff and
// runs one GEMM — so no privatization or merge is needed.
#pragma once

#include "cgdnn/layers/layer.hpp"

namespace cgdnn {

template <typename Dtype>
class InnerProductLayer : public Layer<Dtype> {
 public:
  explicit InnerProductLayer(const proto::LayerParameter& param)
      : Layer<Dtype>(param) {}

  void LayerSetUp(const std::vector<Blob<Dtype>*>& bottom,
                  const std::vector<Blob<Dtype>*>& top) override;
  void Reshape(const std::vector<Blob<Dtype>*>& bottom,
               const std::vector<Blob<Dtype>*>& top) override;

  const char* type() const override { return "InnerProduct"; }
  int ExactNumBottomBlobs() const override { return 1; }
  int ExactNumTopBlobs() const override { return 1; }

 protected:
  void Forward_cpu(const std::vector<Blob<Dtype>*>& bottom,
                   const std::vector<Blob<Dtype>*>& top) override;
  void Backward_cpu(const std::vector<Blob<Dtype>*>& top,
                    const std::vector<bool>& propagate_down,
                    const std::vector<Blob<Dtype>*>& bottom) override;

 private:
  index_t num_output_ = 0;
  bool bias_term_ = true;
  index_t m_ = 0;  // batch size
  index_t k_ = 0;  // input feature dim
  Blob<Dtype> top_diff_t_;  // top diff transposed (num_output x m), backward
};

}  // namespace cgdnn
