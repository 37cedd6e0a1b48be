// Structural layers: Slice (the inverse of Concat), Reshape (zero-copy
// re-interpretation), ArgMax (evaluation-only class extraction) and
// Silence (explicitly consumes unused blobs).
#pragma once

#include <vector>

#include "cgdnn/layers/layer.hpp"

namespace cgdnn {

/// Slice: splits the bottom along `axis` into the tops, either at explicit
/// slice_points or into equal parts.
template <typename Dtype>
class SliceLayer : public Layer<Dtype> {
 public:
  explicit SliceLayer(const proto::LayerParameter& param)
      : Layer<Dtype>(param) {}
  void Reshape(const std::vector<Blob<Dtype>*>& bottom,
               const std::vector<Blob<Dtype>*>& top) override;
  const char* type() const override { return "Slice"; }
  int ExactNumBottomBlobs() const override { return 1; }
  int MinTopBlobs() const override { return 1; }

 protected:
  void Forward_cpu(const std::vector<Blob<Dtype>*>& bottom,
                   const std::vector<Blob<Dtype>*>& top) override;
  void Backward_cpu(const std::vector<Blob<Dtype>*>& top,
                    const std::vector<bool>& propagate_down,
                    const std::vector<Blob<Dtype>*>& bottom) override;

 private:
  int axis_ = 1;
  index_t num_slices_ = 0;   // product of dims before axis
  index_t slice_input_ = 0;  // bottom count from axis on
  std::vector<index_t> sizes_;  // per-top extent along axis
};

/// Reshape: shares the bottom's storage under a new shape. Target dims of
/// 0 copy the corresponding bottom dim; a single -1 is inferred.
template <typename Dtype>
class ReshapeLayer : public Layer<Dtype> {
 public:
  explicit ReshapeLayer(const proto::LayerParameter& param)
      : Layer<Dtype>(param) {}
  void Reshape(const std::vector<Blob<Dtype>*>& bottom,
               const std::vector<Blob<Dtype>*>& top) override;
  const char* type() const override { return "Reshape"; }
  int ExactNumBottomBlobs() const override { return 1; }
  int ExactNumTopBlobs() const override { return 1; }

 protected:
  void Forward_cpu(const std::vector<Blob<Dtype>*>& /*bottom*/,
                   const std::vector<Blob<Dtype>*>& /*top*/) override {}
  void Backward_cpu(const std::vector<Blob<Dtype>*>& /*top*/,
                    const std::vector<bool>& /*propagate_down*/,
                    const std::vector<Blob<Dtype>*>& /*bottom*/) override {}
};

/// ArgMax: per sample, the indices of the top_k highest scores (and
/// optionally the values). Evaluation-only.
template <typename Dtype>
class ArgMaxLayer : public Layer<Dtype> {
 public:
  explicit ArgMaxLayer(const proto::LayerParameter& param)
      : Layer<Dtype>(param) {}
  void Reshape(const std::vector<Blob<Dtype>*>& bottom,
               const std::vector<Blob<Dtype>*>& top) override;
  const char* type() const override { return "ArgMax"; }
  int ExactNumBottomBlobs() const override { return 1; }
  int ExactNumTopBlobs() const override { return 1; }
  bool AllowForceBackward(int /*bottom_index*/) const override {
    return false;
  }

 protected:
  void Forward_cpu(const std::vector<Blob<Dtype>*>& bottom,
                   const std::vector<Blob<Dtype>*>& top) override;
  void Backward_cpu(const std::vector<Blob<Dtype>*>& /*top*/,
                    const std::vector<bool>& propagate_down,
                    const std::vector<Blob<Dtype>*>& /*bottom*/) override {
    for (const bool pd : propagate_down) {
      CGDNN_CHECK(!pd) << "ArgMax cannot backpropagate";
    }
  }

 private:
  void ForwardSample(const Dtype* scores, Dtype* out, index_t n) const;

  index_t top_k_ = 1;
  bool out_max_val_ = false;
  index_t dim_ = 0;
};

/// Silence: consumes bottoms, produces nothing; backward zeroes the bottom
/// diffs (so unused net outputs do not propagate garbage).
template <typename Dtype>
class SilenceLayer : public Layer<Dtype> {
 public:
  explicit SilenceLayer(const proto::LayerParameter& param)
      : Layer<Dtype>(param) {}
  void Reshape(const std::vector<Blob<Dtype>*>& /*bottom*/,
               const std::vector<Blob<Dtype>*>& /*top*/) override {}
  const char* type() const override { return "Silence"; }
  int MinBottomBlobs() const override { return 1; }
  int ExactNumTopBlobs() const override { return 0; }

 protected:
  void Forward_cpu(const std::vector<Blob<Dtype>*>& /*bottom*/,
                   const std::vector<Blob<Dtype>*>& /*top*/) override {}
  void Backward_cpu(const std::vector<Blob<Dtype>*>& /*top*/,
                    const std::vector<bool>& propagate_down,
                    const std::vector<Blob<Dtype>*>& bottom) override {
    for (std::size_t i = 0; i < bottom.size(); ++i) {
      if (propagate_down[i]) bottom[i]->set_diff(Dtype(0));
    }
  }
};

}  // namespace cgdnn
