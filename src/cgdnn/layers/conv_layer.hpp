// ConvolutionLayer: im2col + GEMM convolution, the dominant layer of both
// evaluation networks (≈80% of MNIST iteration time, Fig. 4).
//
// Coarse-grain parallelization (paper §3.2.1): the batch loop is the
// parallel loop — each sample's im2col lowering and GEMMs are independent,
// so the forward pass needs only a per-thread column buffer. The backward
// pass additionally privatizes the weight/bias gradient accumulators and
// merges them with the configured GradientMerge strategy.
#pragma once

#include "cgdnn/blas/direct_conv.hpp"
#include "cgdnn/layers/layer.hpp"
#include "cgdnn/parallel/for.hpp"

namespace cgdnn {

/// Per-phase conv execution strategy, chosen by the planner's cost model.
/// kIm2colGemm materializes the column matrix; kDirect gathers it
/// implicitly while packing (blas/direct_conv.hpp). Both are bit-identical.
enum class ConvStrategy { kIm2colGemm = 0, kDirect = 1 };

template <typename Dtype>
class ConvolutionLayer : public Layer<Dtype> {
 public:
  explicit ConvolutionLayer(const proto::LayerParameter& param)
      : Layer<Dtype>(param) {}

  void LayerSetUp(const std::vector<Blob<Dtype>*>& bottom,
                  const std::vector<Blob<Dtype>*>& top) override;
  void Reshape(const std::vector<Blob<Dtype>*>& bottom,
               const std::vector<Blob<Dtype>*>& top) override;

  const char* type() const override { return "Convolution"; }
  int ExactNumBottomBlobs() const override { return 1; }
  int ExactNumTopBlobs() const override { return 1; }

  index_t out_height() const { return out_h_; }
  index_t out_width() const { return out_w_; }

  /// This layer's per-sample geometry for the planner's cost model and the
  /// direct kernels. Valid after Reshape.
  blas::ConvGeom geom() const;
  /// True when the direct (implicit-im2col) kernels cover this layer's
  /// shape (group == 1, no dilation).
  bool DirectSupported() const;
  index_t num_output() const { return num_output_; }
  index_t col_count() const { return col_count_; }

  // Planner hooks: strategies default to kIm2colGemm (the unplanned
  // behavior); set from serial code only.
  ConvStrategy forward_strategy() const { return forward_strategy_; }
  ConvStrategy backward_weights_strategy() const {
    return backward_weights_strategy_;
  }
  void set_forward_strategy(ConvStrategy s) { forward_strategy_ = s; }
  void set_backward_weights_strategy(ConvStrategy s) {
    backward_weights_strategy_ = s;
  }
  /// Points the serial-path column buffer at an arena slot (count >=
  /// col_count()) instead of the layer's private lazily-grown blob; nullptr
  /// reverts to the private buffer.
  void BindSerialColBuffer(Dtype* slot, index_t count);

 protected:
  void Forward_cpu(const std::vector<Blob<Dtype>*>& bottom,
                   const std::vector<Blob<Dtype>*>& top) override;
  void Backward_cpu(const std::vector<Blob<Dtype>*>& top,
                    const std::vector<bool>& propagate_down,
                    const std::vector<Blob<Dtype>*>& bottom) override;

 private:
  // One sample's forward/backward kernels (`col` is the caller-provided
  // column buffer).
  void ForwardSample(const Dtype* bottom_data, Dtype* top_data,
                     Dtype* col) const;
  void BackwardSampleWeights(const Dtype* bottom_data, const Dtype* top_diff,
                             Dtype* weight_diff, Dtype* bias_diff,
                             Dtype* col) const;
  void BackwardSampleBottom(const Dtype* top_diff, Dtype* bottom_diff,
                            Dtype* col) const;
  void Im2ColSample(const Dtype* bottom_data, Dtype* col) const;
  /// Lazily (re)shapes the member column buffer; used at one thread only —
  /// team members draw per-thread pool buffers instead.
  Dtype* SerialColBuffer();
  /// The column buffer for one loop chunk: SerialColBuffer() at one thread
  /// (where the body runs on the calling thread), a pool buffer in a team.
  Dtype* ColBuffer(const parallel::Chunk<Dtype>& chunk);

  index_t num_output_ = 0;
  bool bias_term_ = true;
  index_t kernel_h_ = 0, kernel_w_ = 0;
  index_t stride_h_ = 1, stride_w_ = 1;
  index_t pad_h_ = 0, pad_w_ = 0;
  index_t dilation_ = 1;
  index_t group_ = 1;

  index_t channels_ = 0, height_ = 0, width_ = 0;
  index_t num_ = 0;
  index_t out_h_ = 0, out_w_ = 0;
  index_t out_spatial_ = 0;
  index_t kernel_dim_ = 0;      // channels/group * kh * kw
  index_t col_count_ = 0;       // channels * kh * kw * out_spatial
  index_t bottom_dim_ = 0, top_dim_ = 0;

  ConvStrategy forward_strategy_ = ConvStrategy::kIm2colGemm;
  ConvStrategy backward_weights_strategy_ = ConvStrategy::kIm2colGemm;

  Blob<Dtype> col_buffer_;       // serial-path column buffer (lazy)
  Dtype* planned_col_ = nullptr;  // arena slot replacing col_buffer_
  index_t planned_col_count_ = 0;
  Blob<Dtype> bias_multiplier_;  // vector of ones, length out_spatial
};

}  // namespace cgdnn
