// Element-wise ("neuron") layers: ReLU, Sigmoid, TanH, Dropout.
//
// These are the small-granularity layers of the paper's u-shaped scalability
// curves (Figs. 5/8): fully parallel with zero races, but so little work per
// element that thread-level speedup saturates early. Their loops coalesce
// the ENTIRE index space (batch x all blob dims) into one —
// "some layers coalesce the whole loop nest" (§3.2.1).
#pragma once

#include <vector>

#include "cgdnn/core/rng.hpp"
#include "cgdnn/layers/layer.hpp"
#include "cgdnn/parallel/for.hpp"

namespace cgdnn {

/// Common base: one bottom, one top (possibly in-place), top shaped like
/// bottom.
template <typename Dtype>
class NeuronLayer : public Layer<Dtype> {
 public:
  explicit NeuronLayer(const proto::LayerParameter& param)
      : Layer<Dtype>(param) {}
  void Reshape(const std::vector<Blob<Dtype>*>& bottom,
               const std::vector<Blob<Dtype>*>& top) override {
    top[0]->ReshapeLike(*bottom[0]);
  }
  int ExactNumBottomBlobs() const override { return 1; }
  int ExactNumTopBlobs() const override { return 1; }

 protected:
  /// Runs `fn(i)` for every i in [0, count) as one parallel::For over the
  /// whole coalesced nest; `pass` is ".forward" or ".backward".
  template <typename Fn>
  void ForEachElement(const char* pass, index_t count, const Fn& fn) {
    parallel::For<Dtype>(this->layer_param_.name + pass, {count},
                         [&fn](const parallel::Chunk<Dtype>& c) {
                           const Fn local = fn;  // keeps loads loop-invariant
                           for (index_t i = c.begin; i < c.end; ++i) {
                             local(i);
                           }
                         });
  }
};

template <typename Dtype>
class ReLULayer : public NeuronLayer<Dtype> {
 public:
  explicit ReLULayer(const proto::LayerParameter& param)
      : NeuronLayer<Dtype>(param),
        negative_slope_(static_cast<Dtype>(param.relu_param.negative_slope)) {}
  const char* type() const override { return "ReLU"; }

 protected:
  void Forward_cpu(const std::vector<Blob<Dtype>*>& bottom,
                   const std::vector<Blob<Dtype>*>& top) override;
  void Backward_cpu(const std::vector<Blob<Dtype>*>& top,
                    const std::vector<bool>& propagate_down,
                    const std::vector<Blob<Dtype>*>& bottom) override;

 private:
  Dtype negative_slope_;
};

template <typename Dtype>
class SigmoidLayer : public NeuronLayer<Dtype> {
 public:
  using NeuronLayer<Dtype>::NeuronLayer;
  const char* type() const override { return "Sigmoid"; }

 protected:
  void Forward_cpu(const std::vector<Blob<Dtype>*>& bottom,
                   const std::vector<Blob<Dtype>*>& top) override;
  void Backward_cpu(const std::vector<Blob<Dtype>*>& top,
                    const std::vector<bool>& propagate_down,
                    const std::vector<Blob<Dtype>*>& bottom) override;
};

template <typename Dtype>
class TanHLayer : public NeuronLayer<Dtype> {
 public:
  using NeuronLayer<Dtype>::NeuronLayer;
  const char* type() const override { return "TanH"; }

 protected:
  void Forward_cpu(const std::vector<Blob<Dtype>*>& bottom,
                   const std::vector<Blob<Dtype>*>& top) override;
  void Backward_cpu(const std::vector<Blob<Dtype>*>& top,
                    const std::vector<bool>& propagate_down,
                    const std::vector<Blob<Dtype>*>& bottom) override;
};

/// Dropout with inverted scaling (outputs scaled by 1/(1-ratio) at train
/// time). The mask for element i of forward pass k is a pure function of
/// (layer seed, k, i), so masks are identical for any thread count —
/// randomness never breaks convergence invariance.
template <typename Dtype>
class DropoutLayer : public NeuronLayer<Dtype> {
 public:
  explicit DropoutLayer(const proto::LayerParameter& param);
  const char* type() const override { return "Dropout"; }
  void Reshape(const std::vector<Blob<Dtype>*>& bottom,
               const std::vector<Blob<Dtype>*>& top) override;

  // The mask stream is keyed by (layer seed, pass counter, element); the
  // counter must survive checkpoint/resume so resumed passes draw the same
  // masks the uninterrupted run would have.
  void ExportRuntimeState(std::vector<std::uint64_t>& state) const override {
    state.push_back(pass_counter_);
  }
  void ImportRuntimeState(const std::vector<std::uint64_t>& state) override {
    CGDNN_CHECK_EQ(state.size(), 1u)
        << "Dropout layer runtime state must be {pass_counter}";
    pass_counter_ = state[0];
  }

 protected:
  void Forward_cpu(const std::vector<Blob<Dtype>*>& bottom,
                   const std::vector<Blob<Dtype>*>& top) override;
  void Backward_cpu(const std::vector<Blob<Dtype>*>& top,
                    const std::vector<bool>& propagate_down,
                    const std::vector<Blob<Dtype>*>& bottom) override;

 private:
  bool MaskKeep(index_t i) const;

  Dtype ratio_;
  Dtype scale_;
  Rng base_;
  std::uint64_t pass_counter_ = 0;
  std::vector<Dtype> mask_;  // scale or 0 per element, kept for backward
};

}  // namespace cgdnn
