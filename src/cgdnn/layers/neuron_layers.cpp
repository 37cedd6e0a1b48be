#include "cgdnn/layers/neuron_layers.hpp"

#include <cmath>

#include "cgdnn/blas/blas.hpp"
#include "cgdnn/core/rng.hpp"

namespace cgdnn {

// -------------------------------------------------------------------- ReLU

template <typename Dtype>
void ReLULayer<Dtype>::Forward_cpu(const std::vector<Blob<Dtype>*>& bottom,
                                   const std::vector<Blob<Dtype>*>& top) {
  const Dtype* x = bottom[0]->cpu_data();
  Dtype* y = top[0]->mutable_cpu_data();
  const Dtype slope = negative_slope_;
  this->ForEachElement(".forward", bottom[0]->count(), [=](index_t i) {
    y[i] = x[i] > 0 ? x[i] : slope * x[i];
  });
}

template <typename Dtype>
void ReLULayer<Dtype>::Backward_cpu(const std::vector<Blob<Dtype>*>& top,
                                    const std::vector<bool>& propagate_down,
                                    const std::vector<Blob<Dtype>*>& bottom) {
  if (!propagate_down[0]) return;
  const Dtype* x = bottom[0]->cpu_data();
  const Dtype* dy = top[0]->cpu_diff();
  Dtype* dx = bottom[0]->mutable_cpu_diff();
  const Dtype slope = negative_slope_;
  this->ForEachElement(".backward", bottom[0]->count(), [=](index_t i) {
    dx[i] = dy[i] * (x[i] > 0 ? Dtype(1) : slope);
  });
}

// ----------------------------------------------------------------- Sigmoid

template <typename Dtype>
void SigmoidLayer<Dtype>::Forward_cpu(const std::vector<Blob<Dtype>*>& bottom,
                                      const std::vector<Blob<Dtype>*>& top) {
  const Dtype* x = bottom[0]->cpu_data();
  Dtype* y = top[0]->mutable_cpu_data();
  this->ForEachElement(".forward", bottom[0]->count(), [=](index_t i) {
    y[i] = Dtype(0.5) * std::tanh(Dtype(0.5) * x[i]) + Dtype(0.5);
  });
}

template <typename Dtype>
void SigmoidLayer<Dtype>::Backward_cpu(const std::vector<Blob<Dtype>*>& top,
                                       const std::vector<bool>& propagate_down,
                                       const std::vector<Blob<Dtype>*>& bottom) {
  if (!propagate_down[0]) return;
  const Dtype* y = top[0]->cpu_data();
  const Dtype* dy = top[0]->cpu_diff();
  Dtype* dx = bottom[0]->mutable_cpu_diff();
  this->ForEachElement(".backward", bottom[0]->count(), [=](index_t i) {
    dx[i] = dy[i] * y[i] * (Dtype(1) - y[i]);
  });
}

// -------------------------------------------------------------------- TanH

template <typename Dtype>
void TanHLayer<Dtype>::Forward_cpu(const std::vector<Blob<Dtype>*>& bottom,
                                   const std::vector<Blob<Dtype>*>& top) {
  const Dtype* x = bottom[0]->cpu_data();
  Dtype* y = top[0]->mutable_cpu_data();
  this->ForEachElement(".forward", bottom[0]->count(),
                       [=](index_t i) { y[i] = std::tanh(x[i]); });
}

template <typename Dtype>
void TanHLayer<Dtype>::Backward_cpu(const std::vector<Blob<Dtype>*>& top,
                                    const std::vector<bool>& propagate_down,
                                    const std::vector<Blob<Dtype>*>& bottom) {
  if (!propagate_down[0]) return;
  const Dtype* y = top[0]->cpu_data();
  const Dtype* dy = top[0]->cpu_diff();
  Dtype* dx = bottom[0]->mutable_cpu_diff();
  this->ForEachElement(".backward", bottom[0]->count(), [=](index_t i) {
    dx[i] = dy[i] * (Dtype(1) - y[i] * y[i]);
  });
}

// ----------------------------------------------------------------- Dropout

template <typename Dtype>
DropoutLayer<Dtype>::DropoutLayer(const proto::LayerParameter& param)
    : NeuronLayer<Dtype>(param),
      ratio_(static_cast<Dtype>(param.dropout_param.dropout_ratio)),
      base_(GlobalRng().NextU64(), /*stream=*/0xD80),
      mask_() {
  CGDNN_CHECK_GT(ratio_, Dtype(0));
  CGDNN_CHECK_LT(ratio_, Dtype(1));
  scale_ = Dtype(1) / (Dtype(1) - ratio_);
}

template <typename Dtype>
void DropoutLayer<Dtype>::Reshape(const std::vector<Blob<Dtype>*>& bottom,
                                  const std::vector<Blob<Dtype>*>& top) {
  NeuronLayer<Dtype>::Reshape(bottom, top);
  mask_.resize(static_cast<std::size_t>(bottom[0]->count()));
}

template <typename Dtype>
bool DropoutLayer<Dtype>::MaskKeep(index_t i) const {
  // (pass, element) -> independent stream; a single draw decides the mask.
  Rng rng = base_.Split(HashCombine64(pass_counter_, static_cast<std::uint64_t>(i)));
  return rng.Uniform() >= static_cast<double>(ratio_);
}

template <typename Dtype>
void DropoutLayer<Dtype>::Forward_cpu(const std::vector<Blob<Dtype>*>& bottom,
                                      const std::vector<Blob<Dtype>*>& top) {
  const Dtype* x = bottom[0]->cpu_data();
  Dtype* y = top[0]->mutable_cpu_data();
  const index_t count = bottom[0]->count();
  if (this->phase_ != Phase::kTrain) {
    blas::copy(count, x, y);
    return;
  }
  ++pass_counter_;
  Dtype* mask = mask_.data();
  // The counter-based mask stream makes the loop order-free: element i's
  // mask does not depend on which thread evaluates it.
  this->ForEachElement(".forward", count, [=, this](index_t i) {
    mask[i] = MaskKeep(i) ? scale_ : Dtype(0);
    y[i] = x[i] * mask[i];
  });
}

template <typename Dtype>
void DropoutLayer<Dtype>::Backward_cpu(const std::vector<Blob<Dtype>*>& top,
                                       const std::vector<bool>& propagate_down,
                                       const std::vector<Blob<Dtype>*>& bottom) {
  if (!propagate_down[0]) return;
  const Dtype* dy = top[0]->cpu_diff();
  Dtype* dx = bottom[0]->mutable_cpu_diff();
  const index_t count = bottom[0]->count();
  if (this->phase_ != Phase::kTrain) {
    blas::copy(count, dy, dx);
    return;
  }
  const Dtype* mask = mask_.data();
  this->ForEachElement(".backward", count,
                       [=](index_t i) { dx[i] = dy[i] * mask[i]; });
}

#define CGDNN_INSTANTIATE_NEURON(Layer) \
  template class Layer<float>;          \
  template class Layer<double>

CGDNN_INSTANTIATE_NEURON(NeuronLayer);
CGDNN_INSTANTIATE_NEURON(ReLULayer);
CGDNN_INSTANTIATE_NEURON(SigmoidLayer);
CGDNN_INSTANTIATE_NEURON(TanHLayer);
CGDNN_INSTANTIATE_NEURON(DropoutLayer);

}  // namespace cgdnn
