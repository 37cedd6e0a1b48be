#include "cgdnn/layers/softmax_layer.hpp"

#include <cmath>

#include "cgdnn/parallel/for.hpp"

namespace cgdnn {

template <typename Dtype>
void SoftmaxLayer<Dtype>::Reshape(const std::vector<Blob<Dtype>*>& bottom,
                                  const std::vector<Blob<Dtype>*>& top) {
  const int axis =
      bottom[0]->CanonicalAxisIndex(this->layer_param_.softmax_param.axis);
  outer_num_ = bottom[0]->count(0, axis);
  channels_ = bottom[0]->shape(axis);
  inner_num_ = bottom[0]->count(axis + 1);
  top[0]->ReshapeLike(*bottom[0]);
}

template <typename Dtype>
void SoftmaxLayer<Dtype>::ForwardPosition(const Dtype* bottom_data,
                                          Dtype* top_data, index_t outer,
                                          index_t inner) const {
  const index_t base = outer * channels_ * inner_num_ + inner;
  Dtype max_val = bottom_data[base];
  for (index_t c = 1; c < channels_; ++c) {
    max_val = std::max(max_val, bottom_data[base + c * inner_num_]);
  }
  Dtype sum = 0;
  for (index_t c = 0; c < channels_; ++c) {
    const Dtype e = std::exp(bottom_data[base + c * inner_num_] - max_val);
    top_data[base + c * inner_num_] = e;
    sum += e;
  }
  for (index_t c = 0; c < channels_; ++c) {
    top_data[base + c * inner_num_] /= sum;
  }
}

template <typename Dtype>
void SoftmaxLayer<Dtype>::BackwardPosition(const Dtype* top_data,
                                           const Dtype* top_diff,
                                           Dtype* bottom_diff, index_t outer,
                                           index_t inner) const {
  const index_t base = outer * channels_ * inner_num_ + inner;
  // dx = (dy - dot(dy, y)) * y
  Dtype dot = 0;
  for (index_t c = 0; c < channels_; ++c) {
    const index_t idx = base + c * inner_num_;
    dot += top_diff[idx] * top_data[idx];
  }
  for (index_t c = 0; c < channels_; ++c) {
    const index_t idx = base + c * inner_num_;
    bottom_diff[idx] = (top_diff[idx] - dot) * top_data[idx];
  }
}

template <typename Dtype>
void SoftmaxLayer<Dtype>::Forward_cpu(const std::vector<Blob<Dtype>*>& bottom,
                                      const std::vector<Blob<Dtype>*>& top) {
  const Dtype* bottom_data = bottom[0]->cpu_data();
  Dtype* top_data = top[0]->mutable_cpu_data();
  parallel::For<Dtype>(
      this->layer_param_.name + ".forward", {outer_num_, inner_num_},
      [&](const parallel::Chunk<Dtype>& c) {
        for (index_t civ = c.begin; civ < c.end; ++civ) {
          ForwardPosition(bottom_data, top_data, civ / inner_num_,
                          civ % inner_num_);
        }
      });
}

template <typename Dtype>
void SoftmaxLayer<Dtype>::Backward_cpu(const std::vector<Blob<Dtype>*>& top,
                                       const std::vector<bool>& propagate_down,
                                       const std::vector<Blob<Dtype>*>& bottom) {
  if (!propagate_down[0]) return;
  const Dtype* top_data = top[0]->cpu_data();
  const Dtype* top_diff = top[0]->cpu_diff();
  Dtype* bottom_diff = bottom[0]->mutable_cpu_diff();
  parallel::For<Dtype>(
      this->layer_param_.name + ".backward", {outer_num_, inner_num_},
      [&](const parallel::Chunk<Dtype>& c) {
        for (index_t civ = c.begin; civ < c.end; ++civ) {
          BackwardPosition(top_data, top_diff, bottom_diff, civ / inner_num_,
                           civ % inner_num_);
        }
      });
}

template class SoftmaxLayer<float>;
template class SoftmaxLayer<double>;

}  // namespace cgdnn
