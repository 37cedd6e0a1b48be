#include "cgdnn/layers/inner_product_layer.hpp"

#include "cgdnn/blas/blas.hpp"
#include "cgdnn/layers/filler.hpp"
#include "cgdnn/parallel/for.hpp"

namespace cgdnn {

template <typename Dtype>
void InnerProductLayer<Dtype>::LayerSetUp(
    const std::vector<Blob<Dtype>*>& bottom,
    const std::vector<Blob<Dtype>*>& top) {
  (void)top;
  const auto& p = this->layer_param_.inner_product_param;
  num_output_ = p.num_output;
  bias_term_ = p.bias_term;
  CGDNN_CHECK_GT(num_output_, 0);
  const int axis = bottom[0]->CanonicalAxisIndex(p.axis);
  k_ = bottom[0]->count(axis);
  if (this->blobs_.empty()) {
    this->blobs_.resize(bias_term_ ? 2 : 1);
    this->blobs_[0] =
        std::make_shared<Blob<Dtype>>(std::vector<index_t>{num_output_, k_});
    GetFiller<Dtype>(p.weight_filler)->Fill(*this->blobs_[0], GlobalRng());
    if (bias_term_) {
      this->blobs_[1] =
          std::make_shared<Blob<Dtype>>(std::vector<index_t>{num_output_});
      GetFiller<Dtype>(p.bias_filler)->Fill(*this->blobs_[1], GlobalRng());
    }
  }
  this->param_propagate_down_.assign(this->blobs_.size(), true);
}

template <typename Dtype>
void InnerProductLayer<Dtype>::Reshape(const std::vector<Blob<Dtype>*>& bottom,
                                       const std::vector<Blob<Dtype>*>& top) {
  const int axis =
      bottom[0]->CanonicalAxisIndex(this->layer_param_.inner_product_param.axis);
  CGDNN_CHECK_EQ(bottom[0]->count(axis), k_)
      << "input feature dimension changed for " << this->layer_param_.name;
  m_ = bottom[0]->count(0, axis);
  top[0]->Reshape({m_, num_output_});
}

template <typename Dtype>
void InnerProductLayer<Dtype>::Forward_cpu(
    const std::vector<Blob<Dtype>*>& bottom,
    const std::vector<Blob<Dtype>*>& top) {
  const Dtype* bottom_data = bottom[0]->cpu_data();
  const Dtype* weight = this->blobs_[0]->cpu_data();
  const Dtype* bias = bias_term_ ? this->blobs_[1]->cpu_data() : nullptr;
  Dtype* top_data = top[0]->mutable_cpu_data();
  // Batch-level parallelism: each chunk evaluates the GEMM restricted to
  // its contiguous block of samples (rows). Row results are independent of
  // the partition.
  parallel::For<Dtype>(
      this->layer_param_.name + ".forward", {m_},
      [&](const parallel::Chunk<Dtype>& c) {
        // top rows (rows x num_output) = bottom rows (rows x k) * W^T
        blas::gemm(blas::Transpose::kNo, blas::Transpose::kTrans,
                   c.end - c.begin, num_output_, k_, Dtype(1),
                   bottom_data + c.begin * k_, weight, Dtype(0),
                   top_data + c.begin * num_output_);
        if (bias != nullptr) {
          for (index_t s = c.begin; s < c.end; ++s) {
            blas::axpy(num_output_, Dtype(1), bias,
                       top_data + s * num_output_);
          }
        }
        c.RecordWrite(top_data, "top.data", c.begin * num_output_,
                      c.end * num_output_);
      });
}

template <typename Dtype>
void InnerProductLayer<Dtype>::Backward_cpu(
    const std::vector<Blob<Dtype>*>& top,
    const std::vector<bool>& propagate_down,
    const std::vector<Blob<Dtype>*>& bottom) {
  const Dtype* top_diff = top[0]->cpu_diff();
  const Dtype* bottom_data = bottom[0]->cpu_data();
  const Dtype* weight = this->blobs_[0]->cpu_data();
  Dtype* weight_diff = this->param_propagate_down(0)
                           ? this->blobs_[0]->mutable_cpu_diff()
                           : nullptr;
  Dtype* bias_diff = bias_term_ && this->param_propagate_down(1)
                         ? this->blobs_[1]->mutable_cpu_diff()
                         : nullptr;
  if (weight_diff != nullptr || bias_diff != nullptr) {
    // Parameter gradients are partitioned by OUTPUT ROW instead of by sample
    // (the loop-rearrangement freedom of paper §3.1.2): each dW row is a sum
    // over all samples, so threads own disjoint rows, no privatization or
    // merge is needed, and each row accumulates in ascending sample order
    // whatever the thread count. The weight matrix is the layer's dominant
    // state, so this also avoids the O(weights x threads) memory a
    // batch-partitioned accumulation would privatize.
    top_diff_t_.Reshape({num_output_, m_});
    Dtype* diff_t = top_diff_t_.mutable_cpu_data();
    parallel::For<Dtype>(
        this->layer_param_.name + ".backward", {num_output_},
        [&](const parallel::Chunk<Dtype>& c) {
          // This chunk's rows of top_diff^T make its dW rows one GEMM:
          // dW rows (rows x k) += top_diff^T rows (rows x m) * bottom (m x k)
          for (index_t o = c.begin; o < c.end; ++o) {
            for (index_t s = 0; s < m_; ++s) {
              diff_t[o * m_ + s] = top_diff[s * num_output_ + o];
            }
          }
          if (weight_diff != nullptr) {
            blas::gemm(blas::Transpose::kNo, blas::Transpose::kNo,
                       c.end - c.begin, k_, m_, Dtype(1),
                       diff_t + c.begin * m_, bottom_data, Dtype(1),
                       weight_diff + c.begin * k_);
            c.RecordWrite(weight_diff, "weight.diff", c.begin * k_,
                          c.end * k_);
          }
          if (bias_diff != nullptr) {
            for (index_t o = c.begin; o < c.end; ++o) {
              Dtype sum = bias_diff[o];
              for (index_t s = 0; s < m_; ++s) sum += diff_t[o * m_ + s];
              bias_diff[o] = sum;
            }
            c.RecordWrite(bias_diff, "bias.diff", c.begin, c.end);
          }
        });
  }
  if (propagate_down[0]) {
    // The bottom gradient stays batch-partitioned (disjoint per sample).
    Dtype* bottom_diff = bottom[0]->mutable_cpu_diff();
    parallel::For<Dtype>(
        this->layer_param_.name + ".backward", {m_},
        [&](const parallel::Chunk<Dtype>& c) {
          // d_bottom rows (rows x k) = top_diff rows (rows x num_output) * W
          blas::gemm(blas::Transpose::kNo, blas::Transpose::kNo,
                     c.end - c.begin, k_, num_output_, Dtype(1),
                     top_diff + c.begin * num_output_, weight, Dtype(0),
                     bottom_diff + c.begin * k_);
          c.RecordWrite(bottom_diff, "bottom.diff", c.begin * k_,
                        c.end * k_);
        });
  }
}

template class InnerProductLayer<float>;
template class InnerProductLayer<double>;

}  // namespace cgdnn
