// Fine-grain (OpenMP-parallel) BLAS kernels. These stand in for a threaded
// OpenBLAS: they parallelize *inside* a single linear-algebra call, i.e. the
// "BLAS-level parallelism" of paper §3.1.1, as opposed to the batch-level
// parallelism the paper advocates. Used only by the ablation benches — the
// coarse-grain layer paths call the serial kernels.
#include <omp.h>

#include "cgdnn/blas/blas.hpp"

namespace cgdnn::blas::finegrain {

namespace {
int g_threads = 0;  // 0 = use omp_get_max_threads()

int EffectiveThreads() {
  return g_threads > 0 ? g_threads : omp_get_max_threads();
}
}  // namespace

void set_num_threads(int n) {
  CGDNN_CHECK_GE(n, 0);
  g_threads = n;
}

int num_threads() { return EffectiveThreads(); }

template <typename Dtype>
void gemm(Transpose trans_a, Transpose trans_b, index_t m, index_t n,
          index_t k, Dtype alpha, const Dtype* a, const Dtype* b, Dtype beta,
          Dtype* c) {
  const bool ta = trans_a == Transpose::kTrans;
  const bool tb = trans_b == Transpose::kTrans;
  const int threads = EffectiveThreads();
  // Rows of C are independent, so a static parallel-for over i gives the
  // same floating-point result as the serial inner-product evaluation.
  // BLAS-level parallelism is this file's subject, not a layer loop:
  // cgdnn-lint: allow(region-owner)
#pragma omp parallel for num_threads(threads) schedule(static)
  for (index_t i = 0; i < m; ++i) {
    Dtype* ci = c + i * n;
    for (index_t j = 0; j < n; ++j) {
      Dtype sum = 0;
      for (index_t kk = 0; kk < k; ++kk) {
        const Dtype av = ta ? a[kk * m + i] : a[i * k + kk];
        const Dtype bv = tb ? b[j * k + kk] : b[kk * n + j];
        sum += av * bv;
      }
      ci[j] = alpha * sum + (beta == Dtype(0) ? Dtype(0) : beta * ci[j]);
    }
  }
}

template <typename Dtype>
void axpy(index_t n, Dtype alpha, const Dtype* x, Dtype* y) {
  const int threads = EffectiveThreads();
  // cgdnn-lint: allow(region-owner)
#pragma omp parallel for num_threads(threads) schedule(static)
  for (index_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

#define CGDNN_INSTANTIATE_FG(Dtype)                                          \
  template void gemm<Dtype>(Transpose, Transpose, index_t, index_t, index_t, \
                            Dtype, const Dtype*, const Dtype*, Dtype,        \
                            Dtype*);                                         \
  template void axpy<Dtype>(index_t, Dtype, const Dtype*, Dtype*)

CGDNN_INSTANTIATE_FG(float);
CGDNN_INSTANTIATE_FG(double);

}  // namespace cgdnn::blas::finegrain
