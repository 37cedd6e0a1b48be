// Fixture: the loop primitive in a parallel/ directory owns the region.
// `omp simd` vectorizes without opening one, so layers may use it.
#include <cstdint>

void GoodPrimitiveRegion(float* y, std::int64_t n, int nthreads) {
#pragma omp parallel num_threads(nthreads)
  {
#pragma omp for schedule(static)
    for (std::int64_t i = 0; i < n; ++i) {
      y[i] = 2.0f;
    }
  }
}

void GoodSimdOutsideARegion(float* y, const float* x, std::int64_t n) {
#pragma omp simd
  for (std::int64_t i = 0; i < n; ++i) {
    y[i] = x[i] * x[i];
  }
}
