// Fixture: a layer that opens its own OpenMP region bypasses parallel::For
// and with it the static chunking, region instrumentation, write-set
// checking, ordered merge and error capture — the repetition the one
// primitive exists to remove. Only parallel/ opens regions.
#include <cstdint>

void BadLayerRegion(float* y, std::int64_t n) {
  // EXPECT: region-owner
#pragma omp parallel num_threads(4)
  {
#pragma omp for schedule(static)
    for (std::int64_t i = 0; i < n; ++i) {
      y[i] = 1.0f;
    }
  }
}

void BadLayerParallelFor(float* y, const float* x, std::int64_t n) {
  // EXPECT: region-owner
#pragma omp parallel for num_threads(4) schedule(static)
  for (std::int64_t i = 0; i < n; ++i) {
    y[i] = x[i] > 0.0f ? x[i] : 0.0f;
  }
}
