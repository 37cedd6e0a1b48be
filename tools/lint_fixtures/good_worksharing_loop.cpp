// Fixture: orphaned worksharing loops with an explicit static schedule,
// the shape the primitive's own loops take inside its region.
#include <cstdint>

void GoodStaticLoop(float* y, const float* x, std::int64_t n) {
#pragma omp for schedule(static)
  for (std::int64_t i = 0; i < n; ++i) {
    y[i] = x[i] > 0.0f ? x[i] : 0.0f;
  }
}

void GoodContinuation(float* y, const float* x, std::int64_t n) {
#pragma omp for \
    schedule(static)
  for (std::int64_t i = 0; i < n; ++i) {
    y[i] = x[i] * x[i];
  }
}
