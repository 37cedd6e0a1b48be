// Fixture: dynamic schedule hands samples to threads in arrival order —
// the parallel run would no longer map sample n to a deterministic thread,
// so the privatized-gradient merge loses its serial bit pattern.
#include <cstdint>

void BadDynamicSchedule(float* y, const float* x, std::int64_t n) {
  // EXPECT: static-schedule
#pragma omp for schedule(dynamic)
  for (std::int64_t i = 0; i < n; ++i) {
    y[i] = x[i] * 2.0f;
  }
}

void BadGuidedSchedule(float* y, const float* x, std::int64_t n) {
  // EXPECT: static-schedule
#pragma omp for schedule(guided, 8)
  for (std::int64_t i = 0; i < n; ++i) {
    y[i] = x[i] + 1.0f;
  }
}
