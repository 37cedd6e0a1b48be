// Fixture: omitting the schedule clause defers to the implementation
// default (usually static, but not guaranteed) — the repo requires the
// mapping to be spelled out.
#include <cstdint>

void BadMissingSchedule(float* y, const float* x, std::int64_t n) {
  // EXPECT: static-schedule
#pragma omp for
  for (std::int64_t i = 0; i < n; ++i) {
    y[i] = x[i] * 0.5f;
  }
}
