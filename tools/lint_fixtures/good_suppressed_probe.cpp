// Fixture: a measurement probe legitimately opens its own region with a
// suppression comment naming the rule (the roofline probes do this —
// routing them through the instrumented primitive would perturb the peaks
// they measure).
#include <cstdint>

void GoodSuppressedProbe(float* y, std::int64_t n) {
  // cgdnn-lint: allow(region-owner)
#pragma omp parallel for num_threads(4) schedule(static)
  for (std::int64_t i = 0; i < n; ++i) {
    y[i] = 1.0f;
  }
}

void GoodGlobalRngUse(float* y, std::int64_t n) {
  // GlobalRng is the sanctioned generator; referencing it is not flagged
  // (layers call it from serial setup code).
  const float seed_val = 0.5f;  // from GlobalRng() in real code
#pragma omp for schedule(static)
  for (std::int64_t i = 0; i < n; ++i) {
    y[i] = seed_val;
  }
}
