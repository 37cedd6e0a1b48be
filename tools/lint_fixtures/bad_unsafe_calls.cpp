// Fixture: rand()/time() inside a worksharing loop or a parallel::For body
// give each thread (and each run) different values — the serial-equivalence
// claim dies here. GlobalRng is the only sanctioned randomness, and only
// from serial code.
#include <cstdint>
#include <cstdlib>
#include <ctime>

namespace parallel {
struct Chunk {
  std::int64_t begin, end;
};
template <typename Dtype, typename Body>
void For(const char* name, std::int64_t n, Body&& body);
}  // namespace parallel

void BadRandInLoop(float* y, std::int64_t n) {
  // EXPECT: no-unsafe-calls
#pragma omp for schedule(static)
  for (std::int64_t i = 0; i < n; ++i) {
    y[i] = static_cast<float>(rand());
  }
}

void BadTimeSeedInForBody(float* y, std::int64_t n) {
  // EXPECT: no-unsafe-calls
  parallel::For<float>("layer.forward", n, [&](const parallel::Chunk& c) {
    const unsigned seed = static_cast<unsigned>(time(nullptr));
    for (std::int64_t i = c.begin; i < c.end; ++i) {
      y[i] = static_cast<float>(seed);
    }
  });
}
