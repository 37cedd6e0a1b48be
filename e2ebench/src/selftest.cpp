// Self-tests of the load generator, run before every benchmark run: the
// arrival schedule keeps its mean rate and spikes, and the open-loop
// sender reports lateness when its consumer stalls instead of hiding it.
#include <algorithm>
#include <iostream>
#include <thread>

#include "workloads.hpp"

namespace e2e {

namespace {

int Expect(bool ok, const char* what) {
  if (!ok) std::cerr << "selftest FAILED: " << what << "\n";
  return ok ? 0 : 1;
}

}  // namespace

int RunSelfTest() {
  int failures = 0;

  // Schedule: mean rate, spikes, and seed determinism.
  const BurstShape shape{0.5, 24};
  const auto a = BurstyOffsetsNs(1, 200, 10, shape);
  const auto b = BurstyOffsetsNs(1, 200, 10, shape);
  const auto c = BurstyOffsetsNs(2, 200, 10, shape);
  failures += Expect(a == b, "same seed, same schedule");
  failures += Expect(a != c, "another seed, another schedule");
  failures += Expect(a.size() == c.size(), "the seed keeps the request count");
  failures += Expect(a.size() >= 1990 && a.size() <= 2000,
                     "2000 arrivals in 10 s at 200/s");
  failures += Expect(std::is_sorted(a.begin(), a.end()), "arrivals in order");
  std::size_t at_spikes = 0;
  for (const auto t : a) at_spikes += t % 500'000'000 == 0 ? 1 : 0;
  failures += Expect(at_spikes == 20 * 24, "24 requests due at once, 2/s");

  // Stalled consumer: request 20 of a 1 kHz schedule blocks for 50 ms.
  std::vector<std::uint64_t> offsets(200);
  for (std::size_t i = 0; i < offsets.size(); ++i) offsets[i] = i * 1'000'000;
  std::vector<std::uint64_t> sent;
  const std::uint64_t start = NowNs() + 1'000'000;
  std::size_t calls = 0;
  RunOpenLoop(start, offsets, &sent, [&](std::size_t i, std::uint64_t) {
    ++calls;
    if (i == 20) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  });
  auto lag_ms = [&](std::size_t i) {
    return static_cast<double>(sent[i] - (start + offsets[i])) * 1e-6;
  };
  failures += Expect(calls == offsets.size(), "every request sent once");
  failures += Expect(lag_ms(21) >= 45.0, "the request after a stall is late");
  failures += Expect(lag_ms(40) >= 25.0, "lateness carries over the backlog");
  failures += Expect(lag_ms(199) < 20.0, "the sender catches up");
  return failures;
}

}  // namespace e2e
