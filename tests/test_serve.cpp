// Serving runtime tests (src/cgdnn/serve/, docs/serving.md).
//
// The headline guarantee is BIT-IDENTITY OF BATCHING: a forward over a
// coalesced batch of K requests produces, per sample, exactly the bits of K
// single-sample forwards — at every swept thread count, under the armed
// write-set checker (the test_parallel_equivalence idiom). Everything else
// is the robustness contract: bounded queue with explicit rejection,
// deadline enforcement at dequeue, degradation ladder shedding by class, a
// stalled worker excluded without taking the pool down, and graceful drain.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "cgdnn/check/write_set.hpp"
#include "cgdnn/core/rng.hpp"
#include "cgdnn/data/dataset.hpp"
#include "cgdnn/net/models.hpp"
#include "cgdnn/parallel/context.hpp"
#include "cgdnn/serve/engine.hpp"
#include "cgdnn/serve/loadgen.hpp"
#include "cgdnn/serve/queue.hpp"
#include "cgdnn/serve/server.hpp"

namespace cgdnn {
namespace {

proto::NetParameter SmallLeNet() {
  models::ModelOptions opts;
  opts.batch_size = 8;
  opts.num_samples = 32;
  return models::LeNet(opts);
}

parallel::ParallelConfig ThreadsConfig(int threads) {
  parallel::ParallelConfig cfg;
  cfg.mode = threads > 1 ? parallel::ExecutionMode::kCoarseGrain
                         : parallel::ExecutionMode::kSerial;
  cfg.num_threads = threads;
  return cfg;
}

std::vector<std::vector<float>> MakeSamples(index_t sample_size, int n,
                                            std::uint64_t seed) {
  Rng rng(seed, 11);
  std::vector<std::vector<float>> samples(static_cast<std::size_t>(n));
  for (auto& s : samples) {
    s.resize(static_cast<std::size_t>(sample_size));
    for (auto& v : s) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  }
  return samples;
}

// --------------------------------------------------------------- batching

// Batch-of-K forward == K single-sample forwards, bitwise, at 1/2/5/8
// threads, with the write-set checker armed throughout.
TEST(ServeTest, BatchingIsBitIdenticalAcrossThreadCounts) {
  const proto::NetParameter param = SmallLeNet();
  std::vector<std::vector<float>> reference;  // thread-count-independent

  for (const int threads : {1, 2, 5, 8}) {
    parallel::Parallel::Scope scope(ThreadsConfig(threads));
    check::ScopedEnable armed;

    SeedGlobalRng(1234);
    data::ClearDatasetCache();
    serve::InferenceEngine::Options opts;
    opts.max_batch = 5;  // buckets 1, 2, 4, 5
    serve::InferenceEngine engine(param, opts);
    auto worker = engine.MakeWorker();

    const auto samples = MakeSamples(engine.sample_size(), 5, 99);
    std::vector<const float*> ptrs;
    for (const auto& s : samples) ptrs.push_back(s.data());

    // One coalesced batch of 5.
    std::vector<std::vector<float>> batched;
    worker->RunBatch(ptrs, &batched);
    ASSERT_EQ(batched.size(), 5u);

    // Five single-sample forwards on the same worker.
    std::vector<std::vector<float>> singles;
    for (const float* p : ptrs) {
      worker->RunBatch({p}, &singles);
    }
    ASSERT_EQ(singles.size(), 5u);

    for (std::size_t i = 0; i < 5; ++i) {
      EXPECT_EQ(batched[i], singles[i])
          << "sample " << i << " at " << threads
          << " thread(s): batch-of-5 differs from single forward";
    }

    // Intermediate bucket (K=3 pads into the 4-bucket) must agree too.
    std::vector<std::vector<float>> partial;
    worker->RunBatch({ptrs[0], ptrs[1], ptrs[2]}, &partial);
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(partial[i], singles[i])
          << "sample " << i << " at " << threads
          << " thread(s): padded batch-of-3 differs from single forward";
    }

    // And the whole answer must not depend on the thread count.
    if (reference.empty()) {
      reference = batched;
    } else {
      for (std::size_t i = 0; i < 5; ++i) {
        EXPECT_EQ(batched[i], reference[i])
            << "sample " << i << ": " << threads
            << "-thread serving differs from 1-thread serving";
      }
    }
  }
}

// ------------------------------------------------------------------ queue

TEST(ServeTest, QueueIsBoundedAndRejectsExplicitly) {
  serve::BoundedRequestQueue queue(3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(queue.Push(std::make_shared<serve::Request>()),
              serve::PushResult::kAccepted);
  }
  EXPECT_EQ(queue.Push(std::make_shared<serve::Request>()),
            serve::PushResult::kFull);
  EXPECT_EQ(queue.depth(), 3u);
  EXPECT_EQ(queue.max_depth(), 3u);

  EXPECT_EQ(queue.PopBatch(2, 0).size(), 2u);
  queue.Close();
  EXPECT_EQ(queue.Push(std::make_shared<serve::Request>()),
            serve::PushResult::kClosed);
  // Close drains: the remaining request is still poppable ...
  EXPECT_EQ(queue.PopBatch(8, 0).size(), 1u);
  // ... and an empty closed queue returns empty instead of blocking.
  EXPECT_TRUE(queue.PopBatch(8, 0).empty());
}

TEST(ServeTest, ExpiredRequestsAreCompletedAtDequeue) {
  serve::BoundedRequestQueue queue(8);
  std::atomic<int> expired{0};
  const std::uint64_t now = MonotonicNowNs();
  for (int i = 0; i < 3; ++i) {
    auto req = std::make_shared<serve::Request>();
    req->admit_ns = now;
    req->deadline_ns = now - 1;  // already past
    req->done = [&expired](serve::Response&& r) {
      EXPECT_EQ(r.status, serve::Status::kExpired);
      expired.fetch_add(1);
    };
    ASSERT_EQ(queue.Push(std::move(req)), serve::PushResult::kAccepted);
  }
  auto live = std::make_shared<serve::Request>();
  live->deadline_ns = now + 10'000'000'000ull;
  ASSERT_EQ(queue.Push(live), serve::PushResult::kAccepted);

  // Expired requests never occupy a batch slot.
  const auto batch = queue.PopBatch(8, 0);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].get(), live.get());
  EXPECT_EQ(expired.load(), 3);
}

TEST(ServeTest, CompleteOnceFiresExactlyOnce) {
  auto req = std::make_shared<serve::Request>();
  std::atomic<int> fired{0};
  req->done = [&fired](serve::Response&&) { fired.fetch_add(1); };
  serve::Response a;
  a.status = serve::Status::kOk;
  serve::Response b;
  b.status = serve::Status::kWorkerStalled;
  EXPECT_TRUE(serve::CompleteOnce(req, std::move(a)));
  EXPECT_FALSE(serve::CompleteOnce(req, std::move(b)));
  EXPECT_EQ(fired.load(), 1);
}

// ----------------------------------------------------------------- server

struct Collector {
  std::mutex mu;
  std::vector<serve::Response> responses;
  std::atomic<int> count{0};

  std::function<void(serve::Response&&)> Callback() {
    return [this](serve::Response&& r) {
      {
        std::lock_guard<std::mutex> lock(mu);
        responses.push_back(std::move(r));
      }
      count.fetch_add(1);
    };
  }
  bool WaitFor(int n, int timeout_ms = 20000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (count.load() < n) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }
};

serve::RequestPtr MakeRequest(const serve::Server& server, Collector* c,
                              std::uint64_t deadline_ms = 0) {
  auto req = std::make_shared<serve::Request>();
  req->input.assign(static_cast<std::size_t>(server.sample_size()), 0.25f);
  if (deadline_ms > 0) {
    req->deadline_ns = MonotonicNowNs() + deadline_ms * 1'000'000ull;
  }
  req->done = c->Callback();
  return req;
}

TEST(ServeTest, ServerForwardsAndDrainsGracefully) {
  SeedGlobalRng(7);
  data::ClearDatasetCache();
  serve::ServerOptions opts;
  opts.workers = 2;
  opts.max_batch = 4;
  opts.batch_deadline_us = 500;
  opts.default_deadline_ms = 10'000;
  serve::Server server(SmallLeNet(), opts);
  server.Start();

  Collector collector;
  constexpr int kRequests = 24;
  for (int i = 0; i < kRequests; ++i) {
    server.Submit(MakeRequest(server, &collector));
  }
  ASSERT_TRUE(collector.WaitFor(kRequests));
  server.Stop();

  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.ok, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.workers_excluded, 0);
  for (const auto& r : collector.responses) {
    ASSERT_EQ(r.status, serve::Status::kOk);
    EXPECT_EQ(r.output.size(),
              static_cast<std::size_t>(server.output_size()));
    EXPECT_GE(r.batch_size, 1);
    float sum = 0;
    for (float v : r.output) sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-4);  // softmax row
  }
}

TEST(ServeTest, AdmissionShedsWhenQueueFullAndStopDrains) {
  SeedGlobalRng(7);
  data::ClearDatasetCache();
  serve::ServerOptions opts;
  opts.workers = 1;
  opts.max_batch = 2;
  opts.queue_capacity = 2;
  opts.default_deadline_ms = 60'000;
  opts.planned = false;
  serve::Server server(SmallLeNet(), opts);
  // Deliberately NOT started: the queue fills deterministically.

  Collector collector;
  for (int i = 0; i < 5; ++i) {
    server.Submit(MakeRequest(server, &collector));
  }
  // Capacity 2: three requests were rejected synchronously with an
  // explicit reason.
  EXPECT_EQ(server.stats().shed_queue_full, 3u);
  EXPECT_EQ(server.stats().admitted, 2u);
  EXPECT_EQ(collector.count.load(), 3);

  // Stop() without workers completes the queued remainder explicitly.
  server.Stop();
  ASSERT_TRUE(collector.WaitFor(5));
  EXPECT_EQ(server.stats().shed_load, 2u);
  // Post-stop submits are rejected, not lost.
  server.Submit(MakeRequest(server, &collector));
  ASSERT_TRUE(collector.WaitFor(6));
  EXPECT_EQ(server.stats().shed_load, 3u);
}

TEST(ServeTest, DegradationLadderShedsBatchClassUnderSustainedOverload) {
  SeedGlobalRng(7);
  data::ClearDatasetCache();
  // Worker 0 sleeps 30ms per batch: a sustained backlog builds while the
  // supervisor watches the queue fill.
  setenv("CGDNN_SERVE_FAULT_SLOW_WORKER", "0:30", 1);
  serve::ServerOptions opts;
  opts.workers = 1;
  opts.max_batch = 2;
  opts.queue_capacity = 10;
  opts.batch_deadline_us = 100;
  opts.default_deadline_ms = 60'000;
  opts.supervisor_tick_ms = 1;
  opts.hang_deadline_ms = 0;  // slow, not stuck: no exclusion here
  opts.planned = false;
  serve::Server server(SmallLeNet(), opts);
  server.Start();
  unsetenv("CGDNN_SERVE_FAULT_SLOW_WORKER");

  Collector collector;
  bool shed_by_class = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  int submitted = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    auto req = MakeRequest(server, &collector);
    req->cls = serve::RequestClass::kBatch;
    server.Submit(std::move(req));
    ++submitted;
    if (server.stats().shed_load > 0) {
      shed_by_class = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(shed_by_class)
      << "no class-based shed after " << submitted << " submissions";
  EXPECT_GE(server.degrade_level(), 2);
  server.Stop();
  // Every submission was answered: ok + sheds + expired == submitted.
  ASSERT_TRUE(collector.WaitFor(submitted));
}

TEST(ServeTest, StalledWorkerIsExcludedAndPoolKeepsServing) {
  SeedGlobalRng(7);
  data::ClearDatasetCache();
  // Worker 0 stalls hard (10s per batch) against a 2s hang deadline. The
  // deadline is generous so that ONLY the faulted worker can trip it: under
  // TSan/ASan a healthy forward slows by an order of magnitude, and with a
  // tight deadline the supervisor would (correctly, per its contract)
  // exclude a merely-slow healthy worker, which is not this scenario.
  setenv("CGDNN_SERVE_FAULT_SLOW_WORKER", "0:10000", 1);
  serve::ServerOptions opts;
  opts.workers = 2;
  opts.max_batch = 2;
  opts.batch_deadline_us = 200;
  opts.default_deadline_ms = 60'000;
  opts.supervisor_tick_ms = 2;
  opts.hang_deadline_ms = 2000;
  opts.planned = false;
  serve::Server server(SmallLeNet(), opts);
  server.Start();
  unsetenv("CGDNN_SERVE_FAULT_SLOW_WORKER");

  // Feed traffic until the stall is detected. Short per-request deadlines
  // keep the backlog self-draining: whatever the surviving worker cannot
  // serve in time is dropped at dequeue, so the queue is free again for
  // the post-exclusion probes below.
  Collector collector;
  int submitted = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server.stats().workers_excluded == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    server.Submit(MakeRequest(server, &collector, /*deadline_ms=*/200));
    ++submitted;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(server.stats().workers_excluded, 1) << "stall never detected";
  EXPECT_GE(server.stats().worker_stalled, 1u);

  // The surviving worker keeps serving: fresh requests still complete OK.
  Collector after;
  for (int i = 0; i < 6; ++i) {
    server.Submit(MakeRequest(server, &after));
  }
  ASSERT_TRUE(after.WaitFor(6));
  for (const auto& r : after.responses) {
    EXPECT_EQ(r.status, serve::Status::kOk);
  }
  server.Stop();  // must not hang on the stuck (detached) worker
  EXPECT_EQ(server.stats().workers_started, 2);
}

// Stop() while a worker is hung mid-forward and the supervisor has NOT yet
// reached a hang verdict (stall younger than hang_deadline_ms, or the
// supervisor simply hasn't ticked): the bounded join must apply the hang
// deadline itself, fail the batch over with kWorkerStalled, and detach —
// never block SIGTERM drain on a thread that cannot exit its forward.
TEST(ServeTest, StopDoesNotBlockOnWorkerHungMidForward) {
  SeedGlobalRng(7);
  data::ClearDatasetCache();
  setenv("CGDNN_SERVE_FAULT_SLOW_WORKER", "0:10000", 1);  // 10s per batch
  serve::ServerOptions opts;
  opts.workers = 1;
  opts.max_batch = 2;
  opts.batch_deadline_us = 200;
  opts.default_deadline_ms = 60'000;
  // Tick slowly enough that Stop() races ahead of the supervisor's verdict.
  opts.supervisor_tick_ms = 500;
  opts.hang_deadline_ms = 150;
  opts.planned = false;
  serve::Server server(SmallLeNet(), opts);
  server.Start();
  unsetenv("CGDNN_SERVE_FAULT_SLOW_WORKER");

  Collector collector;
  server.Submit(MakeRequest(server, &collector));
  // Let the worker pop the batch and enter its 10s stall.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));

  const auto t0 = std::chrono::steady_clock::now();
  server.Stop();
  const double stop_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(stop_s, 5.0) << "Stop blocked on the hung worker";
  ASSERT_TRUE(collector.WaitFor(1));
  EXPECT_EQ(collector.responses[0].status, serve::Status::kWorkerStalled);
  EXPECT_EQ(server.stats().workers_excluded, 1);
}

TEST(ServeTest, DropResponseFaultIsCountedNotCrashed) {
  SeedGlobalRng(7);
  data::ClearDatasetCache();
  setenv("CGDNN_SERVE_FAULT_DROP_RESPONSE", "1", 1);  // eat every response
  serve::ServerOptions opts;
  opts.workers = 1;
  opts.max_batch = 2;
  opts.default_deadline_ms = 60'000;
  opts.planned = false;
  serve::Server server(SmallLeNet(), opts);
  server.Start();
  unsetenv("CGDNN_SERVE_FAULT_DROP_RESPONSE");

  Collector collector;
  for (int i = 0; i < 3; ++i) {
    server.Submit(MakeRequest(server, &collector));
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (server.stats().dropped_responses < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  server.Stop();
  EXPECT_EQ(server.stats().dropped_responses, 3u);
  EXPECT_EQ(collector.count.load(), 0);  // clients must rely on timeouts
}

// ---------------------------------------------------------------- loadgen

TEST(ServeTest, PercentileIsExact) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(static_cast<double>(i));
  EXPECT_NEAR(serve::Percentile(v, 0.50), 50.5, 1e-9);
  EXPECT_NEAR(serve::Percentile(v, 0.99), 99.01, 1e-9);
  EXPECT_NEAR(serve::Percentile(v, 0.0), 1.0, 1e-9);
  EXPECT_NEAR(serve::Percentile(v, 1.0), 100.0, 1e-9);
  EXPECT_EQ(serve::Percentile({}, 0.5), 0.0);
}

TEST(ServeTest, LoadGeneratorDrivesServerEndToEnd) {
  SeedGlobalRng(7);
  data::ClearDatasetCache();
  serve::ServerOptions opts;
  opts.workers = 2;
  opts.max_batch = 4;
  opts.default_deadline_ms = 5000;
  opts.planned = false;
  serve::Server server(SmallLeNet(), opts);
  server.Start();

  serve::LoadGenOptions lopts;
  lopts.rate_qps = 100;
  lopts.duration_s = 0.3;
  lopts.timeout_ms = 5000;
  lopts.seed = 3;
  const serve::LoadGenReport report = serve::RunLoad(server, lopts);
  server.Stop();

  EXPECT_GT(report.calls, 0u);
  EXPECT_EQ(report.succeeded, report.calls);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_GT(report.p50_us, 0.0);
  EXPECT_GE(report.p99_us, report.p50_us);
  EXPECT_GE(report.server_p99_us, report.server_p50_us);
}

TEST(ServeTest, ArrivalTracesMatchTheirContracts) {
  serve::LoadGenOptions lopts;
  lopts.rate_qps = 2000;
  lopts.duration_s = 2.0;

  Rng rng(42, 7);
  lopts.trace = "poisson";
  const auto poisson = serve::BuildArrivals(lopts, rng);
  EXPECT_NEAR(static_cast<double>(poisson.size()), 4000, 4 * 63);  // ~4 sigma
  EXPECT_TRUE(std::is_sorted(poisson.begin(), poisson.end()));

  lopts.trace = "bursty";
  lopts.burst_period_ms = 100;
  lopts.burst_duty = 0.2;
  Rng rng2(42, 7);
  const auto bursty = serve::BuildArrivals(lopts, rng2);
  // Mean offered rate is preserved ...
  EXPECT_NEAR(static_cast<double>(bursty.size()), 4000, 4 * 63);
  // ... but every arrival lands inside the first 20% of its 100ms window.
  for (const double t : bursty) {
    const double pos = std::fmod(t, 0.1);
    EXPECT_LT(pos, 0.1 * 0.2 + 1e-9) << "arrival at " << t
                                     << " outside the burst window";
  }
}

}  // namespace
}  // namespace cgdnn
