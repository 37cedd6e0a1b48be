// parallel::For, the one loop primitive every layer runs through: static
// chunking, the one-thread inline path, the ordered gradient merge and
// error capture, each checked at 1/2/5/8/16 threads.
#include "cgdnn/parallel/for.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cgdnn/core/rng.hpp"

namespace cgdnn::parallel {
namespace {

class ParallelFor : public ::testing::TestWithParam<int> {
 protected:
  ParallelConfig Config(GradientMerge merge = GradientMerge::kOrdered,
                        bool coalesce = true) const {
    ParallelConfig cfg;
    cfg.mode = ExecutionMode::kCoarseGrain;
    cfg.num_threads = GetParam();
    cfg.merge = merge;
    cfg.coalesce = coalesce;
    return cfg;
  }
};

/// Runs a For over `range` and returns each thread's chunk (empty when the
/// body never ran on that thread), checking every index is visited once.
std::vector<IterRange> RecordChunks(const CoalescedRange& range, int threads) {
  std::vector<IterRange> chunks(static_cast<std::size_t>(threads));
  std::vector<std::atomic<int>> visits(static_cast<std::size_t>(range.total()));
  For<float>("test.chunks", range, [&](const Chunk<float>& c) {
    EXPECT_EQ(c.nthreads, threads);
    chunks[static_cast<std::size_t>(c.tid)] = {c.begin, c.end};
    for (index_t i = c.begin; i < c.end; ++i) {
      visits[static_cast<std::size_t>(i)].fetch_add(1);
    }
  });
  for (std::size_t i = 0; i < visits.size(); ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
  return chunks;
}

TEST_P(ParallelFor, ChunksCoverTheRangeOnceInStaticChunkOrder) {
  const Parallel::Scope scope(Config());
  for (const CoalescedRange& range :
       {CoalescedRange{13}, CoalescedRange{7, 3}, CoalescedRange{3, 2, 5},
        CoalescedRange{2}, CoalescedRange{0, 4}}) {
    const std::vector<IterRange> chunks = RecordChunks(range, GetParam());
    for (int t = 0; t < GetParam(); ++t) {
      const IterRange want = StaticChunk(range.total(), GetParam(), t);
      const IterRange got = chunks[static_cast<std::size_t>(t)];
      EXPECT_EQ(got.begin, want.size() > 0 ? want.begin : 0) << "tid " << t;
      EXPECT_EQ(got.end, want.size() > 0 ? want.end : 0) << "tid " << t;
    }
  }
}

TEST_P(ParallelFor, CoalescingOffSplitsOnlyTheLeadingDimension) {
  const Parallel::Scope scope(Config(GradientMerge::kOrdered, false));
  const CoalescedRange range{5, 4};
  const std::vector<IterRange> chunks = RecordChunks(range, GetParam());
  for (int t = 0; t < GetParam(); ++t) {
    const IterRange rows = StaticChunk(5, GetParam(), t);
    const IterRange got = chunks[static_cast<std::size_t>(t)];
    EXPECT_EQ(got.begin, rows.size() > 0 ? rows.begin * 4 : 0) << "tid " << t;
    EXPECT_EQ(got.end, rows.size() > 0 ? rows.end * 4 : 0) << "tid " << t;
  }
}

TEST(ParallelForOneThread, RunsInlineOnTheCallerWithoutThePool) {
  auto& pool = PrivatizationPool::Get();
  pool.Release();
  ParallelConfig cfg;
  cfg.num_threads = 1;
  const Parallel::Scope scope(cfg);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<double> grad(3, 0.0);
  int calls = 0;
  For<double>("test.inline", {10}, {{grad.data(), 3}},
              [&](const Chunk<double>& c) {
                ++calls;
                EXPECT_EQ(std::this_thread::get_id(), caller);
                EXPECT_EQ(c.begin, 0);
                EXPECT_EQ(c.end, 10);
                EXPECT_EQ(c.grad(0), grad.data());  // the shared blob itself
                EXPECT_EQ(c.checker, nullptr);
              });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(pool.configured_threads(), 0);
  EXPECT_EQ(pool.high_water_layer_bytes(), 0u);
}

TEST_P(ParallelFor, OrderedMergeEqualsTheSequentialFoldBitForBit) {
  const Parallel::Scope scope(Config(GradientMerge::kOrdered));
  constexpr index_t kN = 37;
  constexpr index_t kDim = 5;
  Rng rng(99);
  std::vector<float> values(static_cast<std::size_t>(kN * kDim));
  for (float& v : values) v = static_cast<float>(rng.Uniform() - 0.5) * 3.f;
  std::vector<float> grad(kDim, 0.125f);
  std::vector<float> bias(1, -1.5f);

  // The reference: at one thread the body accumulates straight into the
  // shared blob; in a team each thread folds its StaticChunk into a zeroed
  // private copy, and the copies are added to the blob in thread order.
  std::vector<float> want_grad = grad;
  std::vector<float> want_bias = bias;
  const int threads = GetParam();
  for (int t = 0; t < threads; ++t) {
    const IterRange r = StaticChunk(kN, threads, t);
    std::vector<float> part(kDim, 0.f);
    float bpart = 0.f;
    float* g = threads == 1 ? want_grad.data() : part.data();
    float* b = threads == 1 ? want_bias.data() : &bpart;
    for (index_t i = r.begin; i < r.end; ++i) {
      for (index_t k = 0; k < kDim; ++k) g[k] += values[i * kDim + k];
      *b += values[i * kDim];
    }
    if (threads > 1) {
      for (index_t k = 0; k < kDim; ++k) want_grad[k] += part[k];
      want_bias[0] += bpart;
    }
  }

  For<float>("test.merge", {kN}, {{grad.data(), kDim}, {bias.data(), 1}},
             [&](const Chunk<float>& c) {
               for (index_t i = c.begin; i < c.end; ++i) {
                 for (index_t k = 0; k < kDim; ++k) {
                   c.grad(0)[k] += values[i * kDim + k];
                 }
                 c.grad(1)[0] += values[i * kDim];
               }
             });
  EXPECT_EQ(grad, want_grad);
  EXPECT_EQ(bias, want_bias);
}

TEST_P(ParallelFor, DisabledSlotIsNullAndNeverMerged) {
  const Parallel::Scope scope(Config());
  std::vector<float> grad(2, 1.f);
  For<float>("test.disabled", {9}, {{nullptr, 4}, {grad.data(), 2}},
             [&](const Chunk<float>& c) {
               EXPECT_EQ(c.grad(0), nullptr);
               for (index_t i = c.begin; i < c.end; ++i) c.grad(1)[0] += 1.f;
             });
  EXPECT_EQ(grad[0], 10.f);
  EXPECT_EQ(grad[1], 1.f);
}

TEST_P(ParallelFor, BodyErrorRethrowsAfterTheJoin) {
  for (const GradientMerge merge :
       {GradientMerge::kOrdered, GradientMerge::kTree, GradientMerge::kAtomic}) {
    const Parallel::Scope scope(Config(merge));
    std::vector<float> grad(4, 0.f);
    const auto failing = [](const Chunk<float>& c) {
      for (index_t i = c.begin; i < c.end; ++i) {
        CGDNN_CHECK_NE(i, 37) << "injected failure";
      }
    };
    for (const bool with_slot : {false, true}) {
      if (with_slot) {
        EXPECT_THROW(For<float>("test.throw", {64}, {{grad.data(), 4}},
                                failing),
                     Error)
            << "merge " << GradientMergeName(merge);
      } else {
        EXPECT_THROW(For<float>("test.throw", {64}, failing), Error);
      }
      // The region and the pool stay usable after the failure.
      int sum = 0;
      For<float>("test.after", {3}, [&](const Chunk<float>& c) {
        if (c.begin == 0) sum = 1;
      });
      EXPECT_EQ(sum, 1);
    }
  }
}

TEST_P(ParallelFor, ForeignExceptionTypesPropagateUnchanged) {
  const Parallel::Scope scope(Config());
  EXPECT_THROW(For<double>("test.foreign", {GetParam() * 2},
                           [](const Chunk<double>& c) {
                             if (c.tid == 0) throw std::out_of_range("tid 0");
                           }),
               std::out_of_range);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelFor,
                         ::testing::Values(1, 2, 5, 8, 16),
                         [](const auto& tpi) {
                           return "threads" + std::to_string(tpi.param);
                         });

}  // namespace
}  // namespace cgdnn::parallel
