// parallel::For — the one coarse-grain loop primitive (Algorithms 4 and 5).
//
// A layer states its loop once: the iteration space (a CoalescedRange over
// its leading loop dimensions), the gradient blobs its iterations
// accumulate into, and a body that runs one contiguous chunk [begin, end)
// of the collapsed space. For owns everything else:
//   * the thread count (ParallelConfig::mode / num_threads, resolved on the
//     calling thread);
//   * the static split: chunk t is StaticChunk(total, T, t). With
//     ParallelConfig::coalesce off only the leading dimension is split (the
//     §4.3 ablation), so chunks cover whole leading-index blocks;
//   * RegionStats / ThreadRegionScope (imbalance, trace spans, flight-
//     recorder positions, counter sampling) and the write-set checker;
//   * gradient privatization: each gradient slot gets a zero-filled
//     per-thread copy from the PrivatizationPool, folded into the shared
//     blob after the loop by AccumulatePrivate with the configured merge;
//   * error capture: the first exception a body throws is rethrown after
//     the join, so a failing CHECK raises cgdnn::Error instead of
//     terminating the process.
// At one thread none of that runs. The body is called inline over the
// whole range with the shared gradients as its slots, and the
// PrivatizationPool is never touched: the serial loop nest of Algorithms
// 2/3 is the one-thread case of the same code.
//
// Usage (layer code):
//   parallel::For<Dtype>(name + ".backward", {num_},
//                        {{weight_diff, wcount}},
//                        [&](const parallel::Chunk<Dtype>& c) {
//     for (index_t n = c.begin; n < c.end; ++n) {
//       AccumulateSample(n, c.grad(0));
//     }
//     c.RecordWrite(bottom_diff, "bottom.diff", c.begin * dim, c.end * dim);
//   });
#pragma once

#include <cstddef>
#include <initializer_list>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>

#include "cgdnn/check/write_set.hpp"
#include "cgdnn/core/common.hpp"
#include "cgdnn/parallel/coalesce.hpp"
#include "cgdnn/parallel/context.hpp"
#include "cgdnn/parallel/privatizer.hpp"

namespace cgdnn::parallel {

/// A shared accumulator that every iteration adds into (a weight or bias
/// gradient). `shared == nullptr` disables the slot for this pass.
template <typename Dtype>
struct GradSlot {
  Dtype* shared = nullptr;
  index_t count = 0;
};

/// Most gradient slots one loop may declare.
constexpr std::size_t kMaxGradSlots = 4;

/// One thread's share of a For loop, handed to the body.
template <typename Dtype>
struct Chunk {
  int tid = 0;
  int nthreads = 1;
  index_t begin = 0;  ///< first collapsed index of this chunk
  index_t end = 0;    ///< one past the last
  Dtype* const* grads = nullptr;
  check::WriteSetChecker* checker = nullptr;

  /// Gradient slot `i`, in declaration order: the shared blob at one
  /// thread, this thread's zero-filled private copy in a team; nullptr for
  /// a disabled slot.
  Dtype* grad(std::size_t i) const { return grads[i]; }

  /// `count` uninitialized elements of per-thread scratch from the
  /// PrivatizationPool, valid until the loop returns. Teams only: at one
  /// thread the caller owns its scratch.
  Dtype* Scratch(index_t count) const {
    CGDNN_CHECK_GT(nthreads, 1) << "Chunk::Scratch is for team members";
    return PrivatizationPool::Get().Acquire<Dtype>(tid, count);
  }

  /// Declares that this chunk wrote elements [b, e) of the shared buffer
  /// `base` (known to the layer as `blob`). A no-op unless cgdnn-check is
  /// armed, when the join verifies that the threads' writes are disjoint.
  void RecordWrite(const void* base, const char* blob, index_t b,
                   index_t e) const {
    if (checker != nullptr) checker->RecordWrite(tid, base, blob, b, e);
  }
};

namespace detail {

template <typename Dtype>
using ChunkFn = void (*)(void* body, const Chunk<Dtype>& chunk);

template <typename Dtype>
void RunFor(const std::string& name, const CoalescedRange& range,
            std::initializer_list<GradSlot<Dtype>> grads, ChunkFn<Dtype> fn,
            void* body);

}  // namespace detail

/// Runs `body(const Chunk<Dtype>&)` over `range`, split statically across
/// the configured threads, and merges the private copies of `grads` into
/// their shared blobs. `name` names the region ("<layer>.forward") in
/// traces, metrics, crash dumps and checker errors.
template <typename Dtype, typename Body>
void For(const std::string& name, const CoalescedRange& range,
         std::initializer_list<GradSlot<Dtype>> grads, Body&& body) {
  using B = std::remove_reference_t<Body>;
  detail::RunFor<Dtype>(
      name, range, grads,
      [](void* b, const Chunk<Dtype>& chunk) {
        (*static_cast<B*>(b))(chunk);
      },
      const_cast<void*>(static_cast<const void*>(std::addressof(body))));
}

/// For without gradient slots (forward passes, input gradients).
template <typename Dtype, typename Body>
void For(const std::string& name, const CoalescedRange& range, Body&& body) {
  For<Dtype>(name, range, {}, std::forward<Body>(body));
}

}  // namespace cgdnn::parallel
