// Per-thread data privatization (Algorithm 5, lines 3-5).
//
// The backward pass accumulates weight gradients across batch samples; with
// batch-level threads that update is a race, so each thread writes into a
// private blob first. The paper's memory argument (§3.2.1): privatized
// storage never crosses layer boundaries, so one per-thread arena reused by
// every layer bounds the total extra memory at the *largest* layer's needs
// (≈640KB MNIST / ≈1250KB CIFAR-10 with 16 threads, ~5% of the net).
//
// Arena properties: chunked (pointers remain stable while a scope is open),
// grow-only (reuse across layers), per-thread (no cross-thread allocation).
// The arena itself lives in core (cgdnn/core/arena.hpp) so that the BLAS
// GEMM packing scratch can share the same allocator without a dependency
// cycle; this header re-exports it under the historical name.
#pragma once

#include <memory>
#include <vector>

#include "cgdnn/core/arena.hpp"
#include "cgdnn/core/common.hpp"

namespace cgdnn::parallel {

using ThreadArena = ::cgdnn::ThreadArena;

class PrivatizationPool {
 public:
  /// Process-wide pool parallel::For draws private gradients and scratch
  /// from.
  static PrivatizationPool& Get();

  /// Ensures arenas exist for threads [0, nthreads). Must be called from
  /// serial code (parallel::For calls it before opening its region).
  void Configure(int nthreads);

  /// Resets every thread's scope; called at the start of a layer pass —
  /// this is what implements cross-layer reuse.
  void BeginLayerScope();

  /// Typed allocation for thread `tid`. Contents are uninitialized; callers
  /// zero-fill (the "neuter value of the reduction", Algorithm 5 line 5).
  template <typename Dtype>
  Dtype* Acquire(int tid, index_t count) {
    CGDNN_CHECK_GE(tid, 0);
    CGDNN_CHECK_LT(static_cast<std::size_t>(tid), arenas_.size());
    return static_cast<Dtype*>(arenas_[static_cast<std::size_t>(tid)]->Allocate(
        static_cast<std::size_t>(count) * sizeof(Dtype)));
  }

  /// Total bytes currently held across all arenas (the paper's "additional
  /// memory" figure) and the per-run high-water mark of per-layer usage.
  std::size_t total_bytes() const;
  std::size_t high_water_layer_bytes() const { return high_water_; }
  int configured_threads() const { return static_cast<int>(arenas_.size()); }

  /// Releases all arenas (tests / memory-table bench).
  void Release();

 private:
  void RecordHighWater();

  std::vector<std::unique_ptr<ThreadArena>> arenas_;
  std::size_t high_water_ = 0;
};

}  // namespace cgdnn::parallel
