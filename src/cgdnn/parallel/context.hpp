// Configuration of the coarse-grain parallel execution: how many
// OpenMP threads the batch-level loops use, which gradient-merge strategy
// the backward passes apply, and whether loop coalescing is active.
//
// This is the knob surface of the paper: §3.2.1 introduces the coalescing
// transformation and the ordered gradient update; §4 sweeps thread counts.
#pragma once

#include <string>

#include "cgdnn/core/common.hpp"

namespace cgdnn::parallel {

/// How per-thread private gradient blobs are folded into the shared blob.
enum class GradientMerge {
  /// No privatization; gradients are accumulated directly (requires the
  /// layer loops to run serially — used as the reference).
  kSerial,
  /// `#pragma omp for ordered` accumulation in thread-id order. Produces the
  /// bit pattern of the sequential execution for ANY thread count — the
  /// paper's convergence-invariant default for tuning/debugging (§3.2.1).
  kOrdered,
  /// Critical-section accumulation in arrival order. Fastest merge but
  /// non-deterministic across runs ("reduction-based solution", §3.2.1).
  kAtomic,
  /// Barrier-synchronized pairwise tree. Deterministic for a fixed thread
  /// count, but the value differs from the sequential one.
  kTree,
};

const char* GradientMergeName(GradientMerge mode);
GradientMerge GradientMergeFromName(const std::string& name);

/// How layer loops execute.
enum class ExecutionMode {
  kSerial,       ///< Algorithms 2/3: plain loop nests.
  kCoarseGrain,  ///< Algorithms 4/5: coalesced OpenMP batch-level loops.
};

struct ParallelConfig {
  ExecutionMode mode = ExecutionMode::kCoarseGrain;
  /// 0 = use omp_get_max_threads().
  int num_threads = 0;
  GradientMerge merge = GradientMerge::kOrdered;
  /// When false, only the bare batch loop is parallelized (no coalescing) —
  /// the work-unbalance ablation of §3.2.1 / §4.3.
  bool coalesce = true;
};

/// Per-thread parallel configuration: every thread that drives layers (the
/// main thread, each serving worker) has its own, and a new thread starts
/// from the defaults. parallel::For reads it on the calling thread before a
/// region opens; nothing reads it inside one.
class Parallel {
 public:
  static ParallelConfig& Config();
  /// Thread count the calling thread's next parallel::For uses (resolves 0).
  static int ResolveThreads();

  /// RAII override of the calling thread's configuration, restoring the
  /// previous one on destruction.
  class Scope {
   public:
    explicit Scope(const ParallelConfig& cfg);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    ParallelConfig saved_;
  };
};

}  // namespace cgdnn::parallel
