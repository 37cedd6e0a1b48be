// Gradient merge strategies (Algorithm 5, lines 22-24).
//
// After the loop of a backward pass, each thread holds a private gradient
// accumulation. AccumulatePrivate folds all private parts into the shared
// gradient blob. It MUST be called by every thread of the enclosing
// parallel region (it contains worksharing/barrier constructs) after a
// barrier that made all parts visible — parallel::For places both.
#pragma once

#include "cgdnn/core/common.hpp"
#include "cgdnn/parallel/context.hpp"

namespace cgdnn::parallel {

/// Folds `parts[0..nparts)` (each an array of `n` values) into `dest`
/// (accumulating: dest += sum of parts), using the given merge strategy.
///
/// * kOrdered — thread-id-ordered accumulation via `omp for ordered`;
///   bit-identical to the sequential sample order for any thread count.
/// * kAtomic — critical-section accumulation in arrival order.
/// * kTree — barrier-stepped pairwise reduction into parts[0], then one
///   thread adds parts[0] to dest. Destroys the contents of `parts`.
/// * kSerial — invalid here (no privatization happens in serial mode).
template <typename Dtype>
void AccumulatePrivate(GradientMerge mode, Dtype* const* parts, int nparts,
                       Dtype* dest, index_t n);

}  // namespace cgdnn::parallel
