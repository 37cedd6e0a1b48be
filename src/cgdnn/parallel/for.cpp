#include "cgdnn/parallel/for.hpp"

#include <omp.h>

#include <array>
#include <atomic>
#include <exception>
#include <vector>

#include "cgdnn/blas/blas.hpp"
#include "cgdnn/parallel/instrument.hpp"
#include "cgdnn/parallel/merge.hpp"

namespace cgdnn::parallel::detail {

template <typename Dtype>
void RunFor(const std::string& name, const CoalescedRange& range,
            std::initializer_list<GradSlot<Dtype>> grads, ChunkFn<Dtype> fn,
            void* body) {
  const GradSlot<Dtype>* slots = grads.begin();
  const std::size_t nslots = grads.size();
  CGDNN_CHECK_LE(nslots, kMaxGradSlots);
  const index_t total = range.total();
  if (total == 0) return;
  // A loop reached from inside a team runs on its caller's thread.
  const int nthreads = omp_in_parallel() ? 1 : Parallel::ResolveThreads();

  if (nthreads == 1) {
    std::array<Dtype*, kMaxGradSlots> shared{};
    for (std::size_t s = 0; s < nslots; ++s) shared[s] = slots[s].shared;
    fn(body, Chunk<Dtype>{0, 1, 0, total, shared.data(), nullptr});
    return;
  }

  // Split units: single collapsed indices, or whole leading-index blocks
  // when coalescing is off.
  const ParallelConfig& cfg = Parallel::Config();
  const index_t units =
      cfg.coalesce || range.ndims() == 1 ? total : range.dim(0);
  const index_t unit = total / units;
  const GradientMerge merge = cfg.merge;
  bool merging = false;
  for (std::size_t s = 0; s < nslots; ++s) {
    merging = merging || slots[s].shared != nullptr;
  }
  CGDNN_CHECK(!merging || merge != GradientMerge::kSerial)
      << name << ": the serial merge needs a one-thread loop";

  auto& pool = PrivatizationPool::Get();
  pool.Configure(nthreads);
  pool.BeginLayerScope();
  // parts[s * nthreads + tid]: thread tid's private copy of slot s.
  std::vector<Dtype*> parts(nslots * static_cast<std::size_t>(nthreads));
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  {
    RegionStats stats(name, nthreads);
    check::WriteSetChecker* checker = stats.checker();
#pragma omp parallel num_threads(nthreads)
    {
      const int tid = omp_get_thread_num();
      const int team = omp_get_num_threads();
      try {
        std::array<Dtype*, kMaxGradSlots> mine{};
        for (std::size_t s = 0; s < nslots; ++s) {
          if (slots[s].shared == nullptr) continue;
          // Algorithm 5 lines 3-5: a private accumulator per thread,
          // zero-filled to the reduction's neuter value.
          mine[s] = pool.Acquire<Dtype>(tid, slots[s].count);
          blas::set(slots[s].count, Dtype(0), mine[s]);
          parts[s * static_cast<std::size_t>(nthreads) +
                static_cast<std::size_t>(tid)] = mine[s];
        }
        const IterRange r = StaticChunk(units, team, tid);
        ThreadRegionScope scope(stats, tid);
        if (r.size() > 0) {
          fn(body, Chunk<Dtype>{tid, team, r.begin * unit, r.end * unit,
                                mine.data(), checker});
        }
      } catch (...) {
        if (!failed.exchange(true)) error = std::current_exception();
      }
      if (merging) {
        // Every private accumulator is complete before any merge reads it.
#pragma omp barrier
        if (!failed.load()) {
          for (std::size_t s = 0; s < nslots; ++s) {
            if (slots[s].shared == nullptr) continue;
            AccumulatePrivate(
                merge, parts.data() + s * static_cast<std::size_t>(nthreads),
                team, slots[s].shared, slots[s].count);
          }
        }
      }
    }
  }  // ~RegionStats verifies the write sets; body errors rethrow after it
  if (error) std::rethrow_exception(error);
}

template void RunFor<float>(const std::string&, const CoalescedRange&,
                            std::initializer_list<GradSlot<float>>,
                            ChunkFn<float>, void*);
template void RunFor<double>(const std::string&, const CoalescedRange&,
                             std::initializer_list<GradSlot<double>>,
                             ChunkFn<double>, void*);

}  // namespace cgdnn::parallel::detail
