#include "cgdnn/parallel/context.hpp"

#include <omp.h>

namespace cgdnn::parallel {

const char* GradientMergeName(GradientMerge mode) {
  switch (mode) {
    case GradientMerge::kSerial: return "serial";
    case GradientMerge::kOrdered: return "ordered";
    case GradientMerge::kAtomic: return "atomic";
    case GradientMerge::kTree: return "tree";
  }
  return "?";
}

GradientMerge GradientMergeFromName(const std::string& name) {
  if (name == "serial") return GradientMerge::kSerial;
  if (name == "ordered") return GradientMerge::kOrdered;
  if (name == "atomic") return GradientMerge::kAtomic;
  if (name == "tree") return GradientMerge::kTree;
  throw Error(__FILE__, __LINE__, "unknown gradient merge mode: " + name);
}

ParallelConfig& Parallel::Config() {
  thread_local ParallelConfig cfg = [] {
    omp_set_dynamic(0);  // teams must have exactly the requested size
    return ParallelConfig{};
  }();
  return cfg;
}

int Parallel::ResolveThreads() {
  const ParallelConfig& cfg = Config();
  if (cfg.mode == ExecutionMode::kSerial) return 1;
  return cfg.num_threads > 0 ? cfg.num_threads : omp_get_max_threads();
}

Parallel::Scope::Scope(const ParallelConfig& cfg) : saved_(Config()) {
  Config() = cfg;
}

Parallel::Scope::~Scope() { Config() = saved_; }

}  // namespace cgdnn::parallel
