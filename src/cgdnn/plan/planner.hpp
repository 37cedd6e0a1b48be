// The planning pass: builds an ExecutionPlan for one (net, batch, threads)
// and applies it to a freshly constructed net.
//
// BuildPlan runs once per configuration (plan_cache.hpp memoizes it across
// processes): probe the machine roofs, run the cost model over every conv
// shape, and color the activation lifetime intervals into an arena layout.
// ApplyPlan then rewires a net in place: conv strategy setters and
// SyncedMemory rebinding of every planned plane into the arena buffer. The
// plan's owned state (the arena storage) is attached to the net via
// Net::AttachPlanState so it lives exactly as long as the net does.
//
// Everything a plan changes is bit-identity-preserving by construction
// (direct kernels share the GEMM micro-kernels, the arena only moves
// storage); the planned thread-sweep tests and `cgdnn_plan --validate`
// enforce it end to end.
#pragma once

#include <memory>
#include <string>

#include "cgdnn/net/net.hpp"
#include "cgdnn/plan/plan.hpp"

namespace cgdnn::plan {

struct PlannerOptions {
  int threads = 1;          ///< thread count the plan targets (cache key)
  bool enable_direct = true;
  bool enable_arena = true;
  bool use_cache = true;    ///< consult/populate the on-disk plan cache
  bool measure = true;      ///< refine conv choices with measured timings
  std::string cache_dir;    ///< override; empty = PlanCacheDir() resolution
};

struct BuildResult {
  ExecutionPlan plan;
  bool cache_hit = false;   ///< plan came from disk; no probes were run
  double build_us = 0;      ///< wall time of BuildPlan itself
};

/// Stable identity of a net's architecture for the plan-cache key: layer
/// names/types/shapes and phase. Two nets with equal signatures make the
/// same planning decisions.
template <typename Dtype>
std::string NetSignature(const Net<Dtype>& net);

/// Minimum plane size worth arena management; smaller blobs stay on their
/// private storage (rebinding overhead outweighs the savings).
constexpr index_t kMinArenaPlaneBytes = 4096;

template <typename Dtype>
BuildResult BuildPlan(const Net<Dtype>& net, const PlannerOptions& opts);

/// Applies `plan` to `net` (strategies, arena binding) and attaches
/// the plan's owned state. Also publishes the decision summary as metrics
/// gauges (plan.*) and one "plan"/"apply" trace span with the same numbers.
/// Call on a freshly constructed net, before any Forward.
template <typename Dtype>
void ApplyPlan(Net<Dtype>* net, const ExecutionPlan& plan);

/// Convenience: BuildPlan + ApplyPlan with the same options.
template <typename Dtype>
BuildResult PlanAndApply(Net<Dtype>* net, const PlannerOptions& opts);

}  // namespace cgdnn::plan
