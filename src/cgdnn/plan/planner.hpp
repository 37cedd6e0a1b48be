// The planning pass: builds an ExecutionPlan for one (net, batch, threads)
// and applies it to a freshly constructed net.
//
// BuildPlan colors the activation lifetime intervals into an arena layout.
// It reads only the net's layers and shapes, so the plan is a pure function
// of the net, and it is cheap enough to run at every net construction.
// ApplyPlan then rewires a net in place: SyncedMemory rebinding of every
// planned plane into the arena buffer, and the conv layers' serial column
// buffers onto the shared col slot. The plan's owned state (the arena
// storage) is attached to the net via Net::AttachPlanState so it lives
// exactly as long as the net does.
//
// The arena only moves storage, so a planned net is bit-identical to the
// unplanned one; the planned thread-sweep tests and `cgdnn_plan --validate`
// enforce it end to end.
#pragma once

#include "cgdnn/net/net.hpp"
#include "cgdnn/plan/plan.hpp"

namespace cgdnn::plan {

struct PlannerOptions {
  int threads = 1;        ///< thread count the plan targets
  bool use_cache = true;  ///< unread; goes with the next benchmark change
  bool measure = true;    ///< unread; goes with the next benchmark change
};

struct BuildResult {
  ExecutionPlan plan;
  double build_us = 0;  ///< wall time of BuildPlan itself
};

/// Minimum plane size worth arena management; smaller blobs stay on their
/// private storage (rebinding overhead outweighs the savings).
constexpr index_t kMinArenaPlaneBytes = 4096;

template <typename Dtype>
BuildResult BuildPlan(const Net<Dtype>& net, const PlannerOptions& opts);

/// Applies `plan` to `net` (arena binding) and attaches the plan's owned
/// state. Also publishes the arena summary as metrics gauges (plan.*) and
/// one "plan"/"apply" trace span with the same numbers. Call on a freshly
/// constructed net, before any Forward.
template <typename Dtype>
void ApplyPlan(Net<Dtype>* net, const ExecutionPlan& plan);

/// Convenience: BuildPlan + ApplyPlan with the same options.
template <typename Dtype>
BuildResult PlanAndApply(Net<Dtype>* net, const PlannerOptions& opts);

}  // namespace cgdnn::plan
