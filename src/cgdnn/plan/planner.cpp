#include "cgdnn/plan/planner.hpp"

#include <algorithm>
#include <cstring>
#include <set>
#include <vector>

#include "cgdnn/layers/conv_layer.hpp"
#include "cgdnn/profile/timer.hpp"
#include "cgdnn/trace/metrics.hpp"
#include "cgdnn/trace/trace.hpp"

namespace cgdnn::plan {

namespace {

/// Layer types whose tops carry externally produced batches; never arena'd.
bool IsDataType(const std::string& type) {
  return type == "Data" || type == "DummyData" || type == "MemoryData";
}

/// Layer types whose tops alias their bottom's storage via ShareData —
/// rebinding either side would split the alias, so both stay private.
bool IsSharingType(const std::string& type) {
  return type == "Split" || type == "Flatten" || type == "Reshape";
}

template <typename Dtype>
void PlanArena(const Net<Dtype>& net, ExecutionPlan* plan) {
  const auto& layers = net.layers();
  const auto& tops = net.top_id_vecs();
  const auto& bottoms = net.bottom_id_vecs();
  const index_t L = static_cast<index_t>(layers.size());
  const bool train = net.phase() == Phase::kTrain;

  // Blobs that must keep their private storage.
  std::set<std::size_t> excluded;
  for (std::size_t li = 0; li < layers.size(); ++li) {
    const std::string type = layers[li]->type();
    if (IsDataType(type)) {
      for (const std::size_t b : tops[li]) excluded.insert(b);
    }
    if (IsSharingType(type)) {
      for (const std::size_t b : tops[li]) excluded.insert(b);
      for (const std::size_t b : bottoms[li]) excluded.insert(b);
    }
    // Loss-weighted tops: their diff plane holds the constant loss weight
    // (read by every Forward) and their data is inspected after the
    // iteration — both planes stay private.
    for (std::size_t ti = 0; ti < tops[li].size(); ++ti) {
      if (layers[li]->loss(static_cast<int>(ti)) != Dtype(0)) {
        excluded.insert(tops[li][ti]);
      }
    }
  }

  // Per-blob first producer and touch range over layer indices.
  const std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> producer(net.blobs().size(), kNone);
  std::vector<std::size_t> min_touch(net.blobs().size(), kNone);
  std::vector<std::size_t> max_touch(net.blobs().size(), 0);
  for (std::size_t li = 0; li < layers.size(); ++li) {
    for (const std::size_t b : tops[li]) {
      if (producer[b] == kNone) producer[b] = li;
    }
    for (const auto* vec : {&tops[li], &bottoms[li]}) {
      for (const std::size_t b : *vec) {
        if (min_touch[b] == kNone) min_touch[b] = li;
        max_touch[b] = std::max(max_touch[b], li);
      }
    }
  }

  std::vector<LifetimeInterval> intervals;
  for (std::size_t b = 0; b < net.blobs().size(); ++b) {
    if (producer[b] == kNone || excluded.count(b) != 0) continue;
    const index_t bytes =
        static_cast<index_t>(net.blobs()[b]->count()) * sizeof(Dtype);
    if (bytes < kMinArenaPlaneBytes) continue;
    const index_t p = static_cast<index_t>(producer[b]);
    const index_t last = static_cast<index_t>(max_touch[b]);
    LifetimeInterval data;
    data.name = net.blob_names()[b];
    data.kind = SlotKind::kData;
    data.blob_id = static_cast<index_t>(b);
    data.start = p;
    data.bytes = bytes;
    // Train: any toucher's backward may read this data; the earliest
    // toucher (the producer) runs backward last, at step 2L-1-p.
    data.end = train ? 2 * L - 1 - p : last;
    intervals.push_back(std::move(data));
    if (train && net.blob_need_backward()[b]) {
      LifetimeInterval diff;
      diff.name = net.blob_names()[b];
      diff.kind = SlotKind::kDiff;
      diff.blob_id = static_cast<index_t>(b);
      // Written first by the last toucher's backward, consumed through the
      // producer's backward.
      diff.start = 2 * L - 1 - last;
      diff.end = 2 * L - 1 - p;
      diff.bytes = bytes;
      intervals.push_back(std::move(diff));
    }
  }

  // The serial-path conv column scratch: all convs share one whole-timeline
  // slot sized for the largest column matrix (its contents never outlive a
  // single sample's lowering, but the slot must exist whenever any conv
  // runs, and point-interval bindings are not expressible with one static
  // pointer per layer).
  index_t col_bytes = 0;
  for (const auto& layer : layers) {
    const auto* conv =
        dynamic_cast<const ConvolutionLayer<Dtype>*>(layer.get());
    if (conv != nullptr) {
      col_bytes = std::max(
          col_bytes, static_cast<index_t>(conv->col_count()) *
                         static_cast<index_t>(sizeof(Dtype)));
    }
  }
  if (col_bytes > 0) {
    LifetimeInterval col;
    col.name = "col";
    col.kind = SlotKind::kCol;
    col.blob_id = -1;
    col.start = 0;
    col.end = 2 * L - 1;
    col.bytes = col_bytes;
    intervals.push_back(std::move(col));
  }
  plan->col_slot_bytes = col_bytes;
  plan->arena = PlanArenaOffsets(std::move(intervals));
}

}  // namespace

template <typename Dtype>
BuildResult BuildPlan(const Net<Dtype>& net, const PlannerOptions& opts) {
  profile::Timer timer;
  BuildResult result;
  ExecutionPlan& plan = result.plan;
  plan.batch = net.blobs().empty() || net.blobs()[0]->num_axes() == 0
                   ? 0
                   : net.blobs()[0]->shape(0);
  plan.threads = opts.threads;
  PlanArena(net, &plan);
  result.build_us = timer.MicroSeconds();
  return result;
}

namespace {

/// State a plan attaches to its net: the arena storage (layers and blobs
/// hold raw views into it).
struct PlanState {
  AlignedBuffer arena;
};

}  // namespace

template <typename Dtype>
void ApplyPlan(Net<Dtype>* net, const ExecutionPlan& plan) {
  const std::uint64_t start_ns = trace::NowNs();
  auto state = std::make_shared<PlanState>();

  // ---- arena binding ----
  if (plan.arena.total_bytes > 0 && !plan.arena.intervals.empty()) {
    state->arena = AlignedBuffer(static_cast<std::size_t>(
        plan.arena.total_bytes));
    char* base = static_cast<char*>(state->arena.get());
    for (const LifetimeInterval& iv : plan.arena.intervals) {
      if (iv.kind == SlotKind::kCol) {
        for (const auto& layer : net->layers()) {
          auto* conv =
              dynamic_cast<ConvolutionLayer<Dtype>*>(layer.get());
          if (conv != nullptr) {
            conv->BindSerialColBuffer(
                reinterpret_cast<Dtype*>(base + iv.offset),
                iv.bytes / static_cast<index_t>(sizeof(Dtype)));
          }
        }
        continue;
      }
      CGDNN_CHECK_GE(iv.blob_id, 0);
      CGDNN_CHECK_LT(static_cast<std::size_t>(iv.blob_id),
                     net->blobs().size());
      const auto& blob = net->blobs()[static_cast<std::size_t>(iv.blob_id)];
      CGDNN_CHECK_EQ(static_cast<index_t>(blob->count() * sizeof(Dtype)),
                     iv.bytes)
          << "plan/net shape mismatch on " << iv.name;
      void* slot = base + iv.offset;
      if (iv.kind == SlotKind::kData) {
        std::memcpy(slot, blob->cpu_data(),
                    static_cast<std::size_t>(iv.bytes));
        blob->data()->set_cpu_data(slot);
      } else {
        std::memcpy(slot, blob->cpu_diff(),
                    static_cast<std::size_t>(iv.bytes));
        blob->diff()->set_cpu_data(slot);
      }
    }
  }

  net->AttachPlanState(std::shared_ptr<void>(state));

  // ---- observability: the arena summary as metrics + one trace span ----
  auto& metrics = trace::MetricsRegistry::Default();
  metrics.GetGauge("plan.arena_bytes")
      .Set(static_cast<double>(plan.arena.total_bytes));
  metrics.GetGauge("plan.per_plane_bytes")
      .Set(static_cast<double>(plan.arena.per_plane_bytes));
  metrics.GetGauge("plan.col_slot_bytes")
      .Set(static_cast<double>(plan.col_slot_bytes));
  trace::Tracer::Get().Emit(
      "plan", net->name() + ".apply", start_ns, trace::NowNs(),
      {{"arena_bytes", static_cast<double>(plan.arena.total_bytes)},
       {"per_plane_bytes", static_cast<double>(plan.arena.per_plane_bytes)}});
}

template <typename Dtype>
BuildResult PlanAndApply(Net<Dtype>* net, const PlannerOptions& opts) {
  BuildResult result = BuildPlan(*net, opts);
  ApplyPlan(net, result.plan);
  return result;
}

template BuildResult BuildPlan<float>(const Net<float>&,
                                      const PlannerOptions&);
template BuildResult BuildPlan<double>(const Net<double>&,
                                       const PlannerOptions&);
template void ApplyPlan<float>(Net<float>*, const ExecutionPlan&);
template void ApplyPlan<double>(Net<double>*, const ExecutionPlan&);
template BuildResult PlanAndApply<float>(Net<float>*, const PlannerOptions&);
template BuildResult PlanAndApply<double>(Net<double>*,
                                          const PlannerOptions&);

}  // namespace cgdnn::plan
