// cgdnn_plan — execution-plan dump / explain / validate tool.
//
//   cgdnn_plan --model=<file|lenet|cifar10_quick> [--batch=N] [--threads=N]
//              [--phase=train|test] [--merge=MODE] [--explain] [--json[=file]]
//              [--validate] [--inject-bad-plan]
//
// Builds the execution plan for one (model, batch, threads) configuration
// and shows the activation arena layout the planner chose, with per-slot
// offsets and lifetime steps under --explain.
//
// --json prints the plan's JSON serialization (or writes it to the given
// path). --validate is the end-to-end bit-identity gate: it runs the
// same seeded iteration twice — once plain, once under the plan — and
// compares every activation, diff, and parameter gradient, masking only
// arena planes whose slot is legitimately reused later in the timeline
// (the plan's `preserved` flags). Any mismatch is a planner bug and exits
// non-zero. --inject-bad-plan corrupts the arena layout with a deliberate
// time-overlapping slot collision before applying it; plan_regression_check
// uses it to prove --validate actually catches broken plans.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cgdnn/check/write_set.hpp"
#include "cgdnn/core/rng.hpp"
#include "cgdnn/data/dataset.hpp"
#include "cgdnn/net/net.hpp"
#include "cgdnn/plan/planner.hpp"
#include "flags.hpp"

namespace {

using namespace cgdnn;

constexpr const char* kUsage =
    "cgdnn_plan --model=<file|lenet|cifar10_quick> [--batch=N] [--threads=N] "
    "[--phase=train|test] [--merge=MODE] [--explain] [--json[=file]] "
    "[--validate] [--inject-bad-plan]";

/// Builtin models get the requested batch, over a synthetic set of at least
/// one batch; prototxt files keep their own.
proto::NetParameter ResolvePlanModel(const std::string& model, index_t batch) {
  models::ModelOptions o;
  o.batch_size = batch;
  o.with_accuracy = false;
  proto::NetParameter param;
  if (model == "lenet") {
    param = models::LeNet(o);
  } else if (model == "cifar10_quick" || model == "cifar10") {
    param = models::Cifar10Quick(o);
  } else {
    return proto::NetParameter::FromFile(model);
  }
  // Sized from the built layer: Cifar10Quick turns the default batch of 64
  // into Caffe's 100.
  for (auto& layer : param.layer) {
    if (layer.type == "Data") {
      layer.data_param.num_samples =
          std::max<index_t>(layer.data_param.batch_size, 32);
    }
  }
  return param;
}

const char* SlotKindName(plan::SlotKind kind) {
  switch (kind) {
    case plan::SlotKind::kData: return "data";
    case plan::SlotKind::kDiff: return "diff";
    case plan::SlotKind::kCol: return "col";
  }
  return "?";
}

void PrintPlan(const plan::ExecutionPlan& plan, bool explain) {
  std::cout << std::fixed << std::setprecision(2);
  std::cout << "plan for batch=" << plan.batch << " threads=" << plan.threads
            << "\n";
  std::cout << "\narena: " << plan.arena.total_bytes << " bytes for "
            << plan.arena.intervals.size() << " planes ("
            << plan.arena.per_plane_bytes << " bytes unplanned";
  if (plan.arena.per_plane_bytes > 0) {
    std::cout << ", "
              << 100.0 * (1.0 - static_cast<double>(plan.arena.total_bytes) /
                                    static_cast<double>(
                                        plan.arena.per_plane_bytes))
              << "% saved";
  }
  std::cout << ")\n";
  if (plan.col_slot_bytes > 0) {
    std::cout << "col slot: " << plan.col_slot_bytes
              << " bytes shared by all serial conv col buffers\n";
  }
  if (explain) {
    for (const auto& iv : plan.arena.intervals) {
      std::cout << "  [" << std::setw(10) << iv.offset << ", "
                << std::setw(10) << iv.offset + iv.bytes << ")  steps ["
                << std::setw(3) << iv.start << ", " << std::setw(3) << iv.end
                << "]  " << SlotKindName(iv.kind) << "  " << iv.name
                << (iv.preserved ? "" : "  (slot reused)") << "\n";
    }
  }
  std::cout << std::defaultfloat;
}

struct NetState {
  std::vector<std::vector<float>> blob_data;
  std::vector<std::vector<float>> blob_diff;
  std::vector<std::vector<float>> param_diff;
};

NetState CaptureState(const Net<float>& net) {
  NetState s;
  for (const auto& blob : net.blobs()) {
    const float* d = blob->cpu_data();
    const float* g = blob->cpu_diff();
    s.blob_data.emplace_back(d, d + blob->count());
    s.blob_diff.emplace_back(g, g + blob->count());
  }
  for (const auto* p : net.learnable_params()) {
    const float* g = p->cpu_diff();
    s.param_diff.emplace_back(g, g + p->count());
  }
  return s;
}

/// One seeded iteration: fresh net, fresh data, optional plan. Identical
/// setup to the planned-equivalence test suite so the tool enforces the
/// exact property the tests do.
NetState RunIteration(const proto::NetParameter& param, Phase phase,
                      const plan::ExecutionPlan* plan,
                      std::vector<std::string>* names = nullptr) {
  check::ScopedEnable armed;
  SeedGlobalRng(1234);
  data::ClearDatasetCache();
  Net<float> net(param, phase);
  if (plan != nullptr) plan::ApplyPlan(&net, *plan);
  if (phase == Phase::kTrain) {
    net.ClearParamDiffs();
    net.ForwardBackward();
  } else {
    net.Forward();
  }
  if (names != nullptr) *names = net.blob_names();
  return CaptureState(net);
}

/// Preserved-mask compare; returns the number of mismatching planes.
int ComparePlanned(const NetState& ref, const NetState& planned,
                   const plan::ExecutionPlan& plan,
                   const std::vector<std::string>& names,
                   bool params_bit_exact) {
  int bad = 0;
  std::vector<bool> data_ok(ref.blob_data.size(), true);
  std::vector<bool> diff_ok(ref.blob_data.size(), true);
  for (const auto& iv : plan.arena.intervals) {
    if (iv.blob_id < 0 || iv.preserved) continue;
    if (iv.kind == plan::SlotKind::kData) {
      data_ok[static_cast<std::size_t>(iv.blob_id)] = false;
    } else if (iv.kind == plan::SlotKind::kDiff) {
      diff_ok[static_cast<std::size_t>(iv.blob_id)] = false;
    }
  }
  for (std::size_t i = 0; i < ref.blob_data.size(); ++i) {
    if (data_ok[i] && ref.blob_data[i] != planned.blob_data[i]) {
      std::cerr << "MISMATCH: data of blob '" << names[i] << "'\n";
      ++bad;
    }
    if (diff_ok[i] && ref.blob_diff[i] != planned.blob_diff[i]) {
      std::cerr << "MISMATCH: diff of blob '" << names[i] << "'\n";
      ++bad;
    }
  }
  for (std::size_t p = 0; p < ref.param_diff.size(); ++p) {
    if (params_bit_exact) {
      if (ref.param_diff[p] != planned.param_diff[p]) {
        std::cerr << "MISMATCH: param diff " << p << "\n";
        ++bad;
      }
      continue;
    }
    // Tree/atomic merges are not bit-reproducible across runs; use the
    // same re-association tolerance as the equivalence suite.
    for (std::size_t i = 0; i < ref.param_diff[p].size(); ++i) {
      const double a = ref.param_diff[p][i];
      const double b = planned.param_diff[p][i];
      const double tol = 1e-4 * std::max({std::abs(a), std::abs(b), 1e-4});
      if (std::abs(a - b) > tol) {
        std::cerr << "MISMATCH: param diff " << p << " element " << i << "\n";
        ++bad;
        break;
      }
    }
  }
  return bad;
}

/// The regression-check sentinel: force one arena slot onto the address of
/// a slot whose lifetime it overlaps. ValidateLayout and --validate must
/// both reject the result; if they ever stop doing so the check is dead.
bool InjectBadPlan(plan::ExecutionPlan* plan) {
  auto& ivs = plan->arena.intervals;
  for (std::size_t i = 0; i < ivs.size(); ++i) {
    for (std::size_t j = i + 1; j < ivs.size(); ++j) {
      if (plan::TimeOverlap(ivs[i], ivs[j]) &&
          !plan::AddrOverlap(ivs[i], ivs[j])) {
        std::cerr << "injecting collision: '" << ivs[j].name << "' onto '"
                  << ivs[i].name << "' at offset " << ivs[i].offset << "\n";
        ivs[j].offset = ivs[i].offset;
        return true;
      }
    }
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const tools::Flags flags(argc, argv);
    flags.CheckKnown({{"model", "batch", "phase", "explain", "json",
                       "validate", "inject-bad-plan"},
                      tools::kParallelFlags},
                     kUsage);
    const std::string model = flags.Require("model", kUsage);
    const index_t batch = flags.GetInt("batch", 8);
    const int threads = static_cast<int>(flags.GetInt("threads", 1));
    const std::string phase_name = flags.GetString("phase", "train");
    CGDNN_CHECK(phase_name == "train" || phase_name == "test")
        << "--phase must be train or test";
    const Phase phase =
        phase_name == "train" ? Phase::kTrain : Phase::kTest;
    const std::string merge_name = flags.GetString("merge", "ordered");

    tools::ConfigureParallel(flags);
    parallel::Parallel::Config().merge =
        parallel::GradientMergeFromName(merge_name);

    const proto::NetParameter param = ResolvePlanModel(model, batch);

    plan::PlannerOptions opts;
    opts.threads = threads;

    // Plan against a throwaway net so --validate's runs both start from
    // fresh, identically seeded construction.
    plan::BuildResult built;
    {
      SeedGlobalRng(1234);
      data::ClearDatasetCache();
      Net<float> net(param, phase);
      built = plan::BuildPlan(net, opts);
    }
    std::cerr << "plan built in " << std::fixed << std::setprecision(0)
              << built.build_us << "us\n"
              << std::defaultfloat;

    bool injected = false;
    if (flags.GetBool("inject-bad-plan")) {
      injected = InjectBadPlan(&built.plan);
      if (!injected) {
        std::cerr << "error: no overlappable arena intervals to corrupt\n";
        return 1;
      }
    }

    if (flags.Has("json")) {
      const std::string json_path = flags.GetString("json");
      if (json_path.empty() || json_path == "true") {
        std::cout << built.plan.ToJson() << "\n";
      } else {
        std::ofstream out(json_path, std::ios::trunc);
        CGDNN_CHECK(out.good()) << "cannot write " << json_path;
        out << built.plan.ToJson() << "\n";
        std::cerr << "plan written to " << json_path << "\n";
      }
    } else {
      PrintPlan(built.plan, flags.GetBool("explain"));
    }

    if (!flags.GetBool("validate")) return 0;

    // ---- end-to-end A/B gate ---------------------------------------------
    int failures = 0;
    std::string why;
    if (!plan::ValidateLayout(built.plan.arena.intervals, &why)) {
      std::cerr << "arena layout invalid: " << why << "\n";
      ++failures;
    }
    std::vector<std::string> names;
    const NetState ref = RunIteration(param, phase, nullptr, &names);
    const NetState planned = RunIteration(param, phase, &built.plan);
    const auto merge = parallel::Parallel::Config().merge;
    const bool bit_exact = threads <= 1 ||
                           merge == parallel::GradientMerge::kSerial ||
                           merge == parallel::GradientMerge::kOrdered;
    failures += ComparePlanned(ref, planned, built.plan, names, bit_exact);
    if (failures > 0) {
      std::cerr << "VALIDATION FAILED: " << failures << " mismatch(es)"
                << (injected ? " (bad plan injected as requested)" : "")
                << "\n";
      return 1;
    }
    std::cout << "validation OK: planned == unplanned ("
              << names.size() << " blobs, " << ref.param_diff.size()
              << " params, threads=" << threads << ", phase=" << phase_name
              << ")\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
