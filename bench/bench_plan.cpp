// Execution-planner A/B bench: what does the cost-model plan actually buy?
//
// Two claims are measured per evaluation network and written to
// BENCH_plan.json (baseline committed under bench/baselines/):
//
//  * iteration time — full fwd+bwd wall clock, planned vs plain, at 1 and
//    8 threads. Runs are interleaved (plain, planned, plain, ...) and the
//    minimum over repetitions is reported, so one noisy scheduling quantum
//    on a shared host cannot masquerade as a speedup or a regression.
//  * activation memory — the lifetime-planned arena footprint vs the plain
//    per-blob allocation, for the train and test phases separately (test
//    has no diff planes and much shorter lifetimes, so its saving is the
//    larger one). These numbers are exact properties of the plan, not
//    measurements; peak process RSS rides along in the report's meta
//    header (buildinfo::WriteMetaJson) for compare_bench.py to diff.
//
// Gate against the committed baseline with:
//   tools/compare_bench.py bench/baselines/BENCH_plan.json \
//       BENCH_plan.json
#include <algorithm>
#include <chrono>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cgdnn/core/rng.hpp"
#include "cgdnn/data/dataset.hpp"
#include "cgdnn/net/models.hpp"
#include "cgdnn/net/net.hpp"
#include "cgdnn/parallel/context.hpp"
#include "cgdnn/plan/planner.hpp"

namespace {

using namespace cgdnn;

constexpr int kReps = 3;       // interleaved repetitions, min is reported
constexpr int kWarmup = 1;

double MeasureIterationUs(const proto::NetParameter& param, int threads,
                          int iters, bool planned) {
  parallel::ParallelConfig cfg;
  cfg.mode = threads > 1 ? parallel::ExecutionMode::kCoarseGrain
                         : parallel::ExecutionMode::kSerial;
  cfg.num_threads = threads;
  cfg.merge = parallel::GradientMerge::kOrdered;
  parallel::Parallel::Scope scope(cfg);

  SeedGlobalRng(1);
  data::ClearDatasetCache();
  Net<float> net(param, Phase::kTrain);
  if (planned) {
    plan::PlannerOptions opts;
    opts.threads = threads;
    opts.use_cache = false;  // hermetic: plan fresh, time only execution
    auto built = plan::BuildPlan(net, opts);
    plan::ApplyPlan(&net, built.plan);
  }
  for (int i = 0; i < kWarmup; ++i) {
    net.ClearParamDiffs();
    net.ForwardBackward();
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    net.ClearParamDiffs();
    net.ForwardBackward();
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(t1 - t0).count() / iters;
}

struct ArenaNumbers {
  index_t per_blob = 0;
  index_t arena = 0;
  double saving_pct() const {
    return per_blob > 0
               ? 100.0 * (1.0 - static_cast<double>(arena) /
                                    static_cast<double>(per_blob))
               : 0.0;
  }
};

ArenaNumbers PlanArenaBytes(const proto::NetParameter& param, Phase phase,
                            int threads) {
  SeedGlobalRng(1);
  data::ClearDatasetCache();
  Net<float> net(param, phase);
  plan::PlannerOptions opts;
  opts.threads = threads;
  opts.use_cache = false;
  opts.measure = false;  // memory numbers are shape facts, skip the probes
  const auto built = plan::BuildPlan(net, opts);
  return {built.plan.arena.per_plane_bytes, built.plan.arena.total_bytes};
}

void BenchModel(const std::string& name, const proto::NetParameter& param,
                int iters) {
  auto& report = bench::BenchReport::Get();
  std::cout << "=== " << name << " ===\n";

  for (const int threads : {1, 8}) {
    double plain_us = 1e300, planned_us = 1e300;
    for (int rep = 0; rep < kReps; ++rep) {
      plain_us = std::min(plain_us,
                          MeasureIterationUs(param, threads, iters, false));
      planned_us = std::min(planned_us,
                            MeasureIterationUs(param, threads, iters, true));
    }
    const std::string col = std::to_string(threads) + "t";
    report.Add(name, "plain_iteration_us", col, plain_us);
    report.Add(name, "planned_iteration_us", col, planned_us);
    report.Add(name, "planned_speedup", col, plain_us / planned_us);
    std::cout << "  " << threads << " thread(s): plain " << std::fixed
              << std::setprecision(0) << plain_us << " us, planned "
              << planned_us << " us  (" << std::setprecision(2)
              << plain_us / planned_us << "x)\n"
              << std::defaultfloat;
  }

  for (const Phase phase : {Phase::kTrain, Phase::kTest}) {
    const char* pname = phase == Phase::kTrain ? "train" : "test";
    const ArenaNumbers mem = PlanArenaBytes(param, phase, 8);
    const std::string section = name + "." + pname;
    report.Add(section, "activation_kb", "per_blob",
               static_cast<double>(mem.per_blob) / 1024.0);
    report.Add(section, "activation_kb", "arena",
               static_cast<double>(mem.arena) / 1024.0);
    report.Add(section, "activation_saving_pct", "value", mem.saving_pct());
    std::cout << "  " << pname << " activations: " << mem.per_blob / 1024
              << " KB per-blob -> " << mem.arena / 1024 << " KB arena  ("
              << std::fixed << std::setprecision(1) << mem.saving_pct()
              << "% saved)\n" << std::defaultfloat;
  }
  std::cout << "\n";
}

}  // namespace

int main() {
  std::cout << "=== Cost-model execution planner: planned vs plain A/B ===\n\n";

  models::ModelOptions mnist_opts;
  mnist_opts.batch_size = 64;
  mnist_opts.num_samples = 128;
  mnist_opts.with_accuracy = false;
  BenchModel("lenet", models::LeNet(mnist_opts), /*iters=*/5);

  models::ModelOptions cifar_opts;
  cifar_opts.batch_size = 100;
  cifar_opts.num_samples = 128;
  cifar_opts.with_accuracy = false;
  BenchModel("cifar10_quick", models::Cifar10Quick(cifar_opts), /*iters=*/3);

  bench::BenchReport::Get().Write("plan");
  return 0;
}
