// Serving-runtime bench: latency, throughput, and shed behaviour of the
// cgdnn::serve stack, written to BENCH_serve.json (baseline committed
// under bench/baselines/).
//
// Two regimes per evaluation network, both against the calibrated
// sustainable rate so the coordinates transfer across hosts:
//
//  * moderate (0.5x sustainable) — the latency numbers: client p50/p99 of
//    successful calls and admitted (server-side) p50/p99, plus achieved
//    QPS. Shed rate here should be ~0; a rise means admission control is
//    firing where it should not.
//  * overload (3x sustainable)  — the robustness numbers: shed rate (the
//    fraction of submissions explicitly rejected — HIGHER offered load
//    must turn into rejections, not queue growth), admitted p99 (must stay
//    deadline-bounded no matter the pressure), and the mean dynamic batch
//    size (expected to ride at max_batch under saturation).
//
// compare_bench.py direction markers: *_us, shed_rate, shed_frac and
// straggler_frac lower-is-better; *_qps higher-is-better. Gate a change
// with:
//   tools/compare_bench.py bench/baselines/BENCH_serve.json BENCH_serve.json
#include <iomanip>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "cgdnn/core/rng.hpp"
#include "cgdnn/data/dataset.hpp"
#include "cgdnn/parallel/context.hpp"
#include "cgdnn/serve/loadgen.hpp"
#include "cgdnn/serve/server.hpp"

namespace {

using namespace cgdnn;

void BenchRegime(const std::string& model_name,
                 const proto::NetParameter& param, const char* regime,
                 double rate_factor, double duration_s) {
  SeedGlobalRng(1);
  data::ClearDatasetCache();

  serve::ServerOptions sopts;
  sopts.workers = 2;
  sopts.max_batch = 8;
  serve::Server server(param, sopts);
  const double sustainable = server.CalibrateSustainableQps();
  server.Start();

  serve::LoadGenOptions lopts;
  lopts.rate_qps = rate_factor * sustainable;
  lopts.duration_s = duration_s;
  lopts.seed = 1;
  const serve::LoadGenReport rep = serve::RunLoad(server, lopts);
  server.Stop();
  const serve::ServerStats stats = server.stats();
  // Tail attribution from the live-stats window (default 10 s — covers the
  // whole 1.5 s run including the drain): where the p99 went and how
  // concentrated the slow requests were on one worker.
  const serve::StatsSnapshot live = server.live_stats();

  const double shed_rate =
      stats.submitted > 0
          ? static_cast<double>(stats.shed_queue_full + stats.shed_load) /
                static_cast<double>(stats.submitted)
          : 0.0;

  auto& report = bench::BenchReport::Get();
  const std::string section = model_name + "." + regime;
  report.Add(section, "p50_us", "client", rep.p50_us);
  report.Add(section, "p99_us", "client", rep.p99_us);
  report.Add(section, "p50_us", "admitted", rep.server_p50_us);
  report.Add(section, "p99_us", "admitted", rep.server_p99_us);
  report.Add(section, "achieved_qps", "value", rep.achieved_qps);
  report.Add(section, "sustainable_qps", "value", sustainable);
  report.Add(section, "shed_rate", "value", shed_rate);
  report.Add(section, "batch_size_mean", "value", stats.batch_size_mean);
  // Attribution coordinates (lower-is-better in compare_bench.py): a rise
  // in shed_frac/straggler_frac flags an admission or imbalance regression
  // even when the headline percentiles still pass.
  report.Add(section, "shed_frac", "window", live.shed_rate);
  report.Add(section, "straggler_frac", "window", live.straggler_frac);
  report.Add(section, "queue_wait_p99_us", "window", live.queue_wait_p99_us);
  report.Add(section, "compute_p99_us", "window", live.compute_p99_us);

  std::cout << "  " << std::left << std::setw(9) << regime << std::right
            << " (" << std::fixed << std::setprecision(1) << rate_factor
            << "x): " << std::setprecision(0) << rep.achieved_qps << "/"
            << rep.offered_qps << " req/s, client p99 "
            << std::setprecision(1) << rep.p99_us / 1e3
            << " ms, admitted p99 " << rep.server_p99_us / 1e3
            << " ms, shed " << std::setprecision(1) << 100.0 * shed_rate
            << "%, batch " << std::setprecision(2) << stats.batch_size_mean
            << ", p99 " << live.p99_class << "\n" << std::defaultfloat;
}

void BenchModel(const std::string& name, const proto::NetParameter& param) {
  std::cout << "=== " << name << " ===\n";
  BenchRegime(name, param, "moderate", 0.5, 1.5);
  BenchRegime(name, param, "overload", 3.0, 1.5);
  std::cout << "\n";
}

}  // namespace

int main() {
  std::cout << "=== Serving runtime: latency / throughput / shed ===\n\n";

  // Workers parallelize the pool; intra-op threading must stay serial
  // (Server::Start's contract with the privatization arenas).
  parallel::ParallelConfig cfg;
  cfg.mode = parallel::ExecutionMode::kSerial;
  cfg.num_threads = 1;
  parallel::Parallel::Scope scope(cfg);

  models::ModelOptions mnist_opts;
  mnist_opts.batch_size = 8;
  mnist_opts.num_samples = 32;
  mnist_opts.with_accuracy = false;
  BenchModel("lenet", models::LeNet(mnist_opts));

  models::ModelOptions cifar_opts;
  cifar_opts.batch_size = 8;
  cifar_opts.num_samples = 32;
  cifar_opts.with_accuracy = false;
  BenchModel("cifar10_quick", models::Cifar10Quick(cifar_opts));

  bench::BenchReport::Get().Write("serve");
  return 0;
}
