// cgdnn_audit — automated scalability / roofline auditor.
//
//   cgdnn_audit --model=<file|lenet|cifar10_quick> [--threads=1,2,4]
//               [--iterations=N] [--warmup=N] [--merge=MODE] [--no-coalesce]
//               [--audit-out=AUDIT_<model>.json] [--no-counters]
//               [--probe-gemm-dim=N] [--probe-triad-elems=N] [--planned]
//               [--blackbox=dump.bin] [--watchdog-sec=N] [--blackbox-dump]
//
// Drives the model across the requested thread counts and distills the
// paper's Figure 5/8 analysis into one machine-readable report: per-layer
// speedup/efficiency curves, load-imbalance attribution (ratio + straggler
// thread id), and — via hardware counters plus measured machine ceilings
// (packed-GEMM and triad probes, src/cgdnn/perfctr/roofline.hpp) — IPC,
// LLC miss rate, achieved vs. attainable GFLOP/s and a per-layer bound
// classification (compute / memory / imbalance).
//
// Counters are best-effort: under CGDNN_PERFCTR=off, perf_event_paranoid
// restrictions or a container seccomp filter the audit still succeeds with
// timing-only output; counter-derived JSON fields are then absent, never
// zeroed. Schema: docs/observability.md; gate a change against a baseline
// with tools/compare_bench.py (exits 1 on >10% efficiency regression).
//
// --planned adds an A/B pass: at every swept thread count the same model is
// re-run under the execution plan's activation arena (src/cgdnn/plan) and
// plain, measured wall-clock on identical fresh nets, and the report gains
// a "planned" section with both times and the planned-over-plain speedup.
//
// --serve audits the serving runtime (src/cgdnn/serve) instead of a layer
// at a time: for each worker count in --serve-workers it calibrates the
// sustainable throughput, offers --serve-rate-factor of it open-loop for
// --serve-duration-s, and the report gains a "serving" section with
// sustainable/offered/achieved QPS, client and admitted (server-side)
// latency percentiles, shed rate, mean dynamic-batch size, and the tail
// attribution (p99_class + straggler_frac from the live-stats window,
// serve/stats.hpp) per worker count — throughput should scale with
// workers at a fixed utilization, and the p99_class says where the tail
// went when it does not.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

#include "cgdnn/core/buildinfo.hpp"
#include "cgdnn/core/rng.hpp"
#include "cgdnn/net/net.hpp"
#include "cgdnn/data/dataset.hpp"
#include "cgdnn/perfctr/perfctr.hpp"
#include "cgdnn/perfctr/roofline.hpp"
#include "cgdnn/plan/planner.hpp"
#include "cgdnn/profile/profiler.hpp"
#include "cgdnn/serve/loadgen.hpp"
#include "cgdnn/serve/server.hpp"
#include "cgdnn/sim/workload.hpp"
#include "cgdnn/trace/metrics.hpp"
#include "flags.hpp"

namespace {

using namespace cgdnn;

constexpr const char* kUsage =
    "cgdnn_audit --model=<file|lenet|cifar10_quick> [--threads=1,2,4] "
    "[--iterations=N] [--warmup=N] [--merge=MODE] [--no-coalesce] "
    "[--audit-out=<file>] [--no-counters] [--probe-gemm-dim=N] "
    "[--probe-triad-elems=N] [--planned] [--serve] [--serve-workers=1,2,4] "
    "[--serve-rate-factor=F] [--serve-duration-s=F] [--serve-max-batch=N] "
    "[--blackbox=<file>] [--watchdog-sec=N] [--blackbox-dump]";

double GetDoubleFlag(const tools::Flags& flags, const std::string& key,
                     double def) {
  const std::string s = flags.GetString(key);
  return s.empty() ? def : std::stod(s);
}

std::vector<int> ParseThreadList(const std::string& spec) {
  std::vector<int> threads;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    const int t = std::stoi(item);
    CGDNN_CHECK_GT(t, 0) << "--threads entries must be positive";
    threads.push_back(t);
  }
  CGDNN_CHECK(!threads.empty()) << "--threads parsed to an empty list";
  std::sort(threads.begin(), threads.end());
  threads.erase(std::unique(threads.begin(), threads.end()), threads.end());
  return threads;
}

/// Everything measured for one (layer, phase) at one thread count.
struct CellMeasurement {
  double time_us = 0;
  std::optional<double> imbalance;
  std::optional<int> straggler_tid;
  std::optional<double> ipc;
  std::optional<double> llc_miss_rate;
};

/// One (layer, phase) row across the whole sweep.
struct AuditRow {
  std::string layer;
  std::string type;
  const char* phase;  // "forward" / "backward"
  double flops = 0;
  double bytes = 0;
  std::map<int, CellMeasurement> by_threads;
};

/// Sum of two registry counters as an IPC-style ratio, preferring the
/// all-thread region counters and falling back to the driver-thread layer
/// counters (full coverage whenever the layer ran serially).
std::optional<double> CounterRatio(const trace::MetricsRegistry& registry,
                                   const std::string& region_prefix,
                                   const std::string& layer_prefix,
                                   const char* num_event,
                                   const char* den_event) {
  for (const std::string& prefix : {region_prefix, layer_prefix}) {
    const auto* num = registry.FindCounter(prefix + "." + num_event);
    const auto* den = registry.FindCounter(prefix + "." + den_event);
    if (num != nullptr && den != nullptr && den->value() > 0) {
      return static_cast<double>(num->value()) /
             static_cast<double>(den->value());
    }
  }
  return std::nullopt;
}

CellMeasurement HarvestCell(const trace::MetricsRegistry& registry,
                            const std::string& layer, const char* phase,
                            double time_us) {
  CellMeasurement cell;
  cell.time_us = time_us;
  const std::string key = layer + "." + phase;
  if (const auto* g = registry.FindGauge("region." + key + ".imbalance_last");
      g != nullptr) {
    cell.imbalance = g->value();
  }
  if (const auto* g = registry.FindGauge("region." + key + ".straggler_tid");
      g != nullptr) {
    cell.straggler_tid = static_cast<int>(g->value());
  }
  cell.ipc = CounterRatio(registry, "region." + key, "layer." + key,
                          "instructions", "cycles");
  cell.llc_miss_rate = CounterRatio(registry, "region." + key, "layer." + key,
                                    "llc_misses", "llc_refs");
  return cell;
}

/// JSON helpers: the report is hand-written like every other exporter in
/// this repo (metrics WriteJson, BenchReport) — flat enough that a printer
/// beats a serialization library.
void WriteJsonNumber(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  os << v;
}

template <typename Fn>
void WriteThreadMap(std::ostream& os, const std::vector<int>& threads,
                    Fn&& value_for) {
  os << "{";
  bool first = true;
  for (const int t : threads) {
    const std::optional<double> v = value_for(t);
    if (!v.has_value()) continue;
    if (!first) os << ", ";
    first = false;
    os << "\"" << t << "\": ";
    WriteJsonNumber(os, *v);
  }
  os << "}";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const tools::Flags flags(argc, argv);
    flags.CheckKnown(
        {{"model", "threads", "iterations", "warmup", "merge", "no-coalesce",
          "audit-out", "no-counters", "probe-gemm-dim", "probe-triad-elems",
          "planned", "serve", "serve-workers", "serve-rate-factor",
          "serve-duration-s", "serve-max-batch"},
         tools::kBlackboxFlags},
        kUsage);
    const std::string model = flags.Require("model", kUsage);
    const std::vector<int> threads =
        ParseThreadList(flags.GetString("threads", "1,2,4"));
    const index_t iterations = flags.GetInt("iterations", 5);
    const index_t warmup = flags.GetInt("warmup", 1);
    CGDNN_CHECK_GT(iterations, 0);
    const std::string merge_name = flags.GetString("merge", "ordered");
    const bool coalesce = !flags.GetBool("no-coalesce");
    const std::string out_path =
        flags.GetString("audit-out", "AUDIT_" + model + ".json");
    tools::ConfigureBlackbox(flags);

    // Counters are the one subsystem this tool arms by default; --no-counters
    // forces the timing-only path (same output shape as an unsupported host).
    if (!flags.GetBool("no-counters")) perfctr::SetActive(true);
    const bool counters = perfctr::CollectionActive();
    if (!counters) {
      std::cerr << "note: hardware counters unavailable ("
                << (flags.GetBool("no-counters")
                        ? "--no-counters"
                        : perfctr::UnavailableReason())
                << "); auditing timing-only\n";
    }

    SeedGlobalRng(1);
    Net<float> net(tools::ResolveModel(model), Phase::kTrain);
    std::cout << "auditing " << net.name() << " over threads={";
    for (std::size_t i = 0; i < threads.size(); ++i) {
      std::cout << (i != 0 ? "," : "") << threads[i];
    }
    std::cout << "} (" << iterations << " iterations, merge=" << merge_name
              << ")\n";

    // Analytic per-layer FLOP/byte counts from the real blob shapes (also
    // runs a few serial iterations, warming every lazily-allocated buffer).
    const std::vector<sim::LayerWork> workload = sim::ExtractWorkload(
        net, /*measure_iters=*/1, /*warmup=*/static_cast<int>(warmup));
    std::map<std::string, const sim::LayerWork*> work_by_name;
    for (const sim::LayerWork& w : workload) work_by_name[w.name] = &w;

    // Measured machine ceilings at every swept concurrency: the roofline
    // each layer is judged against. (GEMM probe ~dim^3 FLOPs per thread,
    // triad sized past the LLC; see roofline.hpp.)
    const index_t probe_dim = flags.GetInt("probe-gemm-dim", 192);
    const index_t probe_triad = flags.GetInt("probe-triad-elems", 1 << 22);
    std::map<int, perfctr::MachinePeak> peaks;
    for (const int t : threads) {
      peaks[t] = perfctr::MeasureMachinePeak(t, probe_dim, probe_triad);
      std::cerr << "machine peak @" << t << "t: " << std::fixed
                << std::setprecision(2) << peaks[t].gflops << " GFLOP/s, "
                << peaks[t].mem_gbps << " GB/s (ridge "
                << peaks[t].RidgeAi() << " FLOP/B)\n"
                << std::defaultfloat;
    }

    // --- thread sweep ------------------------------------------------------
    std::vector<AuditRow> rows;
    std::map<int, double> overall_us;
    auto& registry = trace::MetricsRegistry::Default();
    for (const int t : threads) {
      parallel::ParallelConfig cfg;
      cfg.mode = t > 1 ? parallel::ExecutionMode::kCoarseGrain
                       : parallel::ExecutionMode::kSerial;
      cfg.num_threads = t;
      cfg.merge = parallel::GradientMergeFromName(merge_name);
      cfg.coalesce = coalesce;
      parallel::Parallel::Scope scope(cfg);

      for (index_t i = 0; i < warmup; ++i) {
        net.ClearParamDiffs();
        net.ForwardBackward();
      }
      registry.Reset();
      trace::SetMetrics(true);
      profile::Profiler profiler;
      net.set_profiler(&profiler);
      for (index_t i = 0; i < iterations; ++i) {
        net.ClearParamDiffs();
        net.ForwardBackward();
      }
      net.set_profiler(nullptr);
      trace::SetMetrics(false);

      double total_us = 0;
      for (const std::string& layer : profiler.layer_order()) {
        for (const auto phase :
             {profile::LayerPhase::kForward, profile::LayerPhase::kBackward}) {
          if (!profiler.has(layer, phase)) continue;
          const char* phase_name = profile::LayerPhaseName(phase);
          const double mean_us = profiler.stats(layer, phase).mean_us();
          total_us += mean_us;
          auto row_it = std::find_if(
              rows.begin(), rows.end(), [&](const AuditRow& r) {
                return r.layer == layer && std::string(r.phase) == phase_name;
              });
          if (row_it == rows.end()) {
            AuditRow row;
            row.layer = layer;
            row.phase = phase_name;
            if (const auto wit = work_by_name.find(layer);
                wit != work_by_name.end()) {
              row.type = wit->second->type;
              const sim::PassWork& pass =
                  phase == profile::LayerPhase::kForward
                      ? wit->second->forward
                      : wit->second->backward;
              row.flops = pass.flops;
              row.bytes = pass.bytes;
            }
            rows.push_back(std::move(row));
            row_it = std::prev(rows.end());
          }
          row_it->by_threads[t] =
              HarvestCell(registry, layer, phase_name, mean_us);
        }
      }
      overall_us[t] = total_us;
      std::cout << "  " << std::setw(2) << t << " thread(s): "
                << std::fixed << std::setprecision(0) << total_us
                << " us/iteration\n" << std::defaultfloat;
    }
    trace::SetMetrics(false);

    // --- planned A/B pass --------------------------------------------------
    // Wall-clock on identical fresh nets, plain vs. under the execution
    // plan, so the two numbers share a measurement basis.
    const bool planned_mode = flags.GetBool("planned");
    std::map<int, double> plain_wall_us, planned_wall_us;
    if (planned_mode) {
      const auto measure_wall = [&](Net<float>& n) {
        for (index_t i = 0; i < warmup; ++i) {
          n.ClearParamDiffs();
          n.ForwardBackward();
        }
        const auto t0 = std::chrono::steady_clock::now();
        for (index_t i = 0; i < iterations; ++i) {
          n.ClearParamDiffs();
          n.ForwardBackward();
        }
        const auto t1 = std::chrono::steady_clock::now();
        return std::chrono::duration<double, std::micro>(t1 - t0).count() /
               static_cast<double>(iterations);
      };
      for (const int t : threads) {
        parallel::ParallelConfig cfg;
        cfg.mode = t > 1 ? parallel::ExecutionMode::kCoarseGrain
                         : parallel::ExecutionMode::kSerial;
        cfg.num_threads = t;
        cfg.merge = parallel::GradientMergeFromName(merge_name);
        cfg.coalesce = coalesce;
        parallel::Parallel::Scope scope(cfg);

        SeedGlobalRng(1);
        data::ClearDatasetCache();
        Net<float> plain_net(tools::ResolveModel(model), Phase::kTrain);
        plain_wall_us[t] = measure_wall(plain_net);

        SeedGlobalRng(1);
        data::ClearDatasetCache();
        Net<float> planned_net(tools::ResolveModel(model), Phase::kTrain);
        plan::PlannerOptions popts;
        popts.threads = t;
        plan::PlanAndApply(&planned_net, popts);
        planned_wall_us[t] = measure_wall(planned_net);

        std::cout << "  planned @" << std::setw(2) << t << "t: "
                  << std::fixed << std::setprecision(0) << planned_wall_us[t]
                  << " us vs " << plain_wall_us[t] << " us plain ("
                  << std::setprecision(2)
                  << plain_wall_us[t] / planned_wall_us[t] << "x)\n"
                  << std::defaultfloat;
      }
    }

    // --- serving sweep -----------------------------------------------------
    // Latency/throughput vs worker count at a fixed utilization: each
    // worker count is offered `rate_factor` of ITS OWN calibrated
    // sustainable rate, so achieved QPS tracking offered QPS across the
    // sweep IS the scalability result, and p50/p99 are compared at equal
    // load pressure. Intra-op threading stays serial — the serving pool
    // parallelizes across workers (Server::Start's contract).
    const bool serve_mode = flags.GetBool("serve");
    std::vector<int> serve_workers;
    double serve_factor = 0, serve_duration = 0;
    std::map<int, double> srv_sustainable, srv_offered, srv_achieved,
        srv_p50, srv_p99, srv_admitted_p50, srv_admitted_p99, srv_shed_rate,
        srv_batch_mean, srv_straggler_frac;
    std::map<int, std::string> srv_p99_class;
    if (serve_mode) {
      serve_workers =
          ParseThreadList(flags.GetString("serve-workers", "1,2,4"));
      serve_factor = GetDoubleFlag(flags, "serve-rate-factor", 0.7);
      serve_duration = GetDoubleFlag(flags, "serve-duration-s", 1.0);
      for (const int w : serve_workers) {
        parallel::ParallelConfig cfg;
        cfg.mode = parallel::ExecutionMode::kSerial;
        cfg.num_threads = 1;
        parallel::Parallel::Scope scope(cfg);
        SeedGlobalRng(1);
        data::ClearDatasetCache();

        serve::ServerOptions sopts;
        sopts.workers = w;
        sopts.max_batch = flags.GetInt("serve-max-batch", 8);
        serve::Server server(tools::ResolveModel(model), sopts);
        const double sustainable = server.CalibrateSustainableQps();
        server.Start();

        serve::LoadGenOptions lopts;
        lopts.rate_qps = serve_factor * sustainable;
        lopts.duration_s = serve_duration;
        lopts.seed = 1;
        const serve::LoadGenReport rep = serve::RunLoad(server, lopts);
        server.Stop();
        const serve::ServerStats sstats = server.stats();
        // Tail attribution (stats.hpp): which stage owns this worker
        // count's p99, and how concentrated the slow requests are on one
        // worker. The default 10 s window covers the whole run + drain.
        const serve::StatsSnapshot live = server.live_stats();

        srv_sustainable[w] = sustainable;
        srv_p99_class[w] = live.p99_class;
        srv_straggler_frac[w] = live.straggler_frac;
        srv_offered[w] = rep.offered_qps;
        srv_achieved[w] = rep.achieved_qps;
        srv_p50[w] = rep.p50_us;
        srv_p99[w] = rep.p99_us;
        srv_admitted_p50[w] = rep.server_p50_us;
        srv_admitted_p99[w] = rep.server_p99_us;
        srv_shed_rate[w] =
            sstats.submitted > 0
                ? static_cast<double>(sstats.shed_queue_full +
                                      sstats.shed_load) /
                      static_cast<double>(sstats.submitted)
                : 0.0;
        srv_batch_mean[w] = sstats.batch_size_mean;
        std::cout << "  serve @" << std::setw(2) << w << "w: "
                  << std::fixed << std::setprecision(0) << rep.achieved_qps
                  << "/" << rep.offered_qps << " req/s, p99 "
                  << std::setprecision(1) << rep.p99_us / 1e3
                  << " ms (admitted " << rep.server_p99_us / 1e3
                  << " ms), batch " << std::setprecision(2)
                  << sstats.batch_size_mean << ", p99 " << live.p99_class
                  << "\n" << std::defaultfloat;
      }
    }

    // --- derived curves + report ------------------------------------------
    const int base_t = threads.front();
    const auto speedup_of = [&](double base_us, double t_us) {
      return t_us > 0 ? base_us / t_us : 0.0;
    };
    // Efficiency vs. ideal scaling from the base thread count: with base 1
    // this is the textbook speedup/T.
    const auto efficiency_of = [&](double speedup, int t) {
      return speedup * static_cast<double>(base_t) / static_cast<double>(t);
    };

    std::ofstream out(out_path, std::ios::trunc);
    CGDNN_CHECK(out.good()) << "cannot write " << out_path;
    out << std::setprecision(15);
    out << "{\n";
    out << "  \"meta\": ";
    buildinfo::WriteMetaJson(out);
    out << ",\n";
    out << "  \"audit\": \"" << net.name() << "\",\n";
    out << "  \"model\": \"" << model << "\",\n";
    out << "  \"iterations\": " << iterations << ",\n";
    out << "  \"merge\": \"" << merge_name << "\",\n";
    out << "  \"threads\": [";
    for (std::size_t i = 0; i < threads.size(); ++i) {
      out << (i != 0 ? ", " : "") << threads[i];
    }
    out << "],\n";
    out << "  \"base_threads\": " << base_t << ",\n";
    out << "  \"counters_available\": " << (counters ? "true" : "false")
        << ",\n";
    if (!counters) {
      std::string reason = flags.GetBool("no-counters")
                               ? std::string("--no-counters")
                               : perfctr::UnavailableReason();
      for (char& c : reason) {
        if (c == '"' || c == '\\') c = '\'';
      }
      out << "  \"counters_unavailable_reason\": \"" << reason << "\",\n";
    }
    out << "  \"machine\": {\"peaks\": {";
    {
      bool first = true;
      for (const int t : threads) {
        if (!first) out << ", ";
        first = false;
        out << "\"" << t << "\": {\"gflops\": ";
        WriteJsonNumber(out, peaks[t].gflops);
        out << ", \"mem_gbps\": ";
        WriteJsonNumber(out, peaks[t].mem_gbps);
        out << ", \"ridge_ai\": ";
        WriteJsonNumber(out, peaks[t].RidgeAi());
        out << "}";
      }
    }
    out << "}},\n";
    out << "  \"layers\": [";
    bool first_row = true;
    for (const AuditRow& row : rows) {
      const auto base_it = row.by_threads.find(base_t);
      if (base_it == row.by_threads.end()) continue;
      const double base_us = base_it->second.time_us;
      const auto cell = [&](int t) -> const CellMeasurement* {
        const auto it = row.by_threads.find(t);
        return it == row.by_threads.end() ? nullptr : &it->second;
      };
      if (!first_row) out << ",";
      first_row = false;
      out << "\n    {\"name\": \"" << row.layer << "\", \"phase\": \""
          << row.phase << "\", \"type\": \"" << row.type << "\",\n";
      out << "     \"flops\": ";
      WriteJsonNumber(out, row.flops);
      out << ", \"bytes\": ";
      WriteJsonNumber(out, row.bytes);
      out << ", \"ai\": ";
      WriteJsonNumber(out, row.bytes > 0 ? row.flops / row.bytes : 0.0);
      out << ",\n     \"time_us\": ";
      WriteThreadMap(out, threads, [&](int t) -> std::optional<double> {
        const auto* c = cell(t);
        return c ? std::optional<double>(c->time_us) : std::nullopt;
      });
      out << ",\n     \"speedup\": ";
      WriteThreadMap(out, threads, [&](int t) -> std::optional<double> {
        const auto* c = cell(t);
        return c ? std::optional<double>(speedup_of(base_us, c->time_us))
                 : std::nullopt;
      });
      out << ",\n     \"efficiency\": ";
      WriteThreadMap(out, threads, [&](int t) -> std::optional<double> {
        const auto* c = cell(t);
        return c ? std::optional<double>(
                       efficiency_of(speedup_of(base_us, c->time_us), t))
                 : std::nullopt;
      });
      out << ",\n     \"imbalance\": ";
      WriteThreadMap(out, threads, [&](int t) -> std::optional<double> {
        const auto* c = cell(t);
        return c ? c->imbalance : std::nullopt;
      });
      out << ",\n     \"straggler_tid\": ";
      WriteThreadMap(out, threads, [&](int t) -> std::optional<double> {
        const auto* c = cell(t);
        return c && c->straggler_tid.has_value()
                   ? std::optional<double>(*c->straggler_tid)
                   : std::nullopt;
      });
      if (counters) {
        out << ",\n     \"ipc\": ";
        WriteThreadMap(out, threads, [&](int t) -> std::optional<double> {
          const auto* c = cell(t);
          return c ? c->ipc : std::nullopt;
        });
        out << ",\n     \"llc_miss_rate\": ";
        WriteThreadMap(out, threads, [&](int t) -> std::optional<double> {
          const auto* c = cell(t);
          return c ? c->llc_miss_rate : std::nullopt;
        });
      }
      out << ",\n     \"achieved_gflops\": ";
      WriteThreadMap(out, threads, [&](int t) -> std::optional<double> {
        const auto* c = cell(t);
        if (c == nullptr || row.flops <= 0 || c->time_us <= 0) {
          return std::nullopt;
        }
        return row.flops / (c->time_us * 1e3);
      });
      out << ",\n     \"attainable_gflops\": ";
      WriteThreadMap(out, threads, [&](int t) -> std::optional<double> {
        const auto* c = cell(t);
        if (c == nullptr) return std::nullopt;
        const auto p = perfctr::PlaceOnRoofline(row.flops, row.bytes,
                                                c->time_us, peaks[t]);
        return p.valid ? std::optional<double>(p.attainable_gflops)
                       : std::nullopt;
      });
      out << ",\n     \"roof_efficiency\": ";
      WriteThreadMap(out, threads, [&](int t) -> std::optional<double> {
        const auto* c = cell(t);
        if (c == nullptr) return std::nullopt;
        const auto p = perfctr::PlaceOnRoofline(row.flops, row.bytes,
                                                c->time_us, peaks[t]);
        return p.valid ? std::optional<double>(p.roof_efficiency)
                       : std::nullopt;
      });
      out << ",\n     \"bound\": {";
      {
        bool first = true;
        for (const int t : threads) {
          const auto* c = cell(t);
          if (c == nullptr) continue;
          const auto p = perfctr::PlaceOnRoofline(row.flops, row.bytes,
                                                  c->time_us, peaks[t]);
          if (!first) out << ", ";
          first = false;
          out << "\"" << t << "\": \""
              << perfctr::BoundClassName(perfctr::ClassifyBound(
                     p, c->imbalance.value_or(0.0)))
              << "\"";
        }
      }
      out << "}}";
    }
    out << "\n  ],\n";
    out << "  \"overall\": {\"time_us\": ";
    WriteThreadMap(out, threads, [&](int t) -> std::optional<double> {
      return overall_us.at(t);
    });
    out << ", \"speedup\": ";
    WriteThreadMap(out, threads, [&](int t) -> std::optional<double> {
      return speedup_of(overall_us.at(base_t), overall_us.at(t));
    });
    out << ", \"efficiency\": ";
    WriteThreadMap(out, threads, [&](int t) -> std::optional<double> {
      return efficiency_of(
          speedup_of(overall_us.at(base_t), overall_us.at(t)), t);
    });
    out << "}";
    if (planned_mode) {
      out << ",\n  \"planned\": {\"time_us\": ";
      WriteThreadMap(out, threads, [&](int t) -> std::optional<double> {
        return planned_wall_us.at(t);
      });
      out << ", \"plain_time_us\": ";
      WriteThreadMap(out, threads, [&](int t) -> std::optional<double> {
        return plain_wall_us.at(t);
      });
      out << ", \"speedup_vs_plain\": ";
      WriteThreadMap(out, threads, [&](int t) -> std::optional<double> {
        return planned_wall_us.at(t) > 0
                   ? std::optional<double>(plain_wall_us.at(t) /
                                           planned_wall_us.at(t))
                   : std::nullopt;
      });
      out << "}";
    }
    if (serve_mode) {
      const auto map_of = [&](const std::map<int, double>& m) {
        return [&m](int w) -> std::optional<double> { return m.at(w); };
      };
      out << ",\n  \"serving\": {\"workers\": [";
      for (std::size_t i = 0; i < serve_workers.size(); ++i) {
        out << (i != 0 ? ", " : "") << serve_workers[i];
      }
      out << "], \"rate_factor\": ";
      WriteJsonNumber(out, serve_factor);
      out << ", \"duration_s\": ";
      WriteJsonNumber(out, serve_duration);
      out << ",\n    \"sustainable_qps\": ";
      WriteThreadMap(out, serve_workers, map_of(srv_sustainable));
      out << ", \"offered_qps\": ";
      WriteThreadMap(out, serve_workers, map_of(srv_offered));
      out << ", \"achieved_qps\": ";
      WriteThreadMap(out, serve_workers, map_of(srv_achieved));
      out << ",\n    \"p50_us\": ";
      WriteThreadMap(out, serve_workers, map_of(srv_p50));
      out << ", \"p99_us\": ";
      WriteThreadMap(out, serve_workers, map_of(srv_p99));
      out << ",\n    \"admitted_p50_us\": ";
      WriteThreadMap(out, serve_workers, map_of(srv_admitted_p50));
      out << ", \"admitted_p99_us\": ";
      WriteThreadMap(out, serve_workers, map_of(srv_admitted_p99));
      out << ",\n    \"shed_rate\": ";
      WriteThreadMap(out, serve_workers, map_of(srv_shed_rate));
      out << ", \"batch_size_mean\": ";
      WriteThreadMap(out, serve_workers, map_of(srv_batch_mean));
      // Tail attribution per worker count, mirroring the per-layer
      // roofline "bound" string map: where the p99 went at this scale.
      out << ",\n    \"p99_class\": {";
      {
        bool first = true;
        for (const int w : serve_workers) {
          if (!first) out << ", ";
          first = false;
          out << "\"" << w << "\": \"" << srv_p99_class.at(w) << "\"";
        }
      }
      out << "}, \"straggler_frac\": ";
      WriteThreadMap(out, serve_workers, map_of(srv_straggler_frac));
      out << "}";
    }
    out << "\n}\n";
    out.close();
    CGDNN_CHECK(out.good()) << "error writing " << out_path;
    std::cerr << "audit written to " << out_path << " (" << rows.size()
              << " layer/phase rows, counters "
              << (counters ? "on" : "off") << ")\n";

    // Human-readable summary: the Fig. 5/8 shape at a glance.
    std::cout << std::fixed << std::setprecision(2);
    std::cout << "\noverall speedup vs " << base_t << " thread(s):";
    for (const int t : threads) {
      std::cout << "  " << t << "t="
                << speedup_of(overall_us.at(base_t), overall_us.at(t)) << "x";
    }
    std::cout << "\n";
    tools::FinishBlackbox(flags);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
