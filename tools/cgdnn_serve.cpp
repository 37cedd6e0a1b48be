// cgdnn_serve — overload-safe inference serving runtime + built-in
// open-loop load generator (ROADMAP item 1, docs/serving.md).
//
//   cgdnn_serve --model=<file|lenet|cifar10_quick>
//               [--workers=N] [--threads=N] [--max-batch=N]
//               [--batch-deadline-us=N] [--queue-capacity=N]
//               [--deadline-ms=N] [--hang-deadline-ms=N] [--no-plan]
//               [--weights=<file>]
//               [--rate=QPS|<F>x] [--duration-s=F] [--trace=poisson|bursty]
//               [--timeout-ms=N] [--retries=N] [--batch-fraction=F]
//               [--seed=N] [--json-out=<file>]
//               [--metrics-out=<file>] [--trace-out=<file>]
//               [--stats-out=<file>] [--stats-exposition=<file>]
//               [--stats-history=<file>] [--stats-period-ms=N]
//               [--stats-window-s=N] [--stats-exemplars=N]
//               [--blackbox=<file>] [--blackbox-dump]
//
// --rate accepts an absolute offered rate in requests/s, or "<F>x" to
// scale a calibrated sustainable-throughput estimate (e.g. --rate=3x is
// the overload drill's 3x-sustainable load). SIGTERM/SIGINT stop the load
// and drain the server gracefully: queued and in-flight requests are
// forwarded (or explicitly completed), then the process exits 0.
// --stats-out publishes a live, atomically-replaced JSON snapshot of the
// sliding-window serving stats every --stats-period-ms (plus an optional
// Prometheus-style exposition and a JSONL history); tools/cgdnn_stats
// tails it while the server runs (docs/observability.md). All
// observability artifacts — trace, metrics, stats — are flushed on signal
// drain and fatal-error paths alike. Fault
// drills are injected via CGDNN_SERVE_FAULT_SLOW_WORKER=<id:ms|ms>,
// CGDNN_SERVE_FAULT_DROP_RESPONSE=<n> and CGDNN_SERVE_FAULT_STALL_QUEUE=<ms>.
#include <atomic>
#include <csignal>
#include <fstream>
#include <iostream>
#include <sstream>

#include "cgdnn/core/rng.hpp"
#include "cgdnn/net/serialization.hpp"
#include "cgdnn/serve/loadgen.hpp"
#include "cgdnn/serve/server.hpp"
#include "flags.hpp"

namespace {

constexpr const char* kUsage =
    "cgdnn_serve --model=<file|lenet|cifar10_quick> [--workers=N] "
    "[--threads=N] [--max-batch=N] [--batch-deadline-us=N] "
    "[--queue-capacity=N] [--deadline-ms=N] [--hang-deadline-ms=N] "
    "[--no-plan] [--weights=<file>] [--rate=QPS|<F>x] [--duration-s=F] "
    "[--trace=poisson|bursty] [--timeout-ms=N] [--retries=N] "
    "[--batch-fraction=F] [--seed=N] [--json-out=<file>] "
    "[--stats-out=<file>] [--stats-exposition=<file>] "
    "[--stats-history=<file>] [--stats-period-ms=N] [--stats-window-s=N]";

std::atomic<bool> g_stop{false};

extern "C" void HandleStopSignal(int) {
  g_stop.store(true, std::memory_order_release);
}

double GetDouble(const cgdnn::tools::Flags& flags, const std::string& key,
                 double def) {
  const std::string s = flags.GetString(key);
  return s.empty() ? def : std::stod(s);
}

void WriteSummaryJson(std::ostream& os, const cgdnn::serve::ServerOptions& so,
                      const cgdnn::serve::LoadGenOptions& lo,
                      const cgdnn::serve::LoadGenReport& r,
                      const cgdnn::serve::ServerStats& s,
                      const cgdnn::serve::StatsSnapshot& live,
                      bool interrupted) {
  os << "{\n"
     << "  \"config\": {\"workers\": " << so.workers
     << ", \"max_batch\": " << so.max_batch
     << ", \"batch_deadline_us\": " << so.batch_deadline_us
     << ", \"queue_capacity\": " << so.queue_capacity
     << ", \"deadline_ms\": " << so.default_deadline_ms
     << ", \"hang_deadline_ms\": " << so.hang_deadline_ms
     << ", \"rate_qps\": " << lo.rate_qps
     << ", \"duration_s\": " << lo.duration_s << ", \"trace\": \"" << lo.trace
     << "\", \"timeout_ms\": " << lo.timeout_ms << "},\n"
     << "  \"load\": {\"calls\": " << r.calls
     << ", \"succeeded\": " << r.succeeded << ", \"failed\": " << r.failed
     << ", \"attempts\": " << r.attempts << ", \"retries\": " << r.retries
     << ", \"shed\": " << r.shed << ", \"expired\": " << r.expired
     << ", \"stalled\": " << r.stalled << ", \"errors\": " << r.errors
     << ", \"timeouts\": " << r.timeouts
     << ", \"late_responses\": " << r.late_responses
     << ", \"p50_us\": " << r.p50_us << ", \"p99_us\": " << r.p99_us
     << ", \"mean_us\": " << r.mean_us << ", \"max_us\": " << r.max_us
     << ", \"server_p50_us\": " << r.server_p50_us
     << ", \"server_p99_us\": " << r.server_p99_us
     << ", \"server_max_us\": " << r.server_max_us
     << ", \"offered_qps\": " << r.offered_qps
     << ", \"achieved_qps\": " << r.achieved_qps
     << ", \"wall_s\": " << r.wall_s << "},\n"
     << "  \"server\": {\"submitted\": " << s.submitted
     << ", \"admitted\": " << s.admitted << ", \"ok\": " << s.ok
     << ", \"shed_queue_full\": " << s.shed_queue_full
     << ", \"shed_load\": " << s.shed_load << ", \"expired\": " << s.expired
     << ", \"worker_stalled\": " << s.worker_stalled
     << ", \"errors\": " << s.errors
     << ", \"dropped_responses\": " << s.dropped_responses
     << ", \"batches\": " << s.batches
     << ", \"batch_size_mean\": " << s.batch_size_mean
     << ", \"workers_started\": " << s.workers_started
     << ", \"workers_excluded\": " << s.workers_excluded
     << ", \"degrade_level\": " << s.degrade_level
     << ", \"queue_max_depth\": " << s.queue_max_depth
     << ", \"queue_capacity\": " << s.queue_capacity
     << ", \"interrupted\": " << (interrupted ? "true" : "false") << "},\n"
     << "  \"stats\": ";
  // The exporter's end-of-run view (same schema as the live snapshot file)
  // so drills can compare windowed percentiles against the exact
  // end-of-run ones above without a second file.
  cgdnn::serve::StatsExporter::WriteSnapshotJson(os, live);
  os << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cgdnn;
  try {
    const tools::Flags flags(argc, argv);
    flags.CheckKnown(
        {{"model", "seed", "workers", "max-batch", "batch-deadline-us",
          "queue-capacity", "deadline-ms", "hang-deadline-ms", "no-plan",
          "weights", "rate", "duration-s", "trace", "timeout-ms", "retries",
          "backoff-base-ms", "backoff-cap-ms", "batch-fraction",
          "request-deadline-ms", "json-out", "stats-out", "stats-exposition",
          "stats-history", "stats-period-ms", "stats-window-s",
          "stats-exemplars"},
         tools::kParallelFlags, tools::kBlackboxFlags,
         tools::kObservabilityFlags},
        kUsage);
    const std::string model = flags.Require("model", kUsage);
    tools::ConfigureParallel(flags);
    tools::ConfigureBlackbox(flags);
    SeedGlobalRng(static_cast<std::uint64_t>(flags.GetInt("seed", 1)));

    serve::ServerOptions sopts;
    sopts.workers = static_cast<int>(flags.GetInt("workers", 2));
    sopts.max_batch = flags.GetInt("max-batch", 8);
    sopts.batch_deadline_us =
        static_cast<std::uint64_t>(flags.GetInt("batch-deadline-us", 2000));
    sopts.queue_capacity =
        static_cast<std::size_t>(flags.GetInt("queue-capacity", 64));
    sopts.default_deadline_ms =
        static_cast<std::uint64_t>(flags.GetInt("deadline-ms", 100));
    sopts.hang_deadline_ms =
        static_cast<std::uint64_t>(flags.GetInt("hang-deadline-ms", 1000));
    sopts.planned = !flags.GetBool("no-plan");
    sopts.stats.snapshot_path = flags.GetString("stats-out");
    sopts.stats.exposition_path = flags.GetString("stats-exposition");
    sopts.stats.history_path = flags.GetString("stats-history");
    sopts.stats.period_ms =
        static_cast<std::uint64_t>(flags.GetInt("stats-period-ms", 250));
    sopts.stats.window_s = static_cast<int>(flags.GetInt("stats-window-s", 10));
    sopts.stats.exemplars =
        static_cast<int>(flags.GetInt("stats-exemplars", 5));

    serve::Server server(tools::ResolveModel(model), sopts);
    const std::string weights = flags.GetString("weights");
    if (!weights.empty()) {
      LoadWeights(server.master_net(), weights);
      std::cerr << "weights loaded from " << weights << "\n";
    }

    // Offered rate: absolute QPS, or a multiple of the calibrated
    // sustainable rate ("3x" = the overload drill).
    serve::LoadGenOptions lopts;
    const std::string rate = flags.GetString("rate", "100");
    if (!rate.empty() && rate.back() == 'x') {
      const double factor = std::stod(rate.substr(0, rate.size() - 1));
      const double sustainable = server.CalibrateSustainableQps();
      lopts.rate_qps = factor * sustainable;
      std::cerr << "calibrated sustainable rate: " << sustainable
                << " req/s; offering " << lopts.rate_qps << " req/s ("
                << factor << "x)\n";
    } else {
      lopts.rate_qps = std::stod(rate);
    }
    lopts.duration_s = GetDouble(flags, "duration-s", 1.0);
    lopts.trace = flags.GetString("trace", "poisson");
    lopts.timeout_ms =
        static_cast<std::uint64_t>(flags.GetInt("timeout-ms", 200));
    lopts.max_retries = static_cast<int>(flags.GetInt("retries", 2));
    lopts.backoff_base_ms = GetDouble(flags, "backoff-base-ms", 5);
    lopts.backoff_cap_ms = GetDouble(flags, "backoff-cap-ms", 80);
    lopts.batch_fraction = GetDouble(flags, "batch-fraction", 0.0);
    lopts.deadline_ms =
        static_cast<std::uint64_t>(flags.GetInt("request-deadline-ms", 0));
    lopts.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
    lopts.cancel = &g_stop;

    std::signal(SIGTERM, HandleStopSignal);
    std::signal(SIGINT, HandleStopSignal);

    tools::Observability obs(flags);
    // Artifact-flush parity: the stats exporter joins trace/metrics under
    // Observability's idempotent Finish, so fatal-error unwinds and signal
    // drains persist the final snapshot too. (`server` outlives `obs` —
    // declared earlier in this scope — so the capture stays valid on every
    // exit path.)
    obs.OnFinish([&server] { server.FlushStats(); });
    server.Start();
    std::cerr << "serving " << model << ": " << sopts.workers
              << " worker(s), max_batch " << sopts.max_batch
              << ", batch deadline " << sopts.batch_deadline_us
              << "us, queue capacity " << sopts.queue_capacity << "\n";

    const serve::LoadGenReport report = serve::RunLoad(server, lopts);
    const bool interrupted = g_stop.load(std::memory_order_acquire);
    if (interrupted) {
      std::cerr << "stop signal received: draining\n";
    }
    server.Stop();  // graceful drain (idempotent; also the SIGTERM path)
    const serve::ServerStats stats = server.stats();
    const serve::StatsSnapshot live = server.live_stats();
    obs.Finish();

    std::ostringstream json;
    WriteSummaryJson(json, sopts, lopts, report, stats, live, interrupted);
    const std::string json_out = flags.GetString("json-out");
    if (!json_out.empty()) {
      std::ofstream out(json_out, std::ios::trunc);
      CGDNN_CHECK(out.good()) << "cannot write " << json_out;
      out << json.str();
      std::cerr << "summary written to " << json_out << "\n";
    }
    std::cout << json.str();
    if (interrupted) std::cerr << "drained cleanly\n";
    tools::FinishBlackbox(flags);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
