// Minimal --key=value flag parsing shared by the command-line tools.
#pragma once

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cgdnn/blackbox/blackbox.hpp"
#include "cgdnn/core/common.hpp"
#include "cgdnn/net/models.hpp"
#include "cgdnn/parallel/context.hpp"
#include "cgdnn/perfctr/perfctr.hpp"
#include "cgdnn/trace/metrics.hpp"
#include "cgdnn/trace/telemetry.hpp"
#include "cgdnn/trace/trace.hpp"

namespace cgdnn::tools {

class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        positional_.push_back(std::move(arg));
        continue;
      }
      arg = arg.substr(2);
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        values_[arg] = "true";
      } else {
        values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      }
    }
  }

  bool Has(const std::string& key) const { return values_.contains(key); }

  std::string GetString(const std::string& key, std::string def = "") const {
    const auto it = values_.find(key);
    return it == values_.end() ? std::move(def) : it->second;
  }

  index_t GetInt(const std::string& key, index_t def) const {
    const auto it = values_.find(key);
    return it == values_.end() ? def : std::stoll(it->second);
  }

  bool GetBool(const std::string& key, bool def = false) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return def;
    return it->second == "true" || it->second == "1";
  }

  const std::vector<std::string>& positional() const { return positional_; }

  /// Required flag; prints usage and exits if absent.
  std::string Require(const std::string& key, const std::string& usage) const {
    if (!Has(key)) {
      std::cerr << "missing --" << key << "\nusage: " << usage << "\n";
      std::exit(2);
    }
    return GetString(key);
  }

  /// Prints usage and exits 2 on any --flag not named in one of `known`
  /// (the tool's own names plus the shared lists below it uses).
  void CheckKnown(std::initializer_list<std::vector<std::string>> known,
                  const std::string& usage) const {
    for (const auto& entry : values_) {
      const std::string& key = entry.first;
      const bool ok =
          std::any_of(known.begin(), known.end(), [&](const auto& names) {
            return std::find(names.begin(), names.end(), key) != names.end();
          });
      if (!ok) {
        std::cerr << "unknown flag --" << key << "\nusage: " << usage << "\n";
        std::exit(2);
      }
    }
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// The flags each shared helper below reads, for Flags::CheckKnown.
inline const std::vector<std::string> kParallelFlags = {"threads", "merge",
                                                        "no-coalesce"};
inline const std::vector<std::string> kBlackboxFlags = {
    "blackbox", "watchdog-sec", "blackbox-dump"};
inline const std::vector<std::string> kObservabilityFlags = {
    "trace-out", "metrics-out", "telemetry-out", "counters"};

/// Applies the common --threads / --merge / --no-coalesce flags to the
/// global parallel configuration.
inline void ConfigureParallel(const Flags& flags) {
  auto& cfg = parallel::Parallel::Config();
  const index_t threads = flags.GetInt("threads", 1);
  cfg.mode = threads > 1 ? parallel::ExecutionMode::kCoarseGrain
                         : parallel::ExecutionMode::kSerial;
  cfg.num_threads = static_cast<int>(threads);
  cfg.merge =
      parallel::GradientMergeFromName(flags.GetString("merge", "ordered"));
  cfg.coalesce = !flags.GetBool("no-coalesce");
}

/// Arms the always-on flight recorder for a tool run: installs the fatal-
/// signal crash handlers (dumping to --blackbox=<path>, default
/// blackbox-<pid>.bin in the CWD) and, with --watchdog-sec=N, starts the
/// hang watchdog with an N-second stall deadline. No-op when the recorder
/// is compiled out or disabled via CGDNN_BLACKBOX=off.
inline void ConfigureBlackbox(const Flags& flags) {
  if (!blackbox::Enabled()) return;
  blackbox::InstallCrashHandlers(flags.GetString("blackbox"));
  const index_t watchdog_sec = flags.GetInt("watchdog-sec", 0);
  if (watchdog_sec > 0) {
    blackbox::WatchdogOptions options;
    options.deadline_ns =
        static_cast<std::uint64_t>(watchdog_sec) * 1'000'000'000ull;
    blackbox::StartWatchdog(options);
  }
}

/// End-of-run counterpart: --blackbox-dump forces a manual flight-recorder
/// dump on clean exit (decoder drills, post-run inspection). Stops the
/// watchdog so it never outlives the workload it monitors.
inline void FinishBlackbox(const Flags& flags) {
  blackbox::StopWatchdog();
  if (flags.GetBool("blackbox-dump") &&
      blackbox::DumpNow(blackbox::DumpReason::kManual)) {
    std::cerr << "blackbox dump written to " << blackbox::DumpPath() << "\n";
  }
}

/// Resolves --model values: the builtin names "lenet" and "cifar10_quick"
/// (alias "cifar10") map to the paper's evaluation networks with synthetic
/// data; anything else is read as a prototxt path.
inline proto::NetParameter ResolveModel(const std::string& model) {
  if (model == "lenet") return models::LeNet();
  if (model == "cifar10_quick" || model == "cifar10") {
    return models::Cifar10Quick();
  }
  return proto::NetParameter::FromFile(model);
}

/// Shared --trace-out / --metrics-out / --telemetry-out plumbing. Construct
/// after flag parsing (arms the tracer / metrics registry for the run) and
/// call Finish() once the workload is done to write the output files.
class Observability {
 public:
  explicit Observability(const Flags& flags)
      : trace_path_(flags.GetString("trace-out")),
        metrics_path_(flags.GetString("metrics-out")),
        telemetry_path_(flags.GetString("telemetry-out")) {
    if (!trace_path_.empty()) {
      trace::Tracer::Get().Clear();
      trace::Tracer::Get().Start();
    }
    if (!metrics_path_.empty()) {
      trace::MetricsRegistry::Default().Reset();
      trace::SetMetrics(true);
    }
    if (!telemetry_path_.empty()) {
      telemetry_ = std::make_unique<trace::TelemetrySink>(telemetry_path_);
    }
    // --counters arms hardware-counter sampling for the run: trace spans
    // carry per-thread counter deltas as args and the metrics registry
    // gains the derived ipc/llc series. Best-effort — an unsupported host
    // (seccomp, perf_event_paranoid, CGDNN_PERFCTR=off) degrades to
    // timing-only with a note, and nothing is opened without this flag.
    if (flags.GetBool("counters")) {
      counters_armed_ = true;
      perfctr::SetActive(true);
      if (!perfctr::CollectionActive()) {
        std::cerr << "note: hardware counters unavailable ("
                  << perfctr::UnavailableReason() << "); continuing without\n";
      }
    }
  }

  /// Exception and early-exit paths must not lose the run's observability
  /// output: Finish() is idempotent and the destructor flushes whatever a
  /// normal exit did not. Callers that hand telemetry() to a solver must
  /// clear that pointer before this runs (destruction closes the sink).
  ~Observability() { Finish(); }

  /// The JSONL sink for solvers, or nullptr when --telemetry-out is absent.
  trace::TelemetrySink* telemetry() { return telemetry_.get(); }

  /// Registers extra flush work to run FIRST in Finish() — once, no matter
  /// how the run ends (normal exit, signal drain, exception unwind via the
  /// destructor). The serving binary hooks its stats exporter here so live
  /// snapshots get their final flush with the same idempotence guarantee
  /// as the trace/metrics files. Callbacks must not throw.
  void OnFinish(std::function<void()> fn) {
    on_finish_.push_back(std::move(fn));
  }

  /// Stops collection and writes the requested files; reports each path on
  /// stderr so benchmark stdout stays machine-readable. Safe to call more
  /// than once — only the first call writes.
  void Finish() {
    if (finished_) return;
    finished_ = true;
    for (const auto& fn : on_finish_) fn();
    if (counters_armed_) perfctr::SetActive(false);
    telemetry_.reset();  // closes the JSONL stream
    if (!trace_path_.empty()) {
      trace::Tracer::Get().Stop();
      std::ofstream out(trace_path_, std::ios::trunc);
      if (out) {
        trace::Tracer::Get().WriteChromeTrace(out);
        std::cerr << "trace written to " << trace_path_ << " ("
                  << trace::Tracer::Get().event_count() << " events, "
                  << trace::Tracer::Get().thread_count() << " thread(s))\n";
      } else {
        std::cerr << "error: cannot write " << trace_path_ << "\n";
      }
    }
    if (!metrics_path_.empty()) {
      trace::SetMetrics(false);
      std::ofstream out(metrics_path_, std::ios::trunc);
      if (out) {
        trace::MetricsRegistry::Default().WriteJson(out);
        std::cerr << "metrics written to " << metrics_path_ << "\n";
      } else {
        std::cerr << "error: cannot write " << metrics_path_ << "\n";
      }
    }
  }

 private:
  std::string trace_path_;
  std::string metrics_path_;
  std::string telemetry_path_;
  std::unique_ptr<trace::TelemetrySink> telemetry_;
  std::vector<std::function<void()>> on_finish_;
  bool counters_armed_ = false;
  bool finished_ = false;
};

}  // namespace cgdnn::tools
