#include "cgdnn/serve/server.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <thread>
#include <vector>

#include "cgdnn/blackbox/blackbox.hpp"
#include "cgdnn/core/thread_annotations.hpp"
#include "cgdnn/parallel/context.hpp"
#include "cgdnn/trace/metrics.hpp"
#include "cgdnn/trace/trace.hpp"

namespace cgdnn::serve {

namespace {

/// CGDNN_SERVE_FAULT_SLOW_WORKER="<ms>" (worker 0) or "<id>:<ms>".
void ParseSlowWorkerFault(int* worker_id, std::uint64_t* ms) {
  *worker_id = -1;
  *ms = 0;
  const char* env = std::getenv("CGDNN_SERVE_FAULT_SLOW_WORKER");
  if (env == nullptr || env[0] == '\0') return;
  const std::string s(env);
  const auto colon = s.find(':');
  if (colon == std::string::npos) {
    *worker_id = 0;
    *ms = std::strtoull(s.c_str(), nullptr, 10);
  } else {
    *worker_id = static_cast<int>(std::strtol(s.c_str(), nullptr, 10));
    *ms = std::strtoull(s.c_str() + colon + 1, nullptr, 10);
  }
}

/// The intra-op configuration a worker or calibration thread runs with: the
/// calling thread's, pinned to one thread when several workers share the
/// host (their concurrent forwards would otherwise oversubscribe it and
/// contend for the thread-id-keyed privatization arenas).
parallel::ParallelConfig WorkerConfig(int workers) {
  parallel::ParallelConfig cfg = parallel::Parallel::Config();
  if (workers > 1) cfg.num_threads = 1;
  return cfg;
}

std::uint64_t DropResponseEveryFromEnv() {
  const char* env = std::getenv("CGDNN_SERVE_FAULT_DROP_RESPONSE");
  if (env == nullptr || env[0] == '\0') return 0;
  return std::strtoull(env, nullptr, 10);
}

}  // namespace

struct Server::Impl {
  // ---- configuration ------------------------------------------------------
  proto::NetParameter model;
  ServerOptions opts;

  // ---- model --------------------------------------------------------------
  std::unique_ptr<InferenceEngine> engine;

  // ---- request path -------------------------------------------------------
  std::unique_ptr<BoundedRequestQueue> queue;
  std::atomic<std::uint64_t> next_id{1};

  // ---- live stats (stats.hpp) ---------------------------------------------
  std::unique_ptr<StatsExporter> stats_exporter;

  // ---- worker pool --------------------------------------------------------
  struct WorkerState {
    std::unique_ptr<InferenceEngine::Worker> model;  // private activations
    std::thread thread;
    /// Heartbeat: MonotonicNowNs at batch start, 0 when idle. The
    /// supervisor's hang detection reads this. Written only under
    /// inflight_mu so it stays paired with `inflight` (failover re-checks
    /// it under the lock to avoid killing a batch the worker already
    /// moved past).
    std::atomic<std::uint64_t> batch_start_ns{0};
    std::atomic<bool> excluded{false};
    /// WorkerLoop returned; Stop() joins only after seeing this (a hung
    /// worker is failed over + detached instead — see Stop()).
    std::atomic<bool> exited{false};
    /// The batch currently being forwarded, visible to the supervisor for
    /// failover when this worker stalls.
    Mutex inflight_mu;
    std::vector<RequestPtr> inflight CGDNN_GUARDED_BY(inflight_mu);
    std::uint64_t fault_slow_ms = 0;  // CGDNN_SERVE_FAULT_SLOW_WORKER
  };
  std::vector<std::unique_ptr<WorkerState>> workers;

  std::thread supervisor;
  std::atomic<bool> supervisor_stop{false};
  std::atomic<bool> started{false};
  std::atomic<bool> stopped{false};

  // ---- degradation ladder -------------------------------------------------
  std::atomic<int> degrade_level{0};

  // ---- fault injection ----------------------------------------------------
  std::uint64_t drop_response_every = 0;
  std::atomic<std::uint64_t> ok_seq{0};

  // ---- per-server stats (see ServerStats) ---------------------------------
  std::atomic<std::uint64_t> submitted{0}, admitted{0}, ok{0},
      shed_queue_full{0}, shed_load{0}, expired{0}, worker_stalled{0},
      errors{0}, dropped_responses{0}, batches{0}, batched_requests{0};
  std::atomic<int> workers_excluded{0};

  // Registry metrics, resolved once (hot-path rule in metrics.hpp).
  trace::Counter* m_ok = nullptr;
  trace::Counter* m_shed_queue_full = nullptr;
  trace::Counter* m_shed_load = nullptr;
  trace::Counter* m_expired = nullptr;
  trace::Counter* m_stalled = nullptr;
  trace::Counter* m_errors = nullptr;
  trace::Histogram* m_batch_size = nullptr;
  trace::Histogram* m_total_us = nullptr;
  trace::Histogram* m_queue_us = nullptr;
  trace::Gauge* m_degrade = nullptr;

  void ResolveMetrics() {
    auto& reg = trace::MetricsRegistry::Default();
    m_ok = &reg.GetCounter("serve.requests.ok");
    m_shed_queue_full = &reg.GetCounter("serve.requests.shed_queue_full");
    m_shed_load = &reg.GetCounter("serve.requests.shed_load");
    m_expired = &reg.GetCounter("serve.requests.expired");
    m_stalled = &reg.GetCounter("serve.requests.worker_stalled");
    m_errors = &reg.GetCounter("serve.requests.errors");
    m_batch_size = &reg.GetHistogram("serve.batch.size");
    m_total_us = &reg.GetHistogram("serve.latency.total_us");
    m_queue_us = &reg.GetHistogram("serve.latency.queue_us");
    m_degrade = &reg.GetGauge("serve.degrade.level");
  }

  /// Books a completed response into stats + metrics. Installed as a
  /// wrapper around every request's `done` callback, so every completion
  /// path — worker, supervisor failover, dequeue expiry, synchronous shed —
  /// is counted exactly once.
  void Count(const Response& r) {
    stats_exporter->RecordCompletion(r);
    // Satellite signals for the currently-invisible outcomes: a trace
    // instant per shed/expired/stalled completion makes overload decisions
    // visible on the timeline next to the request spans they displaced.
    if (trace::TracingActive() && r.status != Status::kOk) {
      const char* name = nullptr;
      switch (r.status) {
        case Status::kOk: break;
        case Status::kShedQueueFull: name = "serve.shed.queue_full"; break;
        case Status::kShedLoad: name = "serve.shed.load"; break;
        case Status::kExpired: name = "serve.expired"; break;
        case Status::kWorkerStalled: name = "serve.worker_stalled"; break;
        case Status::kError: name = "serve.error"; break;
      }
      if (name != nullptr) {
        trace::Tracer::Get().EmitInstant(
            "serve", name, trace::NowNs(),
            {{"trace_id", static_cast<double>(r.trace_id)}});
      }
    }
    switch (r.status) {
      case Status::kOk:
        ok.fetch_add(1, std::memory_order_relaxed);
        m_ok->Add(1);
        m_total_us->Observe(r.total_us);
        m_queue_us->Observe(r.queue_us);
        break;
      case Status::kShedQueueFull:
        shed_queue_full.fetch_add(1, std::memory_order_relaxed);
        m_shed_queue_full->Add(1);
        break;
      case Status::kShedLoad:
        shed_load.fetch_add(1, std::memory_order_relaxed);
        m_shed_load->Add(1);
        break;
      case Status::kExpired:
        expired.fetch_add(1, std::memory_order_relaxed);
        m_expired->Add(1);
        break;
      case Status::kWorkerStalled:
        worker_stalled.fetch_add(1, std::memory_order_relaxed);
        m_stalled->Add(1);
        break;
      case Status::kError:
        errors.fetch_add(1, std::memory_order_relaxed);
        m_errors->Add(1);
        break;
    }
  }

  std::uint64_t EffectiveBatchDeadlineUs() const {
    const std::uint64_t base = opts.batch_deadline_us;
    if (degrade_level.load(std::memory_order_relaxed) >= 1) {
      return static_cast<std::uint64_t>(
          static_cast<double>(base) * opts.degraded_batch_deadline_factor);
    }
    return base;
  }

  void WorkerLoop(int id);
  void SupervisorLoop();
  bool FailOverStalledWorker(int id, std::uint64_t observed_start_ns,
                             std::uint64_t age_ns);
};

Server::Server(const proto::NetParameter& model, const ServerOptions& opts)
    : impl_(std::make_shared<Impl>()) {
  impl_->model = model;
  impl_->opts = opts;
  CGDNN_CHECK_GT(impl_->opts.workers, 0) << "need at least one worker";
  CGDNN_CHECK_GT(impl_->opts.max_batch, 0) << "max_batch must be positive";
  impl_->ResolveMetrics();

  InferenceEngine::Options eopts;
  eopts.max_batch = opts.max_batch;
  eopts.planned = opts.planned;
  impl_->engine = std::make_unique<InferenceEngine>(model, eopts);
  impl_->queue = std::make_unique<BoundedRequestQueue>(opts.queue_capacity);
  impl_->stats_exporter = std::make_unique<StatsExporter>(opts.stats);
}

Server::~Server() { Stop(); }

Net<float>& Server::master_net() { return impl_->engine->master(); }
index_t Server::sample_size() const { return impl_->engine->sample_size(); }
index_t Server::output_size() const { return impl_->engine->output_size(); }
int Server::degrade_level() const {
  return impl_->degrade_level.load(std::memory_order_relaxed);
}

StatsSnapshot Server::live_stats() const {
  return impl_->stats_exporter->Snapshot(MonotonicNowNs());
}

void Server::FlushStats() { impl_->stats_exporter->Finish(); }

double Server::CalibrateSustainableQps(int reps) {
  Impl& impl = *impl_;
  CGDNN_CHECK(!impl.started.load(std::memory_order_acquire))
      << "calibrate before Start(): worker construction is serial-only";
  // One probe replica per worker, exercised CONCURRENTLY: the pool's real
  // capacity on a host with fewer cores (or less memory bandwidth) than
  // workers is the contended aggregate rate, not workers x an uncontended
  // single-worker rate. Replica construction stays serial (Net build and
  // planning are not thread-safe).
  const int workers = impl.opts.workers;
  const index_t max_batch = impl.opts.max_batch;
  // Probes, warmup included, run with the workers' intra-op configuration.
  const parallel::ParallelConfig cfg = WorkerConfig(workers);
  const parallel::Parallel::Scope pinned(cfg);
  std::vector<std::unique_ptr<InferenceEngine::Worker>> probes;
  probes.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    probes.push_back(impl.engine->MakeWorker());
  }
  std::vector<float> zeros(
      static_cast<std::size_t>(impl.engine->sample_size()), 0.0f);
  std::vector<const float*> samples(static_cast<std::size_t>(max_batch),
                                    zeros.data());
  {  // warmup every replica (lazy buffers, cold caches)
    std::vector<std::vector<float>> outputs;
    for (auto& probe : probes) {
      outputs.clear();  // RunBatch appends; don't accumulate across calls
      probe->RunBatch(samples, &outputs);
    }
  }
  const std::uint64_t t0 = MonotonicNowNs();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(workers));
  for (auto& probe : probes) {
    threads.emplace_back([&probe, &samples, reps, cfg] {
      const parallel::Parallel::Scope probe_pinned(cfg);
      std::vector<std::vector<float>> outputs;
      for (int r = 0; r < reps; ++r) {
        // Clear per rep (RunBatch appends): accumulating reps x max_batch
        // vectors would add allocation overhead inside the timed region
        // and deflate the calibrated rate.
        outputs.clear();
        probe->RunBatch(samples, &outputs);
      }
    });
  }
  for (auto& t : threads) t.join();
  double wall_us = static_cast<double>(MonotonicNowNs() - t0) / 1e3;
  if (wall_us <= 0) wall_us = 1;
  return static_cast<double>(workers) * static_cast<double>(reps) *
         static_cast<double>(max_batch) / wall_us * 1e6;
}

void Server::Start() {
  CGDNN_CHECK(!impl_->stopped.load(std::memory_order_acquire))
      << "Server::Start after Stop";
  CGDNN_CHECK(!impl_->started.exchange(true, std::memory_order_acq_rel))
      << "Server::Start called twice";

  int fault_worker = -1;
  std::uint64_t fault_ms = 0;
  ParseSlowWorkerFault(&fault_worker, &fault_ms);
  impl_->drop_response_every = DropResponseEveryFromEnv();

  impl_->stats_exporter->Start();  // snapshot publisher (if paths are set)

  // Worker replicas are built serially: net construction draws from the
  // (non-thread-safe) global RNG, and plan application publishes gauges.
  for (int i = 0; i < impl_->opts.workers; ++i) {
    auto ws = std::make_unique<Impl::WorkerState>();
    ws->model = impl_->engine->MakeWorker();
    if (i == fault_worker) ws->fault_slow_ms = fault_ms;
    impl_->workers.push_back(std::move(ws));
  }
  // Threads launch only after every replica exists, each with the
  // starting thread's intra-op configuration (WorkerConfig).
  const parallel::ParallelConfig cfg = WorkerConfig(impl_->opts.workers);
  for (int i = 0; i < impl_->opts.workers; ++i) {
    auto impl = impl_;  // keep Impl alive in detached (stalled) workers
    impl_->workers[static_cast<std::size_t>(i)]->thread =
        std::thread([impl, i, cfg] {
          const parallel::Parallel::Scope pinned(cfg);
          impl->WorkerLoop(i);
        });
  }
  auto impl = impl_;
  impl_->supervisor = std::thread([impl] { impl->SupervisorLoop(); });
}

void Server::Submit(RequestPtr req) {
  Impl& impl = *impl_;
  impl.submitted.fetch_add(1, std::memory_order_relaxed);

  const std::uint64_t now = MonotonicNowNs();
  req->id = impl.next_id.fetch_add(1, std::memory_order_relaxed);
  req->admit_ns = now;
  if (req->deadline_ns == 0 && impl.opts.default_deadline_ms > 0) {
    req->deadline_ns = now + impl.opts.default_deadline_ms * 1'000'000ull;
  }
  // Wrap the caller's callback so every completion path books stats.
  {
    auto impl_sp = impl_;
    auto orig = std::move(req->done);
    req->done = [impl_sp, orig = std::move(orig)](Response&& r) {
      impl_sp->Count(r);
      if (orig) orig(std::move(r));
    };
  }

  auto reject = [&](Status status) {
    Response r;
    r.status = status;
    r.trace_id = req->id;
    const double us = static_cast<double>(MonotonicNowNs() - now) / 1e3;
    r.complete_us = us;  // never queued: the whole life is the verdict
    r.total_us = us;
    CompleteOnce(req, std::move(r));
  };

  if (req->ExpiredAt(now)) {
    reject(Status::kExpired);
    return;
  }
  // Degradation level 2: shed best-effort traffic before it queues.
  if (req->cls == RequestClass::kBatch &&
      impl.degrade_level.load(std::memory_order_relaxed) >= 2) {
    reject(Status::kShedLoad);
    return;
  }

  switch (impl.queue->Push(req)) {
    case PushResult::kAccepted:
      impl.admitted.fetch_add(1, std::memory_order_relaxed);
      // Trace the admission: a submit-side span enclosing a flow START
      // whose id is the request id. The matching flow end fires inside the
      // worker-side request span, so Perfetto draws the cross-thread
      // queue -> worker arrow (docs/observability.md).
      if (trace::TracingActive()) {
        auto& tracer = trace::Tracer::Get();
        tracer.Emit("serve", "serve.submit", now, MonotonicNowNs());
        tracer.EmitFlow("serve", "serve.req", now, req->id, 's');
      }
      break;
    case PushResult::kFull:
      reject(Status::kShedQueueFull);
      break;
    case PushResult::kClosed:
      reject(Status::kShedLoad);
      break;
  }
}

void Server::Impl::WorkerLoop(int id) {
  WorkerState& ws = *workers[static_cast<std::size_t>(id)];
  std::vector<const float*> samples;
  std::vector<std::vector<float>> outputs;

  while (!ws.excluded.load(std::memory_order_acquire)) {
    std::vector<RequestPtr> batch =
        queue->PopBatch(static_cast<std::size_t>(opts.max_batch),
                        EffectiveBatchDeadlineUs());
    if (batch.empty()) {
      if (queue->closed() && queue->depth() == 0) break;
      continue;  // everything popped had expired
    }

    // Publish the heartbeat + in-flight batch BEFORE any work (including
    // the slow-worker fault) so the supervisor can see a stall and fail
    // the batch over. Both are published under inflight_mu as one unit:
    // failover re-reads batch_start_ns under the lock and aborts if it no
    // longer matches the timestamp that triggered the hang verdict.
    const std::uint64_t batch_start = MonotonicNowNs();
    {
      LockGuard lock(ws.inflight_mu);
      ws.inflight = batch;
      ws.batch_start_ns.store(batch_start, std::memory_order_release);
    }

    if (ws.fault_slow_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(ws.fault_slow_ms));
    }

    samples.clear();
    outputs.clear();
    for (const auto& req : batch) samples.push_back(req->input.data());

    bool forward_ok = true;
    {
      blackbox::ScopedPosition pos(blackbox::EventKind::kSpanBegin,
                                   blackbox::EventKind::kSpanEnd,
                                   "serve.worker.batch", batch.size());
      try {
        ws.model->RunBatch(samples, &outputs);
      } catch (const std::exception&) {
        forward_ok = false;
      }
    }

    const std::uint64_t done_ns = MonotonicNowNs();
    const bool tracing = trace::TracingActive();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const RequestPtr& req = batch[i];
      Response r;
      r.batch_size = static_cast<int>(batch.size());
      r.trace_id = req->id;
      r.worker = id;
      // Stage attribution (request.hpp): the stamps telescope —
      // admit (Submit) -> dequeue (PopBatch) -> dispatch (batch_start,
      // which the fault sleep FOLLOWS so an injected straggler shows up as
      // compute) -> forward done -> completion. queue_us keeps its
      // pre-existing meaning (admit -> dispatch) for older consumers.
      const std::uint64_t complete_ns = MonotonicNowNs();
      r.queue_wait_us =
          static_cast<double>(req->dequeue_ns - req->admit_ns) / 1e3;
      r.batch_form_us =
          static_cast<double>(batch_start - req->dequeue_ns) / 1e3;
      r.compute_us = static_cast<double>(done_ns - batch_start) / 1e3;
      r.complete_us = static_cast<double>(complete_ns - done_ns) / 1e3;
      r.queue_us = static_cast<double>(batch_start - req->admit_ns) / 1e3;
      r.total_us = static_cast<double>(complete_ns - req->admit_ns) / 1e3;
      if (tracing) {
        // Worker-side request span + stage children, and the flow END that
        // binds this span back to the submit-side flow start. The child
        // spans share boundary stamps, so they tile the request span.
        auto& tracer = trace::Tracer::Get();
        tracer.Emit("serve", "serve.request", req->dequeue_ns, complete_ns,
                    {{"trace_id", static_cast<double>(req->id)},
                     {"batch_size", static_cast<double>(batch.size())},
                     {"queue_wait_us", r.queue_wait_us},
                     {"batch_form_us", r.batch_form_us},
                     {"compute_us", r.compute_us},
                     {"complete_us", r.complete_us}});
        tracer.Emit("serve", "serve.stage.queue_wait", req->admit_ns,
                    req->dequeue_ns);
        tracer.Emit("serve", "serve.stage.batch_form", req->dequeue_ns,
                    batch_start);
        tracer.Emit("serve", "serve.stage.compute", batch_start, done_ns);
        tracer.Emit("serve", "serve.stage.complete", done_ns, complete_ns);
        tracer.EmitFlow("serve", "serve.req", req->dequeue_ns, req->id, 'f');
      }
      if (!forward_ok) {
        r.status = Status::kError;
      } else if (req->ExpiredAt(done_ns)) {
        // Deadline enforcement at batch completion: the forward finished
        // too late for this request to be useful.
        r.status = Status::kExpired;
      } else {
        r.status = Status::kOk;
        r.output = std::move(outputs[i]);
        // Fault drill: eat every n-th OK response; clients must cover this
        // with timeouts + retries.
        if (drop_response_every > 0 &&
            ok_seq.fetch_add(1, std::memory_order_relaxed) %
                    drop_response_every == drop_response_every - 1) {
          dropped_responses.fetch_add(1, std::memory_order_relaxed);
          trace::MetricsRegistry::Default()
              .GetCounter("serve.fault.dropped_responses")
              .Add(1);
          continue;
        }
      }
      CompleteOnce(req, std::move(r));
    }

    {
      LockGuard lock(ws.inflight_mu);
      ws.batch_start_ns.store(0, std::memory_order_release);
      ws.inflight.clear();
    }
    batches.fetch_add(1, std::memory_order_relaxed);
    batched_requests.fetch_add(batch.size(), std::memory_order_relaxed);
    m_batch_size->Observe(static_cast<double>(batch.size()));
    stats_exporter->RecordBatch(id, batch.size());
  }
  ws.exited.store(true, std::memory_order_release);
}

bool Server::Impl::FailOverStalledWorker(int id,
                                         std::uint64_t observed_start_ns,
                                         std::uint64_t age_ns) {
  WorkerState& ws = *workers[static_cast<std::size_t>(id)];

  // Re-check the hang verdict under inflight_mu: the caller sampled
  // batch_start_ns WITHOUT the lock, and the worker may have finished that
  // batch (and even started a new one) in between. batch_start_ns only
  // changes under inflight_mu, so a match here proves the stalled batch is
  // still the in-flight one; a mismatch means the worker recovered — abort
  // rather than exclude a healthy worker and fail its NEW batch.
  std::vector<RequestPtr> orphaned;
  {
    LockGuard lock(ws.inflight_mu);
    // Supervisor and Stop() can both reach a hang verdict; excluded is set
    // only under inflight_mu, so this check makes failover single-shot.
    if (ws.excluded.load(std::memory_order_relaxed)) return false;
    if (ws.batch_start_ns.load(std::memory_order_relaxed) !=
        observed_start_ns) {
      return false;
    }
    ws.excluded.store(true, std::memory_order_release);
    orphaned = ws.inflight;
  }
  workers_excluded.fetch_add(1, std::memory_order_relaxed);
  trace::MetricsRegistry::Default()
      .GetCounter("serve.workers.excluded")
      .Add(1);

  // Fail the in-flight batch over BEFORE the (slow, file-writing) blackbox
  // dump: clients have waited >= hang_deadline already. CompleteOnce makes
  // this race-safe against the worker finishing late — whichever side gets
  // there first wins, the other no-ops.
  const std::uint64_t now = MonotonicNowNs();
  for (const auto& req : orphaned) {
    Response r;
    r.status = Status::kWorkerStalled;
    r.trace_id = req->id;
    r.worker = id;
    // Attribution for the failed-over batch: it is stuck in compute — the
    // stamps up to dispatch (observed_start_ns) are real, the rest of its
    // life is the stall itself.
    r.queue_wait_us =
        static_cast<double>(req->dequeue_ns - req->admit_ns) / 1e3;
    r.batch_form_us =
        static_cast<double>(observed_start_ns - req->dequeue_ns) / 1e3;
    r.compute_us = static_cast<double>(now - observed_start_ns) / 1e3;
    r.queue_us = 0;
    r.total_us = static_cast<double>(now - req->admit_ns) / 1e3;
    CompleteOnce(req, std::move(r));
  }

  // Forensics: one blackbox dump captures every thread's ring, including
  // the stalled worker's still-open "serve.worker.batch" position.
  blackbox::Record(blackbox::EventKind::kViolation, "serve.worker.stall",
                   static_cast<std::uint64_t>(id), age_ns);
  blackbox::DumpNow(blackbox::DumpReason::kWatchdog);
  return true;
}

void Server::Impl::SupervisorLoop() {
  const std::uint64_t hang_ns = opts.hang_deadline_ms * 1'000'000ull;
  while (!supervisor_stop.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(opts.supervisor_tick_ms));

    // Degradation ladder: trip on queue fill, release with hysteresis at
    // half the trip watermark so the level does not flap.
    const double fill =
        static_cast<double>(queue->depth()) /
        static_cast<double>(queue->capacity());
    int level = degrade_level.load(std::memory_order_relaxed);
    if (fill >= opts.shed_fill) {
      level = 2;
    } else if (fill >= opts.degrade_fill && level < 1) {
      level = 1;
    }
    if (level == 2 && fill < opts.shed_fill * 0.5) level = 1;
    if (level == 1 && fill < opts.degrade_fill * 0.5) level = 0;
    const int prev =
        degrade_level.exchange(level, std::memory_order_relaxed);
    m_degrade->Set(static_cast<double>(level));
    stats_exporter->SetQueueFill(fill);
    stats_exporter->SetDegradeLevel(level);
    if (level != prev && trace::TracingActive()) {
      // Ladder transitions are rare and load-bearing: mark each one on the
      // supervisor's timeline so a latency cliff can be lined up with the
      // level change that caused (or failed to prevent) it.
      trace::Tracer::Get().EmitInstant(
          "serve", "serve.degrade.level_change", trace::NowNs(),
          {{"level", static_cast<double>(level)},
           {"prev", static_cast<double>(prev)},
           {"queue_fill", fill}});
    }

    // Hang detection: a worker whose current batch is older than the
    // deadline is excluded and its batch failed over.
    if (hang_ns == 0) continue;
    const std::uint64_t now = MonotonicNowNs();
    for (std::size_t i = 0; i < workers.size(); ++i) {
      WorkerState& ws = *workers[i];
      if (ws.excluded.load(std::memory_order_acquire)) continue;
      const std::uint64_t start =
          ws.batch_start_ns.load(std::memory_order_acquire);
      if (start != 0 && now > start && now - start > hang_ns) {
        FailOverStalledWorker(static_cast<int>(i), start, now - start);
      }
    }
  }
}

void Server::Stop() {
  Impl& impl = *impl_;
  if (impl.stopped.exchange(true, std::memory_order_acq_rel)) return;

  // Close first: Push starts rejecting, draining workers stop waiting for
  // batch fill (queue.hpp), and PopBatch returns empty once drained.
  impl.queue->Close();

  // Join workers with a bounded wait: a worker hung inside its forward
  // never returns, and a plain join would block SIGTERM drain forever. The
  // supervisor is still running here and may exclude the worker first;
  // otherwise Stop applies the same hang deadline itself, fails the batch
  // over, and detaches. A detached worker holds a shared_ptr to Impl, so
  // detaching is safe. The deadline is re-based on every sign of progress
  // (new batch started, or batch finished) so a long multi-batch drain is
  // never mistaken for a hang.
  const std::uint64_t hang_ns = impl.opts.hang_deadline_ms * 1'000'000ull;
  for (std::size_t i = 0; i < impl.workers.size(); ++i) {
    Impl::WorkerState& ws = *impl.workers[i];
    if (!ws.thread.joinable()) continue;
    if (hang_ns == 0) {
      // Hang detection disabled: no basis for declaring the worker stuck.
      ws.thread.join();
      continue;
    }
    std::uint64_t idle_ref = MonotonicNowNs();
    std::uint64_t last_start =
        ws.batch_start_ns.load(std::memory_order_acquire);
    while (true) {
      if (ws.exited.load(std::memory_order_acquire)) {
        ws.thread.join();
        break;
      }
      if (ws.excluded.load(std::memory_order_acquire)) {
        // Already failed over (supervisor or a previous pass here); its
        // in-flight batch was completed with kWorkerStalled.
        ws.thread.detach();
        break;
      }
      const std::uint64_t now = MonotonicNowNs();
      const std::uint64_t start =
          ws.batch_start_ns.load(std::memory_order_acquire);
      if (start != last_start) {  // progress: new batch, or went idle
        last_start = start;
        idle_ref = now;
      }
      const std::uint64_t ref = start != 0 ? start : idle_ref;
      if (now > ref && now - ref > hang_ns) {
        if (impl.FailOverStalledWorker(static_cast<int>(i), start,
                                       now - ref)) {
          ws.thread.detach();
          break;
        }
        // The worker made progress between the sample and the lock —
        // re-base and keep waiting.
        idle_ref = MonotonicNowNs();
        continue;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  impl.supervisor_stop.store(true, std::memory_order_release);
  if (impl.supervisor.joinable()) impl.supervisor.join();

  // All-workers-stalled case: requests can still sit in the closed queue.
  // Nothing will forward them — complete, never drop silently.
  while (true) {
    std::vector<RequestPtr> leftover = impl.queue->PopBatch(
        static_cast<std::size_t>(impl.opts.max_batch), 0);
    if (leftover.empty()) break;
    for (const auto& req : leftover) {
      const std::uint64_t now = MonotonicNowNs();
      Response r;
      r.status = Status::kShedLoad;
      r.trace_id = req->id;
      r.queue_wait_us =
          static_cast<double>(req->dequeue_ns - req->admit_ns) / 1e3;
      r.complete_us = static_cast<double>(now - req->dequeue_ns) / 1e3;
      r.total_us = static_cast<double>(now - req->admit_ns) / 1e3;
      CompleteOnce(req, std::move(r));
    }
  }

  // The drained run's final window (including everything completed during
  // the drain above) must land in the snapshot/history files.
  impl.stats_exporter->Finish();
}

ServerStats Server::stats() const {
  const Impl& impl = *impl_;
  ServerStats s;
  s.submitted = impl.submitted.load(std::memory_order_relaxed);
  s.admitted = impl.admitted.load(std::memory_order_relaxed);
  s.ok = impl.ok.load(std::memory_order_relaxed);
  s.shed_queue_full = impl.shed_queue_full.load(std::memory_order_relaxed);
  s.shed_load = impl.shed_load.load(std::memory_order_relaxed);
  s.expired = impl.expired.load(std::memory_order_relaxed);
  s.worker_stalled = impl.worker_stalled.load(std::memory_order_relaxed);
  s.errors = impl.errors.load(std::memory_order_relaxed);
  s.dropped_responses =
      impl.dropped_responses.load(std::memory_order_relaxed);
  s.batches = impl.batches.load(std::memory_order_relaxed);
  const std::uint64_t breq =
      impl.batched_requests.load(std::memory_order_relaxed);
  s.batch_size_mean =
      s.batches > 0 ? static_cast<double>(breq) /
                          static_cast<double>(s.batches)
                    : 0.0;
  s.workers_started = static_cast<int>(impl.workers.size());
  s.workers_excluded = impl.workers_excluded.load(std::memory_order_relaxed);
  s.degrade_level = impl.degrade_level.load(std::memory_order_relaxed);
  s.queue_max_depth = impl.queue->max_depth();
  s.queue_capacity = impl.queue->capacity();
  return s;
}

}  // namespace cgdnn::serve
