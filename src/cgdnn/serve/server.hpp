// Server: the serving runtime's control plane (ROADMAP item 1).
//
//   Submit -> [admission control] -> BoundedRequestQueue -> N workers
//                                            ^                  |
//                                   supervisor thread <---------+
//
// Robustness is the spine, enforced in layers:
//
//  * ADMISSION: the queue is bounded, so overload turns into explicit
//    rejections (Status::kShedQueueFull) instead of memory growth; under
//    sustained overload the degradation ladder additionally sheds
//    best-effort (RequestClass::kBatch) traffic at admission
//    (Status::kShedLoad) before it ever queues.
//  * DEADLINES: every request carries an absolute deadline (defaulted at
//    admission). It is enforced at dequeue (expired requests never occupy a
//    batch slot) and again at batch completion.
//  * DEGRADATION LADDER (supervisor-driven, queue-fill based, hysteresis at
//    half the trip watermark):
//      level 0  normal       full batch deadline, everything admitted
//      level 1  degraded     effective batch deadline shrunk — smaller
//                            batches, lower latency, higher per-forward cost
//      level 2  shedding     level 1 + kBatch-class requests rejected
//  * HANG DETECTION: workers publish a batch-start heartbeat; a worker
//    stuck past `hang_deadline_ms` is dumped via the PR-6 blackbox
//    (DumpReason::kWatchdog), EXCLUDED from the pool, and its in-flight
//    batch is failed over with Status::kWorkerStalled. The pool keeps
//    serving degraded — a stuck thread never takes the server down.
//  * FAULT DRILLS: CGDNN_SERVE_FAULT_SLOW_WORKER=<id:ms|ms> stalls a
//    worker before each forward, CGDNN_SERVE_FAULT_DROP_RESPONSE=<n> drops
//    every n-th OK response (client-timeout drill), and
//    CGDNN_SERVE_FAULT_STALL_QUEUE=<ms> contends the queue lock (see
//    queue.hpp). docs/serving.md describes the drills.
//
// Threading contract: Submit is safe from any thread. Response callbacks
// fire exactly once, from a worker, the supervisor, or the submitting
// thread. Because layer-level parallelism dispatches on the process-global
// parallel config and privatization arenas are keyed by OMP thread id,
// intra-op parallelism composes with ONE worker only: Start() rejects
// workers > 1 when the global parallel config asks for multiple threads.
#pragma once

#include <cstdint>
#include <memory>

#include "cgdnn/proto/params.hpp"
#include "cgdnn/serve/engine.hpp"
#include "cgdnn/serve/queue.hpp"
#include "cgdnn/serve/request.hpp"
#include "cgdnn/serve/stats.hpp"

namespace cgdnn::serve {

struct ServerOptions {
  int workers = 2;                       ///< inference worker threads
  index_t max_batch = 8;                 ///< dynamic-batch ceiling
  std::uint64_t batch_deadline_us = 2000;  ///< max coalescing wait
  std::size_t queue_capacity = 64;       ///< bounded queue size
  /// Deadline stamped on requests that arrive without one. 0 = none.
  std::uint64_t default_deadline_ms = 50;

  // Planner (activation arenas) at the serving batch sizes.
  bool planned = true;
  bool plan_cache = true;  ///< unread; goes with the next benchmark change

  // Degradation ladder: queue-fill watermarks in [0,1].
  double degrade_fill = 0.5;  ///< level 1 trip point
  double shed_fill = 0.8;     ///< level 2 trip point
  /// Effective batch deadline multiplier at level >= 1.
  double degraded_batch_deadline_factor = 0.25;
  std::uint64_t supervisor_tick_ms = 2;

  /// Worker stuck in one batch longer than this is dumped + excluded.
  /// 0 disables hang detection.
  std::uint64_t hang_deadline_ms = 1000;

  /// Live stats exporter (stats.hpp): sliding-window aggregation always
  /// runs; the snapshot/exposition/history files are published only when
  /// their paths are set.
  StatsOptions stats;
};

/// Monotonic counters + pool state, snapshot at any time. All counts are
/// per-server (NOT the process-global metrics registry, which accumulates
/// across servers in one process).
struct ServerStats {
  std::uint64_t submitted = 0;      ///< Submit calls
  std::uint64_t admitted = 0;       ///< made it into the queue
  std::uint64_t ok = 0;
  std::uint64_t shed_queue_full = 0;
  std::uint64_t shed_load = 0;
  std::uint64_t expired = 0;        ///< at dequeue or completion
  std::uint64_t worker_stalled = 0; ///< failed over from a stuck worker
  std::uint64_t errors = 0;
  std::uint64_t dropped_responses = 0;  ///< fault-injected drops
  std::uint64_t batches = 0;        ///< coalesced batches forwarded
  double batch_size_mean = 0;
  int workers_started = 0;
  int workers_excluded = 0;
  int degrade_level = 0;
  std::size_t queue_max_depth = 0;
  std::size_t queue_capacity = 0;
};

class Server {
 public:
  /// `model` is a training/eval prototxt (Data layer + loss); the server
  /// derives the deploy form (see engine.hpp).
  Server(const proto::NetParameter& model, const ServerOptions& opts);
  ~Server();  ///< Stop()s if still running

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Builds the engine + per-worker replicas (serial, slow) and launches
  /// the worker pool and supervisor. Call once.
  void Start();

  /// Admission control + enqueue. The request's `done` callback is
  /// guaranteed to fire exactly once eventually (possibly synchronously,
  /// with a shed/expired status) — except for responses eaten by the
  /// DROP_RESPONSE fault drill.
  void Submit(RequestPtr req);

  /// Graceful shutdown: closes the queue, lets workers drain every queued
  /// request (forwarding, not discarding), joins them, and completes
  /// anything left (all-workers-stalled case) with Status::kShedLoad.
  /// The join is BOUNDED when hang detection is enabled: a worker stuck in
  /// one forward past `hang_deadline_ms` during shutdown is failed over
  /// (batch completed with kWorkerStalled) and detached, so SIGTERM drain
  /// cannot block forever on a hung thread. Idempotent; also invoked by
  /// the destructor and typically by a SIGTERM handler in the serving
  /// binary.
  void Stop();

  ServerStats stats() const;
  int degrade_level() const;

  /// The live sliding-window view (stats.hpp): windowed qps/percentiles,
  /// tail classification, exemplars. Valid any time after construction.
  StatsSnapshot live_stats() const;
  /// Flushes the stats exporter (final snapshot write; idempotent). Stop()
  /// does this too — this entry point exists for fatal-error/signal paths
  /// that must persist observability output without a full drain
  /// (Observability::Finish parity, tools/flags.hpp).
  void FlushStats();

  /// Measures the pool's sustainable throughput (requests/s): one probe
  /// replica per worker runs `reps` forwards at max_batch CONCURRENTLY and
  /// the contended aggregate rate is returned — on a host with fewer cores
  /// than workers this is far below workers x the uncontended rate, and it
  /// is the honest capacity. The overload drill derives its "3x
  /// sustainable" offered rate from this. Call BEFORE Start().
  double CalibrateSustainableQps(int reps = 3);

  /// The shared weight owner — LoadWeights here before Start() to serve
  /// trained weights.
  Net<float>& master_net();
  index_t sample_size() const;
  index_t output_size() const;

 private:
  struct Impl;
  std::shared_ptr<Impl> impl_;  ///< shared with worker threads: a detached
                                ///< (stalled) worker must never outlive its
                                ///< engine state
};

}  // namespace cgdnn::serve
