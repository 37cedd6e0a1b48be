// Serving workload: single cifar10_quick samples sent open loop into
// serve::Server (workers, intra-op serial, dynamic batching, planner on).
//
// Arrivals follow a seeded bursty schedule at a fixed absolute mean rate;
// nothing is calibrated against the server, so two commits are offered the
// same load. Every request carries the same latency limit as its deadline,
// and latency is timed from when the request was due, not when it was sent.
// A seeded subset of OK outputs is checked bit for bit against a batch-1
// forward of the same deploy net. Forward times come from the server's own
// compute stage, measured inside the window.
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <thread>

#include "cgdnn/data/dataset.hpp"
#include "cgdnn/layers/data_layers.hpp"
#include "cgdnn/net/models.hpp"
#include "cgdnn/plan/planner.hpp"
#include "cgdnn/serve/engine.hpp"
#include "cgdnn/serve/server.hpp"
#include "workloads.hpp"

namespace e2e {

using cgdnn::Net;
using cgdnn::Phase;
using cgdnn::index_t;
namespace serve = cgdnn::serve;

namespace {

// About one OK output in this many is bit-checked.
constexpr std::uint64_t kCheckEvery = 64;

struct Record {
  std::uint64_t done_ns = 0;
  serve::Status status = serve::Status::kError;
  double total_us = 0, queue_wait_us = 0, batch_form_us = 0, compute_us = 0,
         complete_us = 0;
  int batch_size = 0;
  int worker = -1;
  std::vector<float> output;  // kept for the bit-checked subset only
};

struct Geometry {
  index_t channels = 0, height = 0, width = 0;
  index_t size() const { return channels * height * width; }
};

Geometry InputGeometry(const cgdnn::proto::NetParameter& model) {
  Net<float> probe(model, Phase::kTest);
  const auto& data = *probe.blob_by_name("data");
  return {data.channels(), data.height(), data.width()};
}

/// A deploy net at `batch` that reads the server's weights.
struct DeployNet {
  std::unique_ptr<Net<float>> net;
  cgdnn::MemoryDataLayer<float>* input = nullptr;

  DeployNet(const cgdnn::proto::NetParameter& model, const Geometry& g,
            index_t batch, const Net<float>& weights)
      : net(std::make_unique<Net<float>>(
            serve::MakeDeployParam(model, batch, g.channels, g.height,
                                   g.width),
            Phase::kTest)) {
    net->ShareTrainedLayersWith(weights);
    for (const auto& layer : net->layers()) {
      input = dynamic_cast<cgdnn::MemoryDataLayer<float>*>(layer.get());
      if (input != nullptr) break;
    }
  }
  const float* Forward(const float* samples, index_t n) {
    input->Reset(samples, nullptr, n);
    net->Forward();
    return net->blob_by_name("prob")->cpu_data();
  }
};

/// SplitMix64 finalizer: picks the seeded subset of requests to bit-check.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Waits (polling) until `count` reaches `target` or `timeout_s` passes.
bool WaitFor(const std::atomic<std::size_t>& count, std::size_t target,
             double timeout_s) {
  const std::uint64_t end =
      NowNs() + static_cast<std::uint64_t>(timeout_s * 1e9);
  while (count.load(std::memory_order_acquire) < target) {
    if (NowNs() > end) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

/// Submits `n` requests at once and waits for all of them.
void Burst(serve::Server& server, const std::vector<float>& sample,
           std::size_t n) {
  // Shared with the callbacks: one may still run if the wait times out.
  auto done = std::make_shared<std::atomic<std::size_t>>(0);
  for (std::size_t i = 0; i < n; ++i) {
    auto req = std::make_shared<serve::Request>();
    req->input = sample;
    req->done = [done](serve::Response&&) {
      done->fetch_add(1, std::memory_order_release);
    };
    server.Submit(std::move(req));
  }
  WaitFor(*done, n, 30.0);
}

}  // namespace

void RunServe(const RunOptions& opts, JsonOut& out) {
  cgdnn::models::ModelOptions mo;
  mo.data_seed = opts.seed;
  const cgdnn::proto::NetParameter model = cgdnn::models::Cifar10Quick(mo);
  const Geometry geo = InputGeometry(model);

  serve::ServerOptions so;
  so.workers = opts.workers;
  so.max_batch = opts.max_batch;
  so.planned = true;
  so.plan_cache = false;  // every set-up plans; no files outside the run

  // Request inputs: a seeded pool of samples.
  constexpr std::size_t kPool = 256;
  std::vector<std::vector<float>> pool(kPool);
  {
    std::mt19937_64 rng(opts.seed);
    std::uniform_real_distribution<float> pixel(0.f, 1.f);
    for (auto& s : pool) {
      s.resize(static_cast<std::size_t>(geo.size()));
      for (float& x : s) x = pixel(rng);
    }
  }
  // The offered window: whole load periods within 80% of the run.
  const double window_s =
      std::floor(0.8 * opts.seconds / opts.burst.period_s) * opts.burst.period_s;
  const std::vector<std::uint64_t> offsets =
      BurstyOffsetsNs(opts.seed, opts.rate_rps, window_s, opts.burst);
  // Declared before the server: its callbacks write here until Stop().
  std::vector<Record> recs(offsets.size());
  std::vector<std::uint64_t> sent_ns;
  std::atomic<std::size_t> completed{0};

  // Intra-op serial before the server plans and starts: concurrent workers
  // need one intra-op thread each.
  SetThreads(1);

  std::vector<double> setup_s, build_ms, first_ms;
  std::unique_ptr<serve::Server> server;
  for (int k = 0; k < opts.setups; ++k) {
    server.reset();
    cgdnn::data::ClearDatasetCache();
    const std::uint64_t t0 = NowNs();
    server = std::make_unique<serve::Server>(model, so);
    server->Start();
    const std::uint64_t t1 = NowNs();
    Burst(*server, pool[0], 1);
    const std::uint64_t t2 = NowNs();
    Burst(*server, pool[1], static_cast<std::size_t>(2 * opts.max_batch));
    const std::uint64_t t3 = NowNs();
    build_ms.push_back(MsBetween(t0, t1));
    first_ms.push_back(MsBetween(t1, t2));
    setup_s.push_back(MsBetween(t0, t3) * 1e-3);
  }
  const serve::ServerStats before = server->stats();

  // The measured window: one thread sends on schedule; workers answer.
  const std::uint64_t limit_ns =
      static_cast<std::uint64_t>(opts.limit_ms * 1e6);
  const std::uint64_t start = NowNs() + 2'000'000;
  RunOpenLoop(start, offsets, &sent_ns, [&](std::size_t i, std::uint64_t due) {
    auto req = std::make_shared<serve::Request>();
    req->deadline_ns = due + limit_ns;
    req->input = pool[i % kPool];
    const bool keep = Mix(opts.seed ^ i) % kCheckEvery == 0;
    req->done = [&recs, &completed, i, keep](serve::Response&& r) {
      Record& rec = recs[i];
      rec.done_ns = NowNs();
      rec.status = r.status;
      rec.total_us = r.total_us;
      rec.queue_wait_us = r.queue_wait_us;
      rec.batch_form_us = r.batch_form_us;
      rec.compute_us = r.compute_us;
      rec.complete_us = r.complete_us;
      rec.batch_size = r.batch_size;
      rec.worker = r.worker;
      if (keep) rec.output = std::move(r.output);
      completed.fetch_add(1, std::memory_order_release);
    };
    server->Submit(std::move(req));
  });
  WaitFor(completed, offsets.size(), 4 * opts.limit_ms * 1e-3 + 2.0);
  server->Stop();  // answers anything still queued; every callback has run
  WaitFor(completed, offsets.size(), 5.0);
  const serve::ServerStats after = server->stats();

  // Bit-check the subset against a batch-1 forward of the deploy net.
  DeployNet one(model, geo, 1, server->master_net());
  std::size_t checked = 0, mismatched = 0;
  const std::size_t odim = static_cast<std::size_t>(server->output_size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    if (recs[i].status != serve::Status::kOk || recs[i].output.empty()) {
      continue;
    }
    const float* prob = one.Forward(pool[i % kPool].data(), 1);
    ++checked;
    if (recs[i].output.size() != odim ||
        std::memcmp(prob, recs[i].output.data(), odim * sizeof(float)) != 0) {
      ++mismatched;
    }
  }

  std::size_t not_ok = 0;
  for (const Record& r : recs) not_ok += r.status == serve::Status::kOk ? 0 : 1;

  out.Num("limit_ms", opts.limit_ms);
  out.Num("window_s", window_s);
  out.Num("workers", opts.workers);
  out.Num("max_batch", opts.max_batch);
  out.Nums("setup_s", setup_s);
  out.Nums("setup_build_ms", build_ms);
  out.Nums("setup_first_iter_ms", first_ms);
  out.BeginObject("requests");
  {
    std::vector<double> due_ms, sent_ms, done_ms, status, total, qw, bf, cu,
        cp, bs, wk;
    for (std::size_t i = 0; i < recs.size(); ++i) {
      const Record& r = recs[i];
      const std::uint64_t due = start + offsets[i];
      due_ms.push_back(static_cast<double>(offsets[i]) * 1e-6);
      sent_ms.push_back(MsBetween(due, sent_ns[i]));
      // A request never answered is reported at +inf (null).
      done_ms.push_back(r.done_ns == 0
                            ? std::numeric_limits<double>::infinity()
                            : MsBetween(due, r.done_ns));
      status.push_back(static_cast<double>(r.status));
      total.push_back(r.total_us);
      qw.push_back(r.queue_wait_us);
      bf.push_back(r.batch_form_us);
      cu.push_back(r.compute_us);
      cp.push_back(r.complete_us);
      bs.push_back(r.batch_size);
      wk.push_back(r.worker);
    }
    out.Nums("due_ms", due_ms);
    out.Nums("lag_ms", sent_ms);
    out.Nums("latency_ms", done_ms);
    out.Nums("status", status);
    out.Nums("total_us", total);
    out.Nums("queue_wait_us", qw);
    out.Nums("batch_form_us", bf);
    out.Nums("compute_us", cu);
    out.Nums("complete_us", cp);
    out.Nums("batch_size", bs);
    out.Nums("worker", wk);
  }
  out.EndObject();
  out.BeginObject("server");
  out.Num("submitted", static_cast<double>(after.submitted - before.submitted));
  out.Num("admitted", static_cast<double>(after.admitted - before.admitted));
  out.Num("ok", static_cast<double>(after.ok - before.ok));
  out.Num("shed", static_cast<double>(after.shed_queue_full + after.shed_load -
                                      before.shed_queue_full -
                                      before.shed_load));
  out.Num("expired", static_cast<double>(after.expired - before.expired));
  out.Num("batches", static_cast<double>(after.batches - before.batches));
  out.Num("queue_max_depth", static_cast<double>(after.queue_max_depth));
  out.EndObject();
  out.BeginObject("check");
  out.Num("checked", static_cast<double>(checked));
  out.Num("mismatched", static_cast<double>(mismatched));
  out.EndObject();

  if (opts.trace) {
    // Planner cost on each bucket's deploy net, cache off (as configured).
    std::vector<double> plan_ms;
    double arena_bytes = 0;
    for (int rep = 0; rep < 3; ++rep) {
      double sum_ms = 0;
      arena_bytes = 0;
      for (index_t b = 1;; b = std::min<index_t>(2 * b, opts.max_batch)) {
        const Net<float> net(serve::MakeDeployParam(model, b, geo.channels,
                                                    geo.height, geo.width),
                             Phase::kTest);
        cgdnn::plan::PlannerOptions po;
        po.threads = 1;
        po.use_cache = false;
        po.measure = false;
        const std::uint64_t t0 = NowNs();
        const auto built = cgdnn::plan::BuildPlan(net, po);
        sum_ms += MsBetween(t0, NowNs());
        arena_bytes += static_cast<double>(built.plan.arena.total_bytes);
        if (b == opts.max_batch) break;
      }
      plan_ms.push_back(sum_ms);
    }
    out.Nums("plan_build_ms", plan_ms);
    out.Num("plan_arena_bytes", arena_bytes);

    // Spans: each request from submit to callback, its stages rebuilt from
    // the Response durations (which telescope to its total).
    SpanLog log;
    const auto n_req = log.Intern("request");
    const std::uint32_t n_stage[4] = {
        log.Intern("serve.queue_wait"), log.Intern("serve.batch_form"),
        log.Intern("serve.compute"), log.Intern("serve.complete")};
    for (std::size_t i = 0; i < recs.size(); ++i) {
      const Record& r = recs[i];
      if (r.done_ns == 0) continue;
      const auto id = static_cast<std::int64_t>(i);
      const auto root = static_cast<std::int32_t>(
          log.Add(n_req, -1, id, sent_ns[i], r.done_ns));
      const double stages[4] = {r.queue_wait_us, r.batch_form_us,
                                r.compute_us, r.complete_us};
      auto t = static_cast<double>(r.done_ns) - r.total_us * 1e3;  // admit
      for (int s = 0; s < 4; ++s) {
        if (stages[s] <= 0) continue;
        const double e = t + stages[s] * 1e3;
        log.Add(n_stage[s], root, id, static_cast<std::uint64_t>(t),
                static_cast<std::uint64_t>(e));
        t = e;
      }
    }

    // The deploy net at max_batch, layer by layer (traced) interleaved with
    // Net::Forward (untraced), at the server's one intra-op thread.
    DeployNet big(model, geo, opts.max_batch, server->master_net());
    std::vector<float> batch_in;
    for (int k = 0; k < opts.max_batch; ++k) {
      const auto& sample = pool[static_cast<std::size_t>(k)];
      batch_in.insert(batch_in.end(), sample.begin(), sample.end());
    }
    const LayerSpanNames names = InternLayerSpans(*big.net, log);
    const auto n_iter = log.Intern("deploy_forward");
    const auto n_fwd = log.Intern("net.forward");
    const std::uint64_t end =
        NowNs() + static_cast<std::uint64_t>(0.1 * opts.seconds * 1e9);
    for (std::int64_t i = 0; NowNs() < end || i < 10; ++i) {
      ScopedSpan it(log, n_iter, i);
      big.input->Reset(batch_in.data(), nullptr, opts.max_batch);
      DriveLayerByLayer(*big.net, names, log, i, false);
      big.input->Reset(batch_in.data(), nullptr, opts.max_batch);
      ScopedSpan s(log, n_fwd, i);
      big.net->Forward();
    }
    WriteLayers(*big.net, out, "layers");
    log.Write(out, "spans");
    ProbeBlas(*big.net, 0.1 * opts.seconds, out, "blas");
  }

  out.Num("attempted", static_cast<double>(recs.size() + checked));
  out.Num("failed", static_cast<double>(not_ok + mismatched));
}

}  // namespace e2e
