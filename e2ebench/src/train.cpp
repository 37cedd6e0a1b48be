// Training workloads: LeNet (batch 64) and cifar10_quick (batch 100) with
// the models' SGD hyper-parameters, ordered gradient merge, unplanned nets.
//
// Timed run: rounds of Solver::Step(1) at T threads, test_net()->Forward()
// at T, and Step(1) of a second solver at one thread from the same seed;
// then a replay at T threads. The replay must reproduce the first run's
// losses and weights bit for bit (the ordered merge makes training
// deterministic at a given thread count); the T=1 losses must match to
// re-association rounding over the first iterations; every loss is finite.
//
// Traced run: three nets share one set of weights and read the same batch
// sequence. Each iteration drives net B layer by layer (one span per layer
// call), runs Net::Forward/Backward on net C, checks B's loss and parameter
// diffs equal C's bit for bit, then Step(1)s the solver that owns the
// weights (its loss must equal C's too).
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>

#include "cgdnn/data/dataset.hpp"
#include "cgdnn/net/models.hpp"
#include "cgdnn/solvers/solver.hpp"
#include "workloads.hpp"

namespace e2e {

using cgdnn::Net;
using cgdnn::Phase;
using cgdnn::Solver;

namespace {

constexpr int kDigestEvery = 4;
// T=1 and T losses agree to re-association rounding only: the ordered merge
// fixes the summation order per thread count, not across thread counts.
constexpr double kLossTolerance = 1e-4;
constexpr std::size_t kToleranceSteps = 16;
constexpr cgdnn::index_t kReplaySteps = 16;
constexpr double kRoundSeconds = 1.0;

cgdnn::proto::SolverParameter SolverParam(const RunOptions& opts) {
  cgdnn::models::ModelOptions mo;
  mo.data_seed = opts.seed;
  cgdnn::proto::SolverParameter p = opts.model == "lenet"
                                        ? cgdnn::models::LeNetSolver(mo)
                                        : cgdnn::models::Cifar10QuickSolver(mo);
  p.random_seed = opts.seed;
  p.test_iter = 1;      // builds the test net; evaluation is timed apart,
  p.test_interval = 0;  // never inside Step
  p.display = 0;
  p.snapshot = 0;
  return p;
}

struct SetUp {
  std::unique_ptr<Solver<float>> solver;
  double build_ms = 0;       // solver + nets + synthetic data
  double first_iter_ms = 0;  // first Step(1): lazy pools and pack arenas
  double total_s = 0;        // + one warm-up evaluation forward
};

SetUp TimedSetUp(const cgdnn::proto::SolverParameter& param) {
  cgdnn::data::ClearDatasetCache();  // every set-up synthesizes its data
  SetUp s;
  const std::uint64_t t0 = NowNs();
  s.solver = cgdnn::CreateSolver<float>(param);
  const std::uint64_t t1 = NowNs();
  s.solver->Step(1);
  const std::uint64_t t2 = NowNs();
  s.solver->test_net()->Forward();
  const std::uint64_t t3 = NowNs();
  s.build_ms = MsBetween(t0, t1);
  s.first_iter_ms = MsBetween(t1, t2);
  s.total_s = MsBetween(t0, t3) * 1e-3;
  return s;
}

bool SameBits(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// FNV-1a over the bytes of every learnable parameter: the training state.
std::uint64_t WeightsDigest(const Net<float>& net) {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto* p : net.learnable_params()) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(p->cpu_data());
    const auto n = static_cast<std::size_t>(p->count()) * sizeof(float);
    for (std::size_t i = 0; i < n; ++i) {
      h = (h ^ bytes[i]) * 1099511628211ull;
    }
  }
  return h;
}

std::unique_ptr<Solver<float>> SetUpRepeatedly(
    const RunOptions& opts, const cgdnn::proto::SolverParameter& param,
    JsonOut& out) {
  std::vector<double> total_s, build_ms, first_iter_ms;
  std::unique_ptr<Solver<float>> solver;
  for (int k = 0; k < opts.setups; ++k) {
    solver.reset();
    SetUp s = TimedSetUp(param);
    total_s.push_back(s.total_s);
    build_ms.push_back(s.build_ms);
    first_iter_ms.push_back(s.first_iter_ms);
    solver = std::move(s.solver);
  }
  out.Nums("setup_s", total_s);
  out.Nums("setup_build_ms", build_ms);
  out.Nums("setup_first_iter_ms", first_iter_ms);
  return solver;
}

// Runs Step(1) until `seconds` pass (at least once, and never beyond
// iteration `iters`), appending each call's time; when `digests` is given,
// records the weights digest after every kDigestEvery-th iteration, outside
// the timed call.
void TimedSteps(Solver<float>& solver, double seconds, cgdnn::index_t iters,
                std::vector<double>* ms, std::vector<std::uint64_t>* digests) {
  const std::uint64_t end = NowNs() + static_cast<std::uint64_t>(seconds * 1e9);
  do {
    if (solver.iter() >= iters) return;
    const std::uint64_t t0 = NowNs();
    solver.Step(1);
    ms->push_back(MsBetween(t0, NowNs()));
    if (digests != nullptr && solver.iter() % kDigestEvery == 0) {
      digests->push_back(WeightsDigest(solver.net()));
    }
  } while (NowNs() < end);
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return s;
}

void TimedRun(const RunOptions& opts,
              const cgdnn::proto::SolverParameter& param, JsonOut& out) {
  constexpr cgdnn::index_t kNoLimit = std::numeric_limits<cgdnn::index_t>::max();
  SetThreads(opts.threads);
  auto a = SetUpRepeatedly(opts, param, out);
  const double batch = static_cast<double>(a->net().blobs().front()->num());
  SetThreads(1);
  auto b = cgdnn::CreateSolver<float>(param);  // same seed, one thread
  b->Step(1);  // the warm-up step every set-up takes

  // Rounds of about a second, each a slice of every measurement, so slow
  // and fast stretches of a shared host fall on all metrics alike.
  std::vector<double> step_ms, eval_ms, step_1t_ms;
  std::vector<std::uint64_t> digests_t;
  std::size_t eval_nonfinite = 0;
  const std::uint64_t end =
      NowNs() + static_cast<std::uint64_t>(opts.seconds * 1e9);
  while (NowNs() < end) {
    SetThreads(opts.threads);
    TimedSteps(*a, 0.6 * kRoundSeconds, kNoLimit, &step_ms, &digests_t);
    const std::uint64_t eval_end =
        NowNs() + static_cast<std::uint64_t>(0.1 * kRoundSeconds * 1e9);
    do {
      const std::uint64_t t0 = NowNs();
      if (!std::isfinite(a->test_net()->Forward())) ++eval_nonfinite;
      eval_ms.push_back(MsBetween(t0, NowNs()));
    } while (NowNs() < eval_end);
    SetThreads(1);
    TimedSteps(*b, 0.3 * kRoundSeconds, a->iter(), &step_1t_ms, nullptr);
  }

  // The same seed at T threads again: the ordered merge must reproduce the
  // first run's losses and weights bit for bit.
  SetThreads(opts.threads);
  auto r = cgdnn::CreateSolver<float>(param);
  r->Step(1);
  std::vector<double> replay_ms;
  std::vector<std::uint64_t> digests_replay;
  while (r->iter() < std::min<cgdnn::index_t>(kReplaySteps, a->iter())) {
    TimedSteps(*r, 0, kNoLimit, &replay_ms, &digests_replay);
  }

  const auto& la = a->loss_history();
  const auto& lb = b->loss_history();
  const auto& lr = r->loss_history();
  std::size_t replay_mismatched = 0, nonfinite = 0, beyond_tol = 0;
  for (std::size_t i = 0; i < lr.size(); ++i) {
    if (!SameBits(la[i], lr[i])) ++replay_mismatched;
  }
  for (std::size_t i = 0; i < digests_replay.size(); ++i) {
    if (digests_replay[i] != digests_t[i]) ++replay_mismatched;
  }
  // T=1 against T: equal up to re-association rounding, over the first
  // iterations only (training amplifies rounding differences later on).
  const std::size_t compared =
      std::min<std::size_t>(lb.size(), kToleranceSteps);
  double max_rel_dev = 0;
  for (std::size_t i = 0; i < compared; ++i) {
    const double dev = std::abs(static_cast<double>(la[i]) - lb[i]) /
                       std::max(std::abs(static_cast<double>(la[i])), 1e-3);
    max_rel_dev = std::max(max_rel_dev, dev);
    if (!(dev <= kLossTolerance)) ++beyond_tol;
  }
  for (const auto* hist : {&la, &lb, &lr}) {
    for (const float l : *hist) nonfinite += std::isfinite(l) ? 0 : 1;
  }

  out.Num("batch", batch);
  out.Nums("step_ms", step_ms);
  out.Num("window_s", Sum(step_ms) * 1e-3);
  out.Nums("eval_ms", eval_ms);
  out.Nums("step_1t_ms", step_1t_ms);
  out.BeginObject("trajectory");
  out.Num("replayed", static_cast<double>(lr.size()));
  out.Num("replay_mismatched", static_cast<double>(replay_mismatched));
  out.Num("compared_1t", static_cast<double>(compared));
  out.Num("beyond_tolerance_1t", static_cast<double>(beyond_tol));
  out.Num("max_rel_dev_1t", max_rel_dev);
  out.Num("nonfinite", static_cast<double>(nonfinite + eval_nonfinite));
  out.EndObject();
  std::vector<double> losses(la.begin(), la.end());
  out.Nums("loss", losses);
  out.Num("attempted", static_cast<double>(step_ms.size() + eval_ms.size() +
                                           step_1t_ms.size() + lr.size()));
  out.Num("failed", static_cast<double>(replay_mismatched + beyond_tol +
                                        nonfinite + eval_nonfinite));
}

// Counts parameters of B whose diff differs from C's in any bit.
std::size_t DiffMismatches(const Net<float>& b, const Net<float>& c) {
  std::size_t bad = 0;
  const auto& pb = b.learnable_params();
  const auto& pc = c.learnable_params();
  for (std::size_t i = 0; i < pb.size(); ++i) {
    if (std::memcmp(pb[i]->cpu_diff(), pc[i]->cpu_diff(),
                    static_cast<std::size_t>(pb[i]->count()) * sizeof(float)) !=
        0) {
      ++bad;
    }
  }
  return bad;
}

void TracedRun(const RunOptions& opts,
               const cgdnn::proto::SolverParameter& param, JsonOut& out) {
  SetThreads(opts.threads);
  auto a = SetUpRepeatedly(opts, param, out);
  Net<float>& net_a = a->net();
  Net<float> b(param.net_param, Phase::kTrain);
  Net<float> c(param.net_param, Phase::kTrain);
  b.ShareTrainedLayersWith(net_a);
  c.ShareTrainedLayersWith(net_a);
  // The solver's set-up consumed one training batch; line B and C up.
  b.Forward();
  c.Forward();

  SpanLog log;
  const LayerSpanNames names = InternLayerSpans(b, log);
  const auto n_iter = log.Intern("iteration");
  const auto n_iter_1t = log.Intern("iteration_1t");
  const auto n_clear_b = log.Intern("lbl.clear");
  const auto n_clear = log.Intern("net.clear");
  const auto n_fwd = log.Intern("net.forward");
  const auto n_bwd = log.Intern("net.backward");
  const auto n_fb = log.Intern("net.forward_backward");
  const auto n_check = log.Intern("check");
  const auto n_step = log.Intern("solver.step");

  std::size_t checks = 0, failed = 0;
  const std::uint64_t end =
      NowNs() + static_cast<std::uint64_t>(0.5 * opts.seconds * 1e9);
  for (std::int64_t i = 0; NowNs() < end || i < 10; ++i) {
    ScopedSpan it(log, n_iter, i);
    {
      ScopedSpan s(log, n_clear_b, i);
      b.ClearParamDiffs();
    }
    const float loss_b = DriveLayerByLayer(b, names, log, i, true);
    {
      ScopedSpan s(log, n_clear, i);
      c.ClearParamDiffs();
    }
    float loss_c = 0;
    if (i == 0) {
      // The reference call itself, once; later iterations time its halves.
      ScopedSpan s(log, n_fb, i);
      loss_c = c.ForwardBackward();
    } else {
      {
        ScopedSpan s(log, n_fwd, i);
        loss_c = c.Forward();
      }
      ScopedSpan s(log, n_bwd, i);
      c.Backward();
    }
    {
      ScopedSpan s(log, n_check, i);
      ++checks;
      if (!SameBits(loss_b, loss_c) || DiffMismatches(b, c) != 0 ||
          !std::isfinite(loss_c)) {
        ++failed;
      }
    }
    {
      ScopedSpan s(log, n_step, i);
      a->Step(1);
    }
    ++checks;
    if (!SameBits(a->loss_history().back(), loss_c)) ++failed;
  }

  // The same layer calls at one thread, for per-layer speedups.
  SetThreads(1);
  const std::uint64_t end1 =
      NowNs() + static_cast<std::uint64_t>(0.3 * opts.seconds * 1e9);
  std::size_t passes_1t = 0;
  for (std::int64_t i = 0; NowNs() < end1 || i < 3; ++i) {
    ScopedSpan it(log, n_iter_1t, i);
    b.ClearParamDiffs();
    DriveLayerByLayer(b, names, log, i, true);
    ++passes_1t;
  }

  out.Num("batch", static_cast<double>(net_a.blobs().front()->num()));
  WriteLayers(b, out, "layers");
  log.Write(out, "spans");
  ProbeBlas(b, 0.15 * opts.seconds, out, "blas");
  out.Num("attempted", static_cast<double>(checks + passes_1t));
  out.Num("failed", static_cast<double>(failed));
}

}  // namespace

void RunTrain(const RunOptions& opts, JsonOut& out) {
  const auto param = SolverParam(opts);
  if (opts.trace) {
    TracedRun(opts, param, out);
  } else {
    TimedRun(opts, param, out);
  }
}

}  // namespace e2e
