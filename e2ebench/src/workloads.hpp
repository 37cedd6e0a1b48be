// The benchmark's workloads. Each writes one raw-data JSON document (the
// samples, spans and checks of its run) that run.py turns into metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cgdnn/net/net.hpp"
#include "util.hpp"

namespace e2e {

struct RunOptions {
  std::string model;          ///< "lenet" | "cifar10_quick"
  std::uint64_t seed = 1;
  double seconds = 10;        ///< measured time of the run
  int threads = 1;            ///< T: the host's usable cores
  bool trace = false;         ///< traced run: spans + per-layer data
  int setups = 3;             ///< set-ups timed per run (median is reported)

  // Serving only.
  double rate_rps = 0;        ///< fixed absolute mean arrival rate
  double limit_ms = 0;        ///< per-request latency limit (its deadline)
  BurstShape burst;
  int workers = 2;
  int max_batch = 8;
};

/// Training: LeNet / cifar10_quick with the models' SGD hyper-parameters.
void RunTrain(const RunOptions& opts, JsonOut& out);
/// Serving: open-loop single-sample requests into serve::Server.
void RunServe(const RunOptions& opts, JsonOut& out);
/// Self-test of the open-loop sender against a stalled consumer; returns
/// the number of failed checks.
int RunSelfTest();

// ---- shared by both workloads ---------------------------------------------

/// Process-wide parallel configuration: ordered merge at `threads`.
void SetThreads(int threads);

/// Layer table (names, types, blob shapes, backward flags) for FLOP counts.
void WriteLayers(const cgdnn::Net<float>& net, JsonOut& out, const char* key);

/// Span name ids of a layer-by-layer pass: the two passes, and each layer's
/// forward and backward call.
struct LayerSpanNames {
  std::uint32_t forward = 0, backward = 0;
  std::vector<std::uint32_t> fwd, bwd;
  std::vector<std::vector<bool>> bottom_need_backward;
};
LayerSpanNames InternLayerSpans(const cgdnn::Net<float>& net, SpanLog& log);

/// Forward (and, when `backward`, backward) driven layer by layer from the
/// net's public wiring, one span per layer call; returns the loss.
float DriveLayerByLayer(cgdnn::Net<float>& net, const LayerSpanNames& names,
                        SpanLog& log, std::int64_t id, bool backward);

/// Direct blas::gemm / im2col calls on the im2col shapes of the net's conv2
/// and conv3 (those it has), for about `seconds` in total.
void ProbeBlas(const cgdnn::Net<float>& net, double seconds, JsonOut& out,
               const char* key);

}  // namespace e2e
