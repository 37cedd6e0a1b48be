// Layer-level helpers shared by the training and serving workloads.
#include <algorithm>
#include <random>

#include "cgdnn/blas/blas.hpp"
#include "cgdnn/blas/im2col.hpp"
#include "cgdnn/parallel/context.hpp"
#include "workloads.hpp"

namespace e2e {

using cgdnn::Blob;
using cgdnn::index_t;
using cgdnn::Net;

void SetThreads(int threads) {
  auto& cfg = cgdnn::parallel::Parallel::Config();
  cfg.mode = cgdnn::parallel::ExecutionMode::kCoarseGrain;
  cfg.merge = cgdnn::parallel::GradientMerge::kOrdered;
  cfg.coalesce = true;
  cfg.num_threads = threads;
}

namespace {

void WriteShapes(const std::vector<Blob<float>*>& blobs, JsonOut& out,
                 const char* key) {
  out.BeginArray(key);
  for (const Blob<float>* b : blobs) {
    out.BeginArray();
    for (const index_t d : b->shape()) out.Num(static_cast<double>(d));
    out.EndArray();
  }
  out.EndArray();
}

// The backward-need flag of each bottom, as Net::Backward passes it: a
// bottom gets a gradient when the blob feeding it needs one.
std::vector<bool> BottomNeedBackward(const Net<float>& net, std::size_t li) {
  std::vector<bool> need;
  for (const std::size_t id : net.bottom_id_vecs()[li]) {
    need.push_back(id < net.blob_need_backward().size() &&
                   net.blob_need_backward()[id]);
  }
  return need;
}

}  // namespace

void WriteLayers(const Net<float>& net, JsonOut& out, const char* key) {
  out.BeginArray(key);
  for (std::size_t li = 0; li < net.layers().size(); ++li) {
    const auto& layer = net.layers()[li];
    out.BeginObject();
    out.Str("name", net.layer_names()[li]);
    out.Str("type", layer->type());
    WriteShapes(net.bottom_vecs()[li], out, "bottoms");
    WriteShapes(net.top_vecs()[li], out, "tops");
    std::vector<Blob<float>*> params;
    for (const auto& p : layer->blobs()) params.push_back(p.get());
    WriteShapes(params, out, "params");
    out.Bool("need_backward", net.layer_need_backward()[li]);
    out.BeginArray("bottom_need_backward");
    for (const bool b : BottomNeedBackward(net, li)) {
      out.Bool(nullptr, b);
    }
    out.EndArray();
    out.EndObject();
  }
  out.EndArray();
}

LayerSpanNames InternLayerSpans(const Net<float>& net, SpanLog& log) {
  LayerSpanNames names;
  names.forward = log.Intern("lbl.forward");
  names.backward = log.Intern("lbl.backward");
  for (std::size_t li = 0; li < net.layers().size(); ++li) {
    const std::string& n = net.layer_names()[li];
    names.fwd.push_back(log.Intern("layer." + n + ".fwd"));
    names.bwd.push_back(log.Intern("layer." + n + ".bwd"));
    names.bottom_need_backward.push_back(BottomNeedBackward(net, li));
  }
  return names;
}

float DriveLayerByLayer(Net<float>& net, const LayerSpanNames& names,
                        SpanLog& log, std::int64_t id, bool backward) {
  const auto& layers = net.layers();
  float loss = 0;
  {
    ScopedSpan fwd(log, names.forward, id);
    for (std::size_t li = 0; li < layers.size(); ++li) {
      if (net.layer_forward_skip(li)) continue;
      ScopedSpan s(log, names.fwd[li], id);
      loss += layers[li]->Forward(net.bottom_vecs()[li], net.top_vecs()[li]);
    }
  }
  if (!backward) return loss;
  ScopedSpan bwd(log, names.backward, id);
  for (std::size_t li = layers.size(); li-- > 0;) {
    if (!net.layer_need_backward()[li]) continue;
    ScopedSpan s(log, names.bwd[li], id);
    layers[li]->Backward(net.top_vecs()[li], names.bottom_need_backward[li],
                         net.bottom_vecs()[li]);
  }
  return loss;
}

namespace {

// Median per-call time (us) of `fn`, timed in chunks long enough for the
// clock to resolve, for about `seconds`.
template <typename Fn>
double MedianCallUs(double seconds, Fn&& fn) {
  fn();  // first call pays for packing scratch and page faults
  const std::uint64_t t0 = NowNs();
  fn();
  const double one_us = std::max(1e-3, MsBetween(t0, NowNs()) * 1e3);
  const int reps = std::max(1, static_cast<int>(200.0 / one_us));
  std::vector<double> per_call;
  const std::uint64_t end = NowNs() + static_cast<std::uint64_t>(seconds * 1e9);
  while (NowNs() < end || per_call.size() < 5) {
    const std::uint64_t s = NowNs();
    for (int r = 0; r < reps; ++r) fn();
    per_call.push_back(MsBetween(s, NowNs()) * 1e3 / reps);
  }
  std::nth_element(per_call.begin(), per_call.begin() + per_call.size() / 2,
                   per_call.end());
  return per_call[per_call.size() / 2];
}

}  // namespace

void ProbeBlas(const Net<float>& net, double seconds, JsonOut& out,
               const char* key) {
  using cgdnn::blas::Transpose;
  std::vector<std::size_t> convs;
  for (const char* name : {"conv2", "conv3"}) {
    if (net.has_layer(name)) {
      for (std::size_t li = 0; li < net.layers().size(); ++li) {
        if (net.layer_names()[li] == name) convs.push_back(li);
      }
    }
  }
  const double per_kernel = seconds / std::max<double>(1, 4.0 * convs.size());
  std::mt19937 rng(7);
  std::uniform_real_distribution<float> dist(-1.f, 1.f);
  auto random = [&](index_t n) {
    std::vector<float> v(static_cast<std::size_t>(n));
    for (float& x : v) x = dist(rng);
    return v;
  };

  out.BeginArray(key);
  for (const std::size_t li : convs) {
    const auto& cp = net.layers()[li]->layer_param().convolution_param;
    const Blob<float>& bottom = *net.bottom_vecs()[li][0];
    const Blob<float>& top = *net.top_vecs()[li][0];
    const index_t ch = bottom.channels(), h = bottom.height(),
                  w = bottom.width();
    const index_t m = cp.num_output;                 // output channels
    const index_t n = top.height() * top.width();    // output pixels
    const index_t k = ch / cp.group * cp.kernel_h * cp.kernel_w;
    const std::vector<float> im = random(ch * h * w);
    const std::vector<float> weights = random(m * k);
    const std::vector<float> top_diff = random(m * n);
    std::vector<float> col = random(k * n);
    std::vector<float> out_buf(static_cast<std::size_t>(std::max(m * n, k * n)));
    std::vector<float> dw(static_cast<std::size_t>(m * k), 0.f);

    const double im2col_us = MedianCallUs(per_kernel, [&] {
      cgdnn::blas::im2col(im.data(), ch, h, w, cp.kernel_h, cp.kernel_w,
                          cp.pad_h, cp.pad_w, cp.stride_h, cp.stride_w,
                          cp.dilation, cp.dilation, col.data());
    });
    const double fwd_us = MedianCallUs(per_kernel, [&] {
      cgdnn::blas::gemm(Transpose::kNo, Transpose::kNo, m, n, k, 1.f,
                        weights.data(), col.data(), 0.f, out_buf.data());
    });
    const double bwd_w_us = MedianCallUs(per_kernel, [&] {
      cgdnn::blas::gemm(Transpose::kNo, Transpose::kTrans, m, k, n, 1.f,
                        top_diff.data(), col.data(), 1.f, dw.data());
    });
    const double bwd_d_us = MedianCallUs(per_kernel, [&] {
      cgdnn::blas::gemm(Transpose::kTrans, Transpose::kNo, k, n, m, 1.f,
                        weights.data(), top_diff.data(), 0.f, out_buf.data());
    });

    out.BeginObject();
    out.Str("layer", net.layer_names()[li]);
    out.Num("m", static_cast<double>(m));
    out.Num("n", static_cast<double>(n));
    out.Num("k", static_cast<double>(k));
    // im2col reads the image and writes the column matrix.
    out.Num("im2col_bytes", static_cast<double>((ch * h * w + k * n) * 4));
    out.Num("im2col_us", im2col_us);
    out.Num("fwd_us", fwd_us);
    out.Num("bwd_w_us", bwd_w_us);
    out.Num("bwd_d_us", bwd_d_us);
    out.EndObject();
  }
  out.EndArray();
}

}  // namespace e2e
