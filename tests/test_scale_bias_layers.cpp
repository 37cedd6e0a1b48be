#include "cgdnn/layers/scale_bias_layers.hpp"

#include <gtest/gtest.h>

#include "cgdnn/core/rng.hpp"
#include "cgdnn/parallel/context.hpp"
#include "gradient_checker.hpp"

namespace cgdnn {
namespace {

using testing::FillUniform;
using testing::GradientChecker;

proto::LayerParameter ScaleParam(bool bias = false) {
  proto::LayerParameter p;
  p.name = "scale";
  p.type = "Scale";
  p.scale_param.bias_term = bias;
  p.scale_param.filler.type = "uniform";
  p.scale_param.filler.min = 0.5;
  p.scale_param.filler.max = 1.5;
  p.scale_param.bias_filler.type = "uniform";
  p.scale_param.bias_filler.min = -0.5;
  p.scale_param.bias_filler.max = 0.5;
  return p;
}

proto::LayerParameter BiasParam() {
  proto::LayerParameter p;
  p.name = "bias";
  p.type = "Bias";
  p.bias_param.filler.type = "uniform";
  p.bias_param.filler.min = -0.5;
  p.bias_param.filler.max = 0.5;
  return p;
}

TEST(ScaleLayer, PerChannelMultiply) {
  SeedGlobalRng(1);
  Blob<float> bottom(2, 3, 2, 2);
  FillUniform<float>(&bottom, -1.0f, 1.0f);
  Blob<float> top;
  std::vector<Blob<float>*> bots{&bottom}, tops{&top};
  ScaleLayer<float> layer(ScaleParam());
  layer.SetUp(bots, tops);
  ASSERT_EQ(layer.blobs().size(), 1u);
  EXPECT_EQ(layer.blobs()[0]->shape(), (std::vector<index_t>{3}));
  layer.Forward(bots, tops);
  const float* w = layer.blobs()[0]->cpu_data();
  for (index_t n = 0; n < 2; ++n) {
    for (index_t c = 0; c < 3; ++c) {
      for (index_t h = 0; h < 2; ++h) {
        for (index_t wi = 0; wi < 2; ++wi) {
          EXPECT_FLOAT_EQ(top.data_at(n, c, h, wi),
                          bottom.data_at(n, c, h, wi) * w[c]);
        }
      }
    }
  }
}

TEST(ScaleLayer, WithBiasTerm) {
  SeedGlobalRng(2);
  Blob<float> bottom(1, 2, 1, 2);
  bottom.set_data(1.0f);
  Blob<float> top;
  std::vector<Blob<float>*> bots{&bottom}, tops{&top};
  ScaleLayer<float> layer(ScaleParam(/*bias=*/true));
  layer.SetUp(bots, tops);
  ASSERT_EQ(layer.blobs().size(), 2u);
  layer.Forward(bots, tops);
  const float* w = layer.blobs()[0]->cpu_data();
  const float* b = layer.blobs()[1]->cpu_data();
  EXPECT_FLOAT_EQ(top.data_at(0, 1, 0, 1), w[1] + b[1]);
}

TEST(ScaleLayer, DefaultFillerIsIdentity) {
  SeedGlobalRng(3);
  proto::LayerParameter p;
  p.name = "scale";
  p.type = "Scale";
  Blob<float> bottom(1, 2, 2, 2);
  FillUniform<float>(&bottom, -1.0f, 1.0f);
  Blob<float> top;
  std::vector<Blob<float>*> bots{&bottom}, tops{&top};
  ScaleLayer<float> layer(p);
  layer.SetUp(bots, tops);
  layer.Forward(bots, tops);
  for (index_t i = 0; i < bottom.count(); ++i) {
    EXPECT_FLOAT_EQ(top.cpu_data()[i], bottom.cpu_data()[i]);
  }
}

TEST(ScaleLayerGradient, Exhaustive) {
  SeedGlobalRng(4);
  Blob<double> bottom(2, 3, 2, 2);
  FillUniform<double>(&bottom, -1.0, 1.0);
  Blob<double> top;
  std::vector<Blob<double>*> bots{&bottom}, tops{&top};
  ScaleLayer<double> layer(ScaleParam(/*bias=*/true));
  GradientChecker<double> checker(1e-4, 1e-5);
  checker.CheckGradientExhaustive(layer, bots, tops);
}

TEST(ScaleLayer, ParallelMatchesSerialBitExactly) {
  Blob<float> bottom(4, 5, 3, 3);
  FillUniform<float>(&bottom, -1.0f, 1.0f, 21);
  const auto run = [&](bool parallel_mode, Blob<float>& top,
                       std::vector<float>& dw, std::vector<float>& dx) {
    parallel::ParallelConfig cfg;
    cfg.mode = parallel_mode ? parallel::ExecutionMode::kCoarseGrain
                             : parallel::ExecutionMode::kSerial;
    cfg.num_threads = 3;
    parallel::Parallel::Scope scope(cfg);
    SeedGlobalRng(7);
    ScaleLayer<float> layer(ScaleParam(/*bias=*/true));
    std::vector<Blob<float>*> bots{&bottom}, tops{&top};
    layer.SetUp(bots, tops);
    layer.Forward(bots, tops);
    top.set_diff(0.5f);
    for (auto& blob : layer.blobs()) blob->set_diff(0.0f);
    layer.Backward(tops, {true}, bots);
    dw.assign(layer.blobs()[0]->cpu_diff(),
              layer.blobs()[0]->cpu_diff() + layer.blobs()[0]->count());
    dx.assign(bottom.cpu_diff(), bottom.cpu_diff() + bottom.count());
  };
  Blob<float> top_s, top_p;
  std::vector<float> dw_s, dx_s, dw_p, dx_p;
  run(false, top_s, dw_s, dx_s);
  run(true, top_p, dw_p, dx_p);
  for (index_t i = 0; i < top_s.count(); ++i) {
    ASSERT_EQ(top_s.cpu_data()[i], top_p.cpu_data()[i]);
  }
  EXPECT_EQ(dw_s, dw_p) << "coefficient-partitioned gradient is bit-exact";
  EXPECT_EQ(dx_s, dx_p);
}

TEST(BiasLayer, PerChannelAdd) {
  SeedGlobalRng(5);
  Blob<float> bottom(2, 3, 2, 2);
  FillUniform<float>(&bottom, -1.0f, 1.0f);
  Blob<float> top;
  std::vector<Blob<float>*> bots{&bottom}, tops{&top};
  BiasLayer<float> layer(BiasParam());
  layer.SetUp(bots, tops);
  layer.Forward(bots, tops);
  const float* b = layer.blobs()[0]->cpu_data();
  for (index_t n = 0; n < 2; ++n) {
    for (index_t c = 0; c < 3; ++c) {
      EXPECT_FLOAT_EQ(top.data_at(n, c, 1, 1),
                      bottom.data_at(n, c, 1, 1) + b[c]);
    }
  }
}

TEST(BiasLayerGradient, Exhaustive) {
  SeedGlobalRng(6);
  Blob<double> bottom(2, 3, 2, 2);
  FillUniform<double>(&bottom, -1.0, 1.0);
  Blob<double> top;
  std::vector<Blob<double>*> bots{&bottom}, tops{&top};
  BiasLayer<double> layer(BiasParam());
  GradientChecker<double> checker(1e-4, 1e-5);
  checker.CheckGradientExhaustive(layer, bots, tops);
}

TEST(ScaleLayer, AxisZero) {
  SeedGlobalRng(7);
  auto p = ScaleParam();
  p.scale_param.axis = 0;
  Blob<float> bottom({4, 3});
  bottom.set_data(1.0f);
  Blob<float> top;
  std::vector<Blob<float>*> bots{&bottom}, tops{&top};
  ScaleLayer<float> layer(p);
  layer.SetUp(bots, tops);
  EXPECT_EQ(layer.blobs()[0]->shape(), (std::vector<index_t>{4}));
  layer.Forward(bots, tops);
  const float* w = layer.blobs()[0]->cpu_data();
  EXPECT_FLOAT_EQ(top.cpu_data()[0 * 3 + 2], w[0]);
  EXPECT_FLOAT_EQ(top.cpu_data()[3 * 3 + 1], w[3]);
}

TEST(ScaleLayer, AxisDimChangeRejected) {
  SeedGlobalRng(8);
  Blob<float> bottom(1, 3, 2, 2);
  Blob<float> top;
  std::vector<Blob<float>*> bots{&bottom}, tops{&top};
  ScaleLayer<float> layer(ScaleParam());
  layer.SetUp(bots, tops);
  bottom.Reshape(1, 4, 2, 2);
  EXPECT_THROW(layer.Reshape(bots, tops), Error);
}

}  // namespace
}  // namespace cgdnn
