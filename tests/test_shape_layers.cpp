#include "cgdnn/layers/shape_layers.hpp"

#include <gtest/gtest.h>

#include "cgdnn/core/rng.hpp"
#include "cgdnn/net/net.hpp"
#include "cgdnn/parallel/context.hpp"
#include "gradient_checker.hpp"

namespace cgdnn {
namespace {

using testing::FillUniform;
using testing::GradientChecker;

proto::LayerParameter Param(const std::string& type) {
  proto::LayerParameter p;
  p.name = "shape";
  p.type = type;
  return p;
}

// ------------------------------------------------------------------- Slice

TEST(SliceLayer, EqualSlicesAlongChannels) {
  Blob<float> bottom(2, 4, 2, 2);
  FillUniform<float>(&bottom, -1.0f, 1.0f);
  Blob<float> top0, top1;
  std::vector<Blob<float>*> bots{&bottom}, tops{&top0, &top1};
  SliceLayer<float> layer(Param("Slice"));
  layer.SetUp(bots, tops);
  EXPECT_EQ(top0.shape(), (std::vector<index_t>{2, 2, 2, 2}));
  EXPECT_EQ(top1.shape(), (std::vector<index_t>{2, 2, 2, 2}));
  layer.Forward(bots, tops);
  for (index_t n = 0; n < 2; ++n) {
    for (index_t c = 0; c < 2; ++c) {
      for (index_t h = 0; h < 2; ++h) {
        for (index_t w = 0; w < 2; ++w) {
          EXPECT_EQ(top0.data_at(n, c, h, w), bottom.data_at(n, c, h, w));
          EXPECT_EQ(top1.data_at(n, c, h, w), bottom.data_at(n, c + 2, h, w));
        }
      }
    }
  }
}

TEST(SliceLayer, ExplicitSlicePoints) {
  auto p = Param("Slice");
  p.slice_param.slice_point = {1, 4};
  Blob<float> bottom(1, 6, 1, 1);
  for (index_t i = 0; i < 6; ++i) {
    bottom.mutable_cpu_data()[i] = static_cast<float>(i);
  }
  Blob<float> a, b, c;
  std::vector<Blob<float>*> bots{&bottom}, tops{&a, &b, &c};
  SliceLayer<float> layer(p);
  layer.SetUp(bots, tops);
  EXPECT_EQ(a.channels(), 1);
  EXPECT_EQ(b.channels(), 3);
  EXPECT_EQ(c.channels(), 2);
  layer.Forward(bots, tops);
  EXPECT_FLOAT_EQ(b.cpu_data()[0], 1.0f);
  EXPECT_FLOAT_EQ(c.cpu_data()[1], 5.0f);
}

TEST(SliceLayer, BackwardReassembles) {
  Blob<float> bottom(2, 4, 1, 1);
  bottom.set_data(0.0f);
  Blob<float> a, b;
  std::vector<Blob<float>*> bots{&bottom}, tops{&a, &b};
  SliceLayer<float> layer(Param("Slice"));
  layer.SetUp(bots, tops);
  layer.Forward(bots, tops);
  a.set_diff(1.0f);
  b.set_diff(2.0f);
  layer.Backward(tops, {true}, bots);
  EXPECT_FLOAT_EQ(bottom.cpu_diff()[bottom.offset(0, 0)], 1.0f);
  EXPECT_FLOAT_EQ(bottom.cpu_diff()[bottom.offset(0, 3)], 2.0f);
  EXPECT_FLOAT_EQ(bottom.cpu_diff()[bottom.offset(1, 1)], 1.0f);
}

TEST(SliceLayer, SliceIsInverseOfConcatGradient) {
  Blob<double> bottom(1, 4, 2, 2);
  FillUniform<double>(&bottom, -1.0, 1.0);
  Blob<double> a, b;
  std::vector<Blob<double>*> bots{&bottom}, tops{&a, &b};
  SliceLayer<double> layer(Param("Slice"));
  GradientChecker<double> checker(1e-4, 1e-6);
  checker.CheckGradientExhaustive(layer, bots, tops);
}

TEST(SliceLayer, IndivisibleWithoutPointsRejected) {
  Blob<float> bottom(1, 5, 1, 1);
  Blob<float> a, b;
  std::vector<Blob<float>*> bots{&bottom}, tops{&a, &b};
  SliceLayer<float> layer(Param("Slice"));
  EXPECT_THROW(layer.SetUp(bots, tops), Error);
}

TEST(SliceLayer, BadSlicePointsRejected) {
  auto p = Param("Slice");
  p.slice_param.slice_point = {3, 2};  // not increasing
  Blob<float> bottom(1, 6, 1, 1);
  Blob<float> a, b, c;
  std::vector<Blob<float>*> bots{&bottom}, tops{&a, &b, &c};
  SliceLayer<float> layer(p);
  EXPECT_THROW(layer.SetUp(bots, tops), Error);
}

// ----------------------------------------------------------------- Reshape

TEST(ReshapeLayer, ExplicitDims) {
  auto p = Param("Reshape");
  p.reshape_param.shape.dim = {2, 12};
  Blob<float> bottom(2, 3, 2, 2);
  FillUniform<float>(&bottom, -1.0f, 1.0f);
  Blob<float> top;
  std::vector<Blob<float>*> bots{&bottom}, tops{&top};
  ReshapeLayer<float> layer(p);
  layer.SetUp(bots, tops);
  EXPECT_EQ(top.shape(), (std::vector<index_t>{2, 12}));
  EXPECT_EQ(top.cpu_data(), bottom.cpu_data()) << "zero copy";
}

TEST(ReshapeLayer, ZeroCopiesBottomAxisAndMinusOneInfers) {
  auto p = Param("Reshape");
  p.reshape_param.shape.dim = {0, -1, 4};
  Blob<float> bottom(3, 2, 4, 4);
  Blob<float> top;
  std::vector<Blob<float>*> bots{&bottom}, tops{&top};
  ReshapeLayer<float> layer(p);
  layer.SetUp(bots, tops);
  EXPECT_EQ(top.shape(), (std::vector<index_t>{3, 8, 4}));
}

TEST(ReshapeLayer, GradientSharesStorage) {
  auto p = Param("Reshape");
  p.reshape_param.shape.dim = {-1};
  Blob<float> bottom(1, 2, 2, 1);
  Blob<float> top;
  std::vector<Blob<float>*> bots{&bottom}, tops{&top};
  ReshapeLayer<float> layer(p);
  layer.SetUp(bots, tops);
  top.set_diff(3.0f);
  layer.Backward(tops, {true}, bots);
  EXPECT_FLOAT_EQ(bottom.cpu_diff()[2], 3.0f);
}

TEST(ReshapeLayer, InvalidTargetsRejected) {
  Blob<float> bottom(1, 2, 3, 1);
  Blob<float> top;
  std::vector<Blob<float>*> bots{&bottom}, tops{&top};
  {
    auto p = Param("Reshape");
    p.reshape_param.shape.dim = {-1, -1};
    ReshapeLayer<float> layer(p);
    EXPECT_THROW(layer.SetUp(bots, tops), Error);
  }
  {
    auto p = Param("Reshape");
    p.reshape_param.shape.dim = {5};  // wrong count
    ReshapeLayer<float> layer(p);
    EXPECT_THROW(layer.SetUp(bots, tops), Error);
  }
  {
    auto p = Param("Reshape");
    p.reshape_param.shape.dim = {4, -1};  // 6 % 4 != 0
    ReshapeLayer<float> layer(p);
    EXPECT_THROW(layer.SetUp(bots, tops), Error);
  }
}

// ------------------------------------------------------------------ ArgMax

TEST(ArgMaxLayer, TopOneIndices) {
  Blob<float> bottom({2, 4});
  const float s[] = {0.1f, 0.9f, 0.2f, 0.3f, 0.5f, 0.1f, 0.2f, 0.4f};
  std::copy(s, s + 8, bottom.mutable_cpu_data());
  Blob<float> top;
  std::vector<Blob<float>*> bots{&bottom}, tops{&top};
  ArgMaxLayer<float> layer(Param("ArgMax"));
  layer.SetUp(bots, tops);
  EXPECT_EQ(top.shape(), (std::vector<index_t>{2, 1}));
  layer.Forward(bots, tops);
  EXPECT_FLOAT_EQ(top.cpu_data()[0], 1.0f);
  EXPECT_FLOAT_EQ(top.cpu_data()[1], 0.0f);
}

TEST(ArgMaxLayer, TopKWithValues) {
  auto p = Param("ArgMax");
  p.argmax_param.top_k = 2;
  p.argmax_param.out_max_val = true;
  Blob<float> bottom({1, 4});
  const float s[] = {0.1f, 0.9f, 0.2f, 0.8f};
  std::copy(s, s + 4, bottom.mutable_cpu_data());
  Blob<float> top;
  std::vector<Blob<float>*> bots{&bottom}, tops{&top};
  ArgMaxLayer<float> layer(p);
  layer.SetUp(bots, tops);
  EXPECT_EQ(top.shape(), (std::vector<index_t>{1, 4}));  // 2 idx + 2 values
  layer.Forward(bots, tops);
  EXPECT_FLOAT_EQ(top.cpu_data()[0], 1.0f);
  EXPECT_FLOAT_EQ(top.cpu_data()[1], 3.0f);
  EXPECT_FLOAT_EQ(top.cpu_data()[2], 0.9f);
  EXPECT_FLOAT_EQ(top.cpu_data()[3], 0.8f);
}

TEST(ArgMaxLayer, ParallelMatchesSerial) {
  Blob<float> bottom({16, 10});
  FillUniform<float>(&bottom, -1.0f, 1.0f, 41);
  auto p = Param("ArgMax");
  p.argmax_param.top_k = 3;
  Blob<float> top_s, top_p;
  const auto run = [&](Blob<float>& top, bool par) {
    parallel::ParallelConfig cfg;
    cfg.mode = par ? parallel::ExecutionMode::kCoarseGrain
                   : parallel::ExecutionMode::kSerial;
    cfg.num_threads = 4;
    parallel::Parallel::Scope scope(cfg);
    ArgMaxLayer<float> layer(p);
    std::vector<Blob<float>*> bots{&bottom}, tops{&top};
    layer.SetUp(bots, tops);
    layer.Forward(bots, tops);
  };
  run(top_s, false);
  run(top_p, true);
  for (index_t i = 0; i < top_s.count(); ++i) {
    EXPECT_EQ(top_s.cpu_data()[i], top_p.cpu_data()[i]);
  }
}

TEST(ArgMaxLayer, RefusesBackward) {
  Blob<float> bottom({2, 3});
  FillUniform<float>(&bottom, -1.0f, 1.0f);
  Blob<float> top;
  std::vector<Blob<float>*> bots{&bottom}, tops{&top};
  ArgMaxLayer<float> layer(Param("ArgMax"));
  layer.SetUp(bots, tops);
  EXPECT_THROW(layer.Backward(tops, {true}, bots), Error);
}

// ----------------------------------------------------------------- Silence

TEST(SilenceLayer, ConsumesAndZeroesDiffs) {
  Blob<float> a({4}), b({2});
  a.set_diff(5.0f);
  b.set_diff(5.0f);
  std::vector<Blob<float>*> bots{&a, &b}, tops;
  SilenceLayer<float> layer(Param("Silence"));
  layer.SetUp(bots, tops);
  layer.Forward(bots, tops);
  layer.Backward(tops, {true, false}, bots);
  for (index_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(a.cpu_diff()[i], 0.0f);
  for (index_t i = 0; i < 2; ++i) EXPECT_FLOAT_EQ(b.cpu_diff()[i], 5.0f);
}

TEST(SilenceLayer, UsableInNetForUnconsumedTops) {
  const auto param = proto::NetParameter::FromString(R"(
    name: "silenced"
    layer {
      name: "data" type: "Data" top: "data" top: "label"
      data_param { source: "synthetic-mnist" batch_size: 2 num_samples: 8 seed: 1 }
    }
    layer {
      name: "ip" type: "InnerProduct" bottom: "data" top: "ip"
      inner_product_param { num_output: 4 weight_filler { type: "xavier" } }
    }
    layer { name: "sink" type: "Silence" bottom: "ip" }
    layer { name: "sink2" type: "Silence" bottom: "label" }
  )");
  SeedGlobalRng(9);
  Net<float> net(param, Phase::kTrain);
  EXPECT_NO_THROW(net.Forward());
}

}  // namespace
}  // namespace cgdnn
