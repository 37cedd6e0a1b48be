#include "cgdnn/layers/batch_norm_layer.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "cgdnn/net/net.hpp"
#include "cgdnn/parallel/context.hpp"
#include "gradient_checker.hpp"

namespace cgdnn {
namespace {

using testing::FillUniform;
using testing::GradientChecker;

proto::LayerParameter BnParam(Phase phase = Phase::kTrain) {
  proto::LayerParameter p;
  p.name = "bn";
  p.type = "BatchNorm";
  p.include_phase = phase;
  return p;
}

TEST(BatchNormLayer, TrainOutputIsNormalizedPerChannel) {
  Blob<double> bottom(4, 3, 5, 5);
  FillUniform<double>(&bottom, -3.0, 7.0);
  Blob<double> top;
  std::vector<Blob<double>*> bots{&bottom}, tops{&top};
  BatchNormLayer<double> layer(BnParam());
  layer.SetUp(bots, tops);
  layer.Forward(bots, tops);
  const index_t m = 4 * 5 * 5;
  for (index_t c = 0; c < 3; ++c) {
    double sum = 0, sq = 0;
    for (index_t n = 0; n < 4; ++n) {
      for (index_t h = 0; h < 5; ++h) {
        for (index_t w = 0; w < 5; ++w) {
          const double v = top.data_at(n, c, h, w);
          sum += v;
          sq += v * v;
        }
      }
    }
    const double mean = sum / m;
    const double var = sq / m - mean * mean;
    EXPECT_NEAR(mean, 0.0, 1e-10) << "channel " << c;
    EXPECT_NEAR(var, 1.0, 1e-4) << "channel " << c;
  }
}

TEST(BatchNormLayer, RunningStatsConvergeToDataStatistics) {
  // Feed the same batch repeatedly: the running mean must converge to the
  // batch mean (Caffe's scale-factor-normalized storage).
  Blob<double> bottom(8, 2, 3, 3);
  FillUniform<double>(&bottom, 1.0, 5.0);  // mean ~3
  Blob<double> top;
  std::vector<Blob<double>*> bots{&bottom}, tops{&top};
  BatchNormLayer<double> layer(BnParam());
  layer.SetUp(bots, tops);
  for (int i = 0; i < 50; ++i) layer.Forward(bots, tops);

  // Compute the true batch mean of channel 0.
  double sum = 0;
  for (index_t n = 0; n < 8; ++n) {
    for (index_t s = 0; s < 9; ++s) {
      sum += bottom.cpu_data()[(n * 2 + 0) * 9 + s];
    }
  }
  const double true_mean = sum / (8 * 9);
  const double stored =
      layer.blobs()[0]->cpu_data()[0] / layer.blobs()[2]->cpu_data()[0];
  EXPECT_NEAR(stored, true_mean, 1e-6);
}

TEST(BatchNormLayer, GlobalStatsUsedAtTestTime) {
  // Train on one batch to accumulate stats, then a TEST-phase layer sharing
  // the blobs must normalize with the STORED statistics, not batch ones.
  Blob<double> train_in(8, 1, 2, 2);
  FillUniform<double>(&train_in, -1.0, 1.0, 7);
  Blob<double> top;
  std::vector<Blob<double>*> bots{&train_in}, tops{&top};
  BatchNormLayer<double> train_layer(BnParam(Phase::kTrain));
  train_layer.SetUp(bots, tops);
  train_layer.Forward(bots, tops);

  BatchNormLayer<double> test_layer(BnParam(Phase::kTest));
  Blob<double> test_in(1, 1, 2, 2);
  test_in.set_data(0.0);
  Blob<double> test_out;
  std::vector<Blob<double>*> tbots{&test_in}, ttops{&test_out};
  test_layer.SetUp(tbots, ttops);
  for (std::size_t j = 0; j < 3; ++j) {
    test_layer.blobs()[j]->ShareData(*train_layer.blobs()[j]);
  }
  test_layer.Forward(tbots, ttops);
  // Input zero: output = (0 - stored_mean) / sqrt(stored_var + eps).
  const double s = train_layer.blobs()[2]->cpu_data()[0];
  const double mean = train_layer.blobs()[0]->cpu_data()[0] / s;
  const double var = train_layer.blobs()[1]->cpu_data()[0] / s;
  const double expected = (0.0 - mean) / std::sqrt(var + 1e-5);
  EXPECT_NEAR(test_out.cpu_data()[0], expected, 1e-9);
}

TEST(BatchNormGradient, TrainModeMatchesFiniteDifferences) {
  Blob<double> bottom(3, 2, 2, 2);
  FillUniform<double>(&bottom, -1.0, 1.0, 11);
  Blob<double> top;
  std::vector<Blob<double>*> bots{&bottom}, tops{&top};
  BatchNormLayer<double> layer(BnParam());
  GradientChecker<double> checker(1e-3, 1e-3);
  checker.set_check_params(false);  // running stats are state, not params
  checker.CheckGradientExhaustive(layer, bots, tops, /*check_bottom=*/-1);
}

TEST(BatchNormGradient, GlobalStatsMode) {
  auto p = BnParam(Phase::kTest);
  p.batch_norm_param.use_global_stats = true;
  Blob<double> bottom(2, 2, 2, 2);
  FillUniform<double>(&bottom, -1.0, 1.0, 13);
  Blob<double> top;
  std::vector<Blob<double>*> bots{&bottom}, tops{&top};
  BatchNormLayer<double> layer(p);
  layer.SetUp(bots, tops);
  // Install plausible stored statistics (scale factor 1).
  // (The stored stats are state, not trained parameters: skip them.)
  layer.blobs()[0]->mutable_cpu_data()[0] = 0.2;
  layer.blobs()[0]->mutable_cpu_data()[1] = -0.1;
  layer.blobs()[1]->mutable_cpu_data()[0] = 0.8;
  layer.blobs()[1]->mutable_cpu_data()[1] = 1.4;
  layer.blobs()[2]->mutable_cpu_data()[0] = 1.0;
  GradientChecker<double> checker(1e-3, 1e-3);
  checker.set_check_params(false);
  checker.CheckGradientSingle(layer, bots, tops, -1, 0, 3);
}

TEST(BatchNormLayer, ParallelMatchesSerialBitExactly) {
  Blob<float> bottom(6, 7, 4, 4);
  FillUniform<float>(&bottom, -2.0f, 2.0f, 17);
  const auto run = [&](bool par, Blob<float>& top, std::vector<float>& dx) {
    parallel::ParallelConfig cfg;
    cfg.mode = par ? parallel::ExecutionMode::kCoarseGrain
                   : parallel::ExecutionMode::kSerial;
    cfg.num_threads = 3;
    parallel::Parallel::Scope scope(cfg);
    BatchNormLayer<float> layer(BnParam());
    std::vector<Blob<float>*> bots{&bottom}, tops{&top};
    layer.SetUp(bots, tops);
    layer.Forward(bots, tops);
    top.set_diff(0.3f);
    layer.Backward(tops, {true}, bots);
    dx.assign(bottom.cpu_diff(), bottom.cpu_diff() + bottom.count());
  };
  Blob<float> top_s, top_p;
  std::vector<float> dx_s, dx_p;
  run(false, top_s, dx_s);
  run(true, top_p, dx_p);
  for (index_t i = 0; i < top_s.count(); ++i) {
    ASSERT_EQ(top_s.cpu_data()[i], top_p.cpu_data()[i]) << i;
  }
  EXPECT_EQ(dx_s, dx_p);
}

TEST(BatchNormLayer, StatsFrozenDuringGradientTraining) {
  // The three state blobs carry lr 0: the solver must never touch them.
  const auto param = proto::NetParameter::FromString(R"(
    name: "bn_net"
    layer {
      name: "data" type: "Data" top: "data" top: "label"
      data_param { source: "synthetic-mnist" batch_size: 8 num_samples: 16 seed: 1 }
    }
    layer { name: "bn" type: "BatchNorm" bottom: "data" top: "bn" }
    layer {
      name: "scale" type: "Scale" bottom: "bn" top: "scaled"
      scale_param { bias_term: true }
    }
    layer {
      name: "ip" type: "InnerProduct" bottom: "scaled" top: "ip"
      inner_product_param { num_output: 10 weight_filler { type: "xavier" } }
    }
    layer {
      name: "loss" type: "SoftmaxWithLoss" bottom: "ip" bottom: "label"
      top: "loss"
    }
  )");
  SeedGlobalRng(5);
  Net<float> net(param, Phase::kTrain);
  net.ClearParamDiffs();
  const float loss = net.ForwardBackward();
  EXPECT_TRUE(std::isfinite(loss));
  // BatchNorm blobs get zero gradient; Scale blobs get real gradient.
  const auto& bn = net.layer_by_name("bn");
  for (const auto& blob : bn->blobs()) {
    EXPECT_EQ(blob->asum_diff(), 0.0f);
  }
  const auto& scale = net.layer_by_name("scale");
  EXPECT_GT(scale->blobs()[0]->asum_diff(), 0.0f);
}

}  // namespace
}  // namespace cgdnn
