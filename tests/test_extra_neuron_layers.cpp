#include "cgdnn/layers/extra_neuron_layers.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "cgdnn/parallel/context.hpp"
#include "gradient_checker.hpp"

namespace cgdnn {
namespace {

using testing::FillUniform;
using testing::FillUniformAvoiding;
using testing::GradientChecker;

proto::LayerParameter Param(const std::string& type) {
  proto::LayerParameter p;
  p.name = "extra";
  p.type = type;
  return p;
}

template <typename LayerT>
void RunForward(LayerT& layer, Blob<double>& bottom, Blob<double>& top) {
  std::vector<Blob<double>*> bots{&bottom}, tops{&top};
  layer.SetUp(bots, tops);
  layer.Forward(bots, tops);
}

// -------------------------------------------------------------------- Power

TEST(PowerLayer, KnownValues) {
  auto p = Param("Power");
  p.power_param.power = 2.0;
  p.power_param.scale = 3.0;
  p.power_param.shift = 1.0;
  Blob<double> bottom({3});
  bottom.mutable_cpu_data()[0] = 0.0;  // (1 + 0)^2 = 1
  bottom.mutable_cpu_data()[1] = 1.0;  // (1 + 3)^2 = 16
  bottom.mutable_cpu_data()[2] = -1.0; // (1 - 3)^2 = 4
  Blob<double> top;
  PowerLayer<double> layer(p);
  RunForward(layer, bottom, top);
  EXPECT_DOUBLE_EQ(top.cpu_data()[0], 1.0);
  EXPECT_DOUBLE_EQ(top.cpu_data()[1], 16.0);
  EXPECT_DOUBLE_EQ(top.cpu_data()[2], 4.0);
}

TEST(PowerLayer, IdentityDefaults) {
  Blob<double> bottom({4});
  FillUniform<double>(&bottom, -2.0, 2.0);
  Blob<double> top;
  PowerLayer<double> layer(Param("Power"));
  RunForward(layer, bottom, top);
  for (index_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(top.cpu_data()[i], bottom.cpu_data()[i]);
  }
}

TEST(PowerLayerGradient, QuadraticWithShift) {
  auto p = Param("Power");
  p.power_param.power = 2.0;
  p.power_param.scale = 0.5;
  p.power_param.shift = 2.0;  // base stays positive for inputs in [-1, 1]
  Blob<double> bottom(1, 2, 3, 3);
  FillUniform<double>(&bottom, -1.0, 1.0);
  Blob<double> top;
  std::vector<Blob<double>*> bots{&bottom}, tops{&top};
  PowerLayer<double> layer(p);
  GradientChecker<double> checker(1e-4, 1e-5);
  checker.CheckGradientEltwise(layer, bots, tops);
}

TEST(PowerLayerGradient, LinearCase) {
  auto p = Param("Power");
  p.power_param.scale = -1.5;
  p.power_param.shift = 0.25;
  Blob<double> bottom({2, 4});
  FillUniform<double>(&bottom, -1.0, 1.0, 3);
  Blob<double> top;
  std::vector<Blob<double>*> bots{&bottom}, tops{&top};
  PowerLayer<double> layer(p);
  GradientChecker<double> checker(1e-4, 1e-5);
  checker.CheckGradientEltwise(layer, bots, tops);
}

// ---------------------------------------------------------------------- Exp

TEST(ExpLayer, NaturalBaseAndBase2) {
  Blob<double> bottom({2});
  bottom.mutable_cpu_data()[0] = 0.0;
  bottom.mutable_cpu_data()[1] = 1.0;
  Blob<double> top;
  ExpLayer<double> natural(Param("Exp"));
  RunForward(natural, bottom, top);
  EXPECT_DOUBLE_EQ(top.cpu_data()[0], 1.0);
  EXPECT_NEAR(top.cpu_data()[1], std::exp(1.0), 1e-12);

  auto p = Param("Exp");
  p.exp_param.base = 2.0;
  p.exp_param.scale = 3.0;
  Blob<double> top2;
  ExpLayer<double> base2(p);
  RunForward(base2, bottom, top2);
  EXPECT_NEAR(top2.cpu_data()[1], 8.0, 1e-12);  // 2^(3*1)
}

TEST(ExpLayerGradient, Check) {
  auto p = Param("Exp");
  p.exp_param.base = 3.0;
  p.exp_param.scale = 0.7;
  p.exp_param.shift = -0.2;
  Blob<double> bottom({2, 5});
  FillUniform<double>(&bottom, -1.0, 1.0);
  Blob<double> top;
  std::vector<Blob<double>*> bots{&bottom}, tops{&top};
  ExpLayer<double> layer(p);
  GradientChecker<double> checker(1e-4, 1e-5);
  checker.CheckGradientEltwise(layer, bots, tops);
}

// ---------------------------------------------------------------------- Log

TEST(LogLayer, KnownValues) {
  auto p = Param("Log");
  p.log_param.base = 10.0;
  Blob<double> bottom({2});
  bottom.mutable_cpu_data()[0] = 1.0;
  bottom.mutable_cpu_data()[1] = 100.0;
  Blob<double> top;
  LogLayer<double> layer(p);
  RunForward(layer, bottom, top);
  EXPECT_NEAR(top.cpu_data()[0], 0.0, 1e-12);
  EXPECT_NEAR(top.cpu_data()[1], 2.0, 1e-12);
}

TEST(LogLayerGradient, Check) {
  auto p = Param("Log");
  p.log_param.shift = 3.0;  // keep the argument positive
  p.log_param.scale = 0.5;
  Blob<double> bottom({3, 3});
  FillUniform<double>(&bottom, -1.0, 1.0, 5);
  Blob<double> top;
  std::vector<Blob<double>*> bots{&bottom}, tops{&top};
  LogLayer<double> layer(p);
  GradientChecker<double> checker(1e-4, 1e-5);
  checker.CheckGradientEltwise(layer, bots, tops);
}

// ------------------------------------------------------------------- AbsVal

TEST(AbsValLayer, Forward) {
  Blob<double> bottom({3});
  bottom.mutable_cpu_data()[0] = -2.5;
  bottom.mutable_cpu_data()[1] = 0.0;
  bottom.mutable_cpu_data()[2] = 4.0;
  Blob<double> top;
  AbsValLayer<double> layer(Param("AbsVal"));
  RunForward(layer, bottom, top);
  EXPECT_DOUBLE_EQ(top.cpu_data()[0], 2.5);
  EXPECT_DOUBLE_EQ(top.cpu_data()[1], 0.0);
  EXPECT_DOUBLE_EQ(top.cpu_data()[2], 4.0);
}

TEST(AbsValLayerGradient, AwayFromKink) {
  Blob<double> bottom({4, 4});
  FillUniformAvoiding<double>(&bottom, -1.0, 1.0, 0.0, 0.05);
  Blob<double> top;
  std::vector<Blob<double>*> bots{&bottom}, tops{&top};
  AbsValLayer<double> layer(Param("AbsVal"));
  GradientChecker<double> checker(1e-4, 1e-5);
  checker.CheckGradientEltwise(layer, bots, tops);
}

// --------------------------------------------------------------------- BNLL

TEST(BNLLLayer, SoftplusPropertiesAndOverflowSafety) {
  Blob<double> bottom({4});
  bottom.mutable_cpu_data()[0] = 0.0;
  bottom.mutable_cpu_data()[1] = 500.0;   // would overflow naive exp
  bottom.mutable_cpu_data()[2] = -500.0;
  bottom.mutable_cpu_data()[3] = 1.0;
  Blob<double> top;
  BNLLLayer<double> layer(Param("BNLL"));
  RunForward(layer, bottom, top);
  EXPECT_NEAR(top.cpu_data()[0], std::log(2.0), 1e-12);
  EXPECT_NEAR(top.cpu_data()[1], 500.0, 1e-9);
  EXPECT_NEAR(top.cpu_data()[2], 0.0, 1e-9);
  EXPECT_NEAR(top.cpu_data()[3], std::log1p(std::exp(1.0)), 1e-12);
  for (index_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(std::isfinite(top.cpu_data()[i]));
    EXPECT_GE(top.cpu_data()[i], 0.0);  // softplus is positive
  }
}

TEST(BNLLLayerGradient, Check) {
  Blob<double> bottom({2, 6});
  FillUniform<double>(&bottom, -3.0, 3.0, 7);
  Blob<double> top;
  std::vector<Blob<double>*> bots{&bottom}, tops{&top};
  BNLLLayer<double> layer(Param("BNLL"));
  GradientChecker<double> checker(1e-4, 1e-5);
  checker.CheckGradientEltwise(layer, bots, tops);
}

// ---------------------------------------------------------------------- ELU

TEST(ELULayer, PiecewiseForward) {
  auto p = Param("ELU");
  p.elu_param.alpha = 2.0;
  Blob<double> bottom({3});
  bottom.mutable_cpu_data()[0] = 1.5;
  bottom.mutable_cpu_data()[1] = 0.0;
  bottom.mutable_cpu_data()[2] = -1.0;
  Blob<double> top;
  ELULayer<double> layer(p);
  RunForward(layer, bottom, top);
  EXPECT_DOUBLE_EQ(top.cpu_data()[0], 1.5);
  EXPECT_DOUBLE_EQ(top.cpu_data()[1], 0.0);
  EXPECT_NEAR(top.cpu_data()[2], 2.0 * (std::exp(-1.0) - 1.0), 1e-12);
}

TEST(ELULayerGradient, AwayFromKink) {
  auto p = Param("ELU");
  p.elu_param.alpha = 0.7;
  Blob<double> bottom({3, 5});
  FillUniformAvoiding<double>(&bottom, -2.0, 2.0, 0.0, 0.05, 9);
  Blob<double> top;
  std::vector<Blob<double>*> bots{&bottom}, tops{&top};
  ELULayer<double> layer(p);
  GradientChecker<double> checker(1e-4, 1e-5);
  checker.CheckGradientEltwise(layer, bots, tops);
}

// ------------------------------------------------ parallel path equivalence

class ExtraNeuronParallel : public ::testing::TestWithParam<std::string> {};

TEST_P(ExtraNeuronParallel, ParallelMatchesSerialBitExactly) {
  auto p = Param(GetParam());
  p.power_param.shift = 2.0;  // keep Power/Log arguments positive
  p.log_param.shift = 3.0;
  Blob<float> bottom(4, 3, 5, 5);
  testing::FillUniform<float>(&bottom, -1.0f, 1.0f, 31);
  Blob<float> top_serial, top_parallel;
  EnsureLayersRegistered();

  const auto run = [&](Blob<float>& top, bool parallel_mode) {
    parallel::ParallelConfig cfg;
    cfg.mode = parallel_mode ? parallel::ExecutionMode::kCoarseGrain
                             : parallel::ExecutionMode::kSerial;
    cfg.num_threads = 5;
    parallel::Parallel::Scope scope(cfg);
    auto layer = LayerRegistry<float>::Get().Create(p);
    std::vector<Blob<float>*> bots{&bottom}, tops{&top};
    layer->SetUp(bots, tops);
    layer->Forward(bots, tops);
    top.set_diff(1.0f);
    layer->Backward(tops, {true}, bots);
  };
  run(top_serial, false);
  std::vector<float> serial_dx(bottom.cpu_diff(),
                               bottom.cpu_diff() + bottom.count());
  run(top_parallel, true);
  for (index_t i = 0; i < bottom.count(); ++i) {
    EXPECT_EQ(top_serial.cpu_data()[i], top_parallel.cpu_data()[i]) << i;
    EXPECT_EQ(serial_dx[static_cast<std::size_t>(i)], bottom.cpu_diff()[i])
        << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Types, ExtraNeuronParallel,
                         ::testing::Values("Power", "Exp", "Log", "AbsVal",
                                           "BNLL", "ELU"),
                         [](const auto& tpi) { return tpi.param; });

}  // namespace
}  // namespace cgdnn
