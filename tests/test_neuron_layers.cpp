#include "cgdnn/layers/neuron_layers.hpp"

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
  p.name = "neuron";
  p.type = type;
  return p;
}

template <typename Dtype>
class NeuronLayerTest : public ::testing::Test {};

using Dtypes = ::testing::Types<float, double>;
TYPED_TEST_SUITE(NeuronLayerTest, Dtypes);

TYPED_TEST(NeuronLayerTest, ReLUForward) {
  Blob<TypeParam> bottom(1, 1, 1, 4);
  Blob<TypeParam> top;
  TypeParam* d = bottom.mutable_cpu_data();
  d[0] = -2;
  d[1] = -0.5;
  d[2] = 0;
  d[3] = 3;
  std::vector<Blob<TypeParam>*> bots{&bottom}, tops{&top};
  ReLULayer<TypeParam> layer(Param("ReLU"));
  layer.SetUp(bots, tops);
  layer.Forward(bots, tops);
  EXPECT_EQ(top.cpu_data()[0], TypeParam(0));
  EXPECT_EQ(top.cpu_data()[1], TypeParam(0));
  EXPECT_EQ(top.cpu_data()[2], TypeParam(0));
  EXPECT_EQ(top.cpu_data()[3], TypeParam(3));
}

TYPED_TEST(NeuronLayerTest, LeakyReLUForward) {
  Blob<TypeParam> bottom(1, 1, 1, 2);
  Blob<TypeParam> top;
  bottom.mutable_cpu_data()[0] = TypeParam(-4);
  bottom.mutable_cpu_data()[1] = TypeParam(2);
  auto p = Param("ReLU");
  p.relu_param.negative_slope = 0.25;
  std::vector<Blob<TypeParam>*> bots{&bottom}, tops{&top};
  ReLULayer<TypeParam> layer(p);
  layer.SetUp(bots, tops);
  layer.Forward(bots, tops);
  EXPECT_EQ(top.cpu_data()[0], TypeParam(-1));
  EXPECT_EQ(top.cpu_data()[1], TypeParam(2));
}

TYPED_TEST(NeuronLayerTest, SigmoidForwardValuesAndRange) {
  Blob<TypeParam> bottom(1, 1, 1, 3);
  Blob<TypeParam> top;
  bottom.mutable_cpu_data()[0] = TypeParam(0);
  bottom.mutable_cpu_data()[1] = TypeParam(20);
  bottom.mutable_cpu_data()[2] = TypeParam(-20);
  std::vector<Blob<TypeParam>*> bots{&bottom}, tops{&top};
  SigmoidLayer<TypeParam> layer(Param("Sigmoid"));
  layer.SetUp(bots, tops);
  layer.Forward(bots, tops);
  EXPECT_NEAR(top.cpu_data()[0], 0.5, 1e-6);
  EXPECT_NEAR(top.cpu_data()[1], 1.0, 1e-6);
  EXPECT_NEAR(top.cpu_data()[2], 0.0, 1e-6);
}

TYPED_TEST(NeuronLayerTest, TanHForward) {
  Blob<TypeParam> bottom(1, 1, 1, 2);
  Blob<TypeParam> top;
  bottom.mutable_cpu_data()[0] = TypeParam(0);
  bottom.mutable_cpu_data()[1] = TypeParam(1);
  std::vector<Blob<TypeParam>*> bots{&bottom}, tops{&top};
  TanHLayer<TypeParam> layer(Param("TanH"));
  layer.SetUp(bots, tops);
  layer.Forward(bots, tops);
  EXPECT_NEAR(top.cpu_data()[0], 0.0, 1e-6);
  EXPECT_NEAR(top.cpu_data()[1], std::tanh(1.0), 1e-6);
}

TYPED_TEST(NeuronLayerTest, InPlaceExecution) {
  Blob<TypeParam> blob(1, 1, 1, 3);
  blob.mutable_cpu_data()[0] = TypeParam(-1);
  blob.mutable_cpu_data()[1] = TypeParam(2);
  blob.mutable_cpu_data()[2] = TypeParam(-3);
  std::vector<Blob<TypeParam>*> bots{&blob}, tops{&blob};
  ReLULayer<TypeParam> layer(Param("ReLU"));
  layer.SetUp(bots, tops);
  layer.Forward(bots, tops);
  EXPECT_EQ(blob.cpu_data()[0], TypeParam(0));
  EXPECT_EQ(blob.cpu_data()[1], TypeParam(2));
  EXPECT_EQ(blob.cpu_data()[2], TypeParam(0));
}

TEST(NeuronLayerGradient, ReLUAwayFromKink) {
  Blob<double> bottom(2, 3, 4, 5);
  Blob<double> top;
  FillUniformAvoiding<double>(&bottom, -1.0, 1.0, 0.0, 0.05);
  std::vector<Blob<double>*> bots{&bottom}, tops{&top};
  ReLULayer<double> layer(Param("ReLU"));
  GradientChecker<double> checker(1e-4, 1e-5);
  checker.CheckGradientEltwise(layer, bots, tops);
}

TEST(NeuronLayerGradient, LeakyReLU) {
  Blob<double> bottom(1, 2, 3, 3);
  Blob<double> top;
  FillUniformAvoiding<double>(&bottom, -1.0, 1.0, 0.0, 0.05, 3);
  auto p = Param("ReLU");
  p.relu_param.negative_slope = 0.1;
  std::vector<Blob<double>*> bots{&bottom}, tops{&top};
  ReLULayer<double> layer(p);
  GradientChecker<double> checker(1e-4, 1e-5);
  checker.CheckGradientEltwise(layer, bots, tops);
}

TEST(NeuronLayerGradient, Sigmoid) {
  Blob<double> bottom(2, 2, 3, 3);
  Blob<double> top;
  FillUniform<double>(&bottom, -2.0, 2.0);
  std::vector<Blob<double>*> bots{&bottom}, tops{&top};
  SigmoidLayer<double> layer(Param("Sigmoid"));
  GradientChecker<double> checker(1e-4, 1e-5);
  checker.CheckGradientEltwise(layer, bots, tops);
}

TEST(NeuronLayerGradient, TanH) {
  Blob<double> bottom(2, 2, 3, 3);
  Blob<double> top;
  FillUniform<double>(&bottom, -2.0, 2.0, 17);
  std::vector<Blob<double>*> bots{&bottom}, tops{&top};
  TanHLayer<double> layer(Param("TanH"));
  GradientChecker<double> checker(1e-4, 1e-5);
  checker.CheckGradientEltwise(layer, bots, tops);
}

// --------------------------------------------------------------- Dropout

TYPED_TEST(NeuronLayerTest, DropoutTestPhaseIsIdentity) {
  Blob<TypeParam> bottom(2, 3, 2, 2);
  Blob<TypeParam> top;
  FillUniform<TypeParam>(&bottom, TypeParam(-1), TypeParam(1));
  auto p = Param("Dropout");
  p.include_phase = Phase::kTest;
  std::vector<Blob<TypeParam>*> bots{&bottom}, tops{&top};
  DropoutLayer<TypeParam> layer(p);
  layer.SetUp(bots, tops);
  layer.Forward(bots, tops);
  for (index_t i = 0; i < bottom.count(); ++i) {
    EXPECT_EQ(top.cpu_data()[i], bottom.cpu_data()[i]);
  }
}

TYPED_TEST(NeuronLayerTest, DropoutTrainZerosAndScales) {
  SeedGlobalRng(12345);
  Blob<TypeParam> bottom(4, 8, 8, 8);
  Blob<TypeParam> top;
  bottom.set_data(TypeParam(1));
  auto p = Param("Dropout");
  p.dropout_param.dropout_ratio = 0.5;
  std::vector<Blob<TypeParam>*> bots{&bottom}, tops{&top};
  DropoutLayer<TypeParam> layer(p);
  layer.SetUp(bots, tops);
  layer.Forward(bots, tops);
  index_t zeros = 0, scaled = 0;
  for (index_t i = 0; i < top.count(); ++i) {
    const TypeParam v = top.cpu_data()[i];
    if (v == TypeParam(0)) ++zeros;
    else if (std::abs(v - TypeParam(2)) < 1e-6) ++scaled;
    else FAIL() << "unexpected value " << v;
  }
  const double drop_frac =
      static_cast<double>(zeros) / static_cast<double>(top.count());
  EXPECT_NEAR(drop_frac, 0.5, 0.05);
  EXPECT_EQ(zeros + scaled, top.count());
}

TYPED_TEST(NeuronLayerTest, DropoutBackwardUsesForwardMask) {
  SeedGlobalRng(777);
  Blob<TypeParam> bottom(2, 4, 4, 4);
  Blob<TypeParam> top;
  bottom.set_data(TypeParam(1));
  auto p = Param("Dropout");
  std::vector<Blob<TypeParam>*> bots{&bottom}, tops{&top};
  DropoutLayer<TypeParam> layer(p);
  layer.SetUp(bots, tops);
  layer.Forward(bots, tops);
  top.set_diff(TypeParam(1));
  layer.Backward(tops, {true}, bots);
  for (index_t i = 0; i < bottom.count(); ++i) {
    // bottom_diff = mask: exactly matches the forward's zero/scale pattern.
    EXPECT_EQ(bottom.cpu_diff()[i], top.cpu_data()[i]);
  }
}

TYPED_TEST(NeuronLayerTest, DropoutMasksIndependentOfThreadCount) {
  SeedGlobalRng(31415);
  auto p = Param("Dropout");
  Blob<TypeParam> bottom(2, 4, 4, 4);
  bottom.set_data(TypeParam(1));
  Blob<TypeParam> top_serial, top_parallel;

  SeedGlobalRng(31415);
  DropoutLayer<TypeParam> serial_layer(p);
  {
    parallel::ParallelConfig cfg;
    cfg.mode = parallel::ExecutionMode::kSerial;
    parallel::Parallel::Scope scope(cfg);
    std::vector<Blob<TypeParam>*> bots{&bottom}, tops{&top_serial};
    serial_layer.SetUp(bots, tops);
    serial_layer.Forward(bots, tops);
  }
  SeedGlobalRng(31415);
  DropoutLayer<TypeParam> parallel_layer(p);
  {
    parallel::ParallelConfig cfg;
    cfg.mode = parallel::ExecutionMode::kCoarseGrain;
    cfg.num_threads = 5;
    parallel::Parallel::Scope scope(cfg);
    std::vector<Blob<TypeParam>*> bots{&bottom}, tops{&top_parallel};
    parallel_layer.SetUp(bots, tops);
    parallel_layer.Forward(bots, tops);
  }
  for (index_t i = 0; i < bottom.count(); ++i) {
    EXPECT_EQ(top_serial.cpu_data()[i], top_parallel.cpu_data()[i]) << i;
  }
}

TYPED_TEST(NeuronLayerTest, DropoutRejectsDegenerateRatios) {
  auto p = Param("Dropout");
  p.dropout_param.dropout_ratio = 0.0;
  EXPECT_THROW(DropoutLayer<TypeParam>{p}, Error);
  p.dropout_param.dropout_ratio = 1.0;
  EXPECT_THROW(DropoutLayer<TypeParam>{p}, Error);
}

}  // namespace
}  // namespace cgdnn
