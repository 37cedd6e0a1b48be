#include "cgdnn/serve/engine.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "cgdnn/plan/planner.hpp"

namespace cgdnn::serve {

proto::NetParameter MakeDeployParam(const proto::NetParameter& param,
                                    index_t batch_size, index_t channels,
                                    index_t height, index_t width) {
  CGDNN_CHECK_GT(batch_size, 0) << "deploy batch must be positive";
  proto::NetParameter deploy;
  deploy.name = param.name + "_deploy_b" + std::to_string(batch_size);
  for (const auto& lp : param.layer) {
    if (lp.include_phase.has_value() && *lp.include_phase == Phase::kTrain) {
      continue;  // TRAIN-only layer
    }
    if (lp.type == "Accuracy") continue;  // needs labels; meaningless here
    if (lp.type == "Data" || lp.type == "DummyData" ||
        lp.type == "MemoryData") {
      CGDNN_CHECK(!lp.top.empty()) << "input layer without tops";
      proto::LayerParameter input;
      input.name = lp.name;
      input.type = "MemoryData";
      input.top = {lp.top[0]};  // drop the label top: serving has no labels
      input.memory_data_param.batch_size = batch_size;
      input.memory_data_param.channels = channels;
      input.memory_data_param.height = height;
      input.memory_data_param.width = width;
      deploy.layer.push_back(std::move(input));
      continue;
    }
    if (lp.type == "SoftmaxWithLoss") {
      CGDNN_CHECK(!lp.bottom.empty()) << "loss layer without bottoms";
      proto::LayerParameter prob;
      prob.name = "prob";
      prob.type = "Softmax";
      prob.bottom = {lp.bottom[0]};  // drop the label bottom
      prob.top = {"prob"};
      deploy.layer.push_back(std::move(prob));
      continue;
    }
    // Any other label consumer has no serving meaning either.
    const bool uses_label =
        std::find(lp.bottom.begin(), lp.bottom.end(), "label") !=
        lp.bottom.end();
    if (uses_label) continue;
    auto copy = lp;
    copy.include_phase.reset();
    deploy.layer.push_back(std::move(copy));
  }
  return deploy;
}

namespace {

/// Input geometry of the model, discovered by constructing a throwaway
/// probe net from the original prototxt and reading the data blob's shape.
struct InputShape {
  index_t channels = 0, height = 0, width = 0;
};

InputShape ProbeInputShape(const proto::NetParameter& param) {
  Net<float> probe(param, Phase::kTest);
  CGDNN_CHECK(probe.has_blob("data"))
      << "serving needs a net with a 'data' input blob";
  const auto& blob = *probe.blob_by_name("data");
  InputShape s;
  s.channels = blob.channels();
  s.height = blob.height();
  s.width = blob.width();
  return s;
}

}  // namespace

InferenceEngine::InferenceEngine(const proto::NetParameter& param,
                                 const Options& opts)
    : opts_(opts) {
  CGDNN_CHECK_GT(opts_.max_batch, 0) << "max_batch must be positive";
  const InputShape in = ProbeInputShape(param);
  sample_size_ = in.channels * in.height * in.width;

  // Power-of-two buckets, plus max_batch itself when it is not a power of
  // two: a K-request batch pads to the next bucket, so padding waste is at
  // most 2x and the number of planned nets stays logarithmic.
  for (index_t b = 1; b < opts_.max_batch; b *= 2) bucket_batches_.push_back(b);
  bucket_batches_.push_back(opts_.max_batch);

  for (index_t b : bucket_batches_) {
    deploy_params_.push_back(
        MakeDeployParam(param, b, in.channels, in.height, in.width));
  }

  // The master is the bucket-1 deploy net; it owns the single shared weight
  // instance every worker aliases.
  master_ = std::make_unique<Net<float>>(deploy_params_[0], Phase::kTest);
  CGDNN_CHECK(master_->has_blob("prob"))
      << "deploy transformation must yield a 'prob' output";
  output_size_ = master_->blob_by_name("prob")->count(1);
  MaybePlan(master_.get());
}

void InferenceEngine::MaybePlan(Net<float>* net) const {
  if (!opts_.planned) return;
  plan::PlanAndApply(net, plan::PlannerOptions{});
}

const proto::NetParameter& InferenceEngine::deploy_param(
    index_t bucket_batch) const {
  for (std::size_t i = 0; i < bucket_batches_.size(); ++i) {
    if (bucket_batches_[i] == bucket_batch) return deploy_params_[i];
  }
  CGDNN_CHECK(false) << "no deploy bucket of batch " << bucket_batch;
  std::abort();  // unreachable: CGDNN_CHECK(false) throws
}

std::unique_ptr<InferenceEngine::Worker> InferenceEngine::MakeWorker() {
  auto worker = std::unique_ptr<Worker>(new Worker());
  worker->sample_size_ = sample_size_;
  worker->output_size_ = output_size_;
  for (std::size_t i = 0; i < bucket_batches_.size(); ++i) {
    Worker::Bucket bucket;
    bucket.batch = bucket_batches_[i];
    bucket.net = std::make_unique<Net<float>>(deploy_params_[i], Phase::kTest);
    // Alias the master's weights BEFORE planning: the plan only rebinds
    // activation storage, so the aliased parameter blobs survive it.
    bucket.net->ShareTrainedLayersWith(*master_);
    MaybePlan(bucket.net.get());
    for (const auto& layer : bucket.net->layers()) {
      if (auto* mem = dynamic_cast<MemoryDataLayer<float>*>(layer.get())) {
        bucket.input = mem;
        break;
      }
    }
    CGDNN_CHECK(bucket.input != nullptr) << "deploy net lost its input layer";
    bucket.prob = bucket.net->blob_by_name("prob").get();
    bucket.staging.assign(
        static_cast<std::size_t>(bucket.batch * sample_size_), 0.0f);
    worker->buckets_.push_back(std::move(bucket));
  }
  return worker;
}

InferenceEngine::Worker::Bucket& InferenceEngine::Worker::BucketFor(
    std::size_t k) {
  for (auto& bucket : buckets_) {
    if (static_cast<std::size_t>(bucket.batch) >= k) return bucket;
  }
  CGDNN_CHECK(false) << "batch of " << k << " exceeds max_batch "
                     << buckets_.back().batch;
  std::abort();  // unreachable: CGDNN_CHECK(false) throws
}

void InferenceEngine::Worker::RunBatch(
    const std::vector<const float*>& samples,
    std::vector<std::vector<float>>* outputs) {
  CGDNN_CHECK(!samples.empty()) << "RunBatch needs at least one sample";
  Bucket& bucket = BucketFor(samples.size());
  const std::size_t dim = static_cast<std::size_t>(sample_size_);

  // Stage: K samples, then zeros in the padded slots. Zeroing is not just
  // hygiene — deterministic padding makes the whole forward reproducible,
  // which the bit-identity test relies on when comparing bucket sizes.
  for (std::size_t i = 0; i < samples.size(); ++i) {
    std::memcpy(bucket.staging.data() + i * dim, samples[i],
                dim * sizeof(float));
  }
  std::memset(bucket.staging.data() + samples.size() * dim, 0,
              (bucket.staging.size() - samples.size() * dim) * sizeof(float));

  bucket.input->Reset(bucket.staging.data(), nullptr, bucket.batch);
  bucket.net->Forward();

  const float* prob = bucket.prob->cpu_data();
  const std::size_t odim = static_cast<std::size_t>(output_size_);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    outputs->emplace_back(prob + i * odim, prob + (i + 1) * odim);
  }
}

}  // namespace cgdnn::serve
