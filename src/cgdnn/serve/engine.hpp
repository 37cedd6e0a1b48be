// InferenceEngine: the model side of the serving runtime.
//
// The paper's serving split — ONE read-only weight instance, PRIVATE
// activations per executor — maps here as: a master deploy net owns the
// weights, and every worker gets a Worker replica whose nets alias the
// master's parameter blobs via Net::ShareTrainedLayersWith (the replica.hpp
// idiom) while keeping all activation blobs private. Workers never write
// weights, so no synchronisation is needed on the model at all.
//
// Dynamic batching needs forwards at many batch sizes, but nets here have a
// fixed batch. The engine therefore builds BUCKET nets at power-of-two
// batch sizes up to max_batch (1, 2, 4, ...); a K-request batch runs on the
// smallest bucket >= K with the unused slots zero-padded. Because the
// packed GEMM computes output rows independently (PR-2), sample i's output
// bits do not depend on what occupies the other slots — this is what makes
// batched serving bit-identical to single-sample forwards, and the serve
// unit test plus `cgdnn_audit --serve` enforce it.
//
// Deploy transformation (MakeDeployParam): the training prototxt's Data
// layer becomes a MemoryData layer fed from a staging buffer, the
// SoftmaxWithLoss head becomes a plain Softmax producing "prob", and
// label-consuming layers (Accuracy) are dropped.
#pragma once

#include <memory>
#include <vector>

#include "cgdnn/layers/data_layers.hpp"
#include "cgdnn/net/net.hpp"
#include "cgdnn/proto/params.hpp"

namespace cgdnn::serve {

/// Rewrites a training/eval prototxt into serving form at `batch_size`:
/// Data -> MemoryData (shape `channels` x `height` x `width`),
/// SoftmaxWithLoss -> Softmax with top "prob", Accuracy and other
/// label-consuming or TRAIN-only layers dropped.
proto::NetParameter MakeDeployParam(const proto::NetParameter& param,
                                    index_t batch_size, index_t channels,
                                    index_t height, index_t width);

class InferenceEngine {
 public:
  struct Options {
    index_t max_batch = 8;
    /// Run the execution planner over every bucket net (activation
    /// arenas) at the serving batch sizes.
    bool planned = true;
  };

  /// Builds the deploy form of `param` and the master net (owner of the one
  /// shared weight instance). Weight values come from the param's fillers;
  /// call LoadWeights on master() to serve trained weights. NOT thread-safe
  /// (net construction draws from the global RNG).
  InferenceEngine(const proto::NetParameter& param, const Options& opts);

  /// One worker's private model state: bucket nets with private activations
  /// aliasing the master's weights.
  class Worker {
   public:
    /// Forwards `samples` (each `sample_size` floats) through the smallest
    /// bucket net that fits, zero-padding unused slots, and appends one
    /// output vector (`output_size` floats) per sample to `outputs`.
    void RunBatch(const std::vector<const float*>& samples,
                  std::vector<std::vector<float>>* outputs);

    index_t sample_size() const { return sample_size_; }
    index_t output_size() const { return output_size_; }

   private:
    friend class InferenceEngine;
    Worker() = default;

    struct Bucket {
      index_t batch = 0;
      std::unique_ptr<Net<float>> net;
      MemoryDataLayer<float>* input = nullptr;  // owned by net
      Blob<float>* prob = nullptr;              // owned by net
      std::vector<float> staging;               // batch * sample_size floats
    };

    Bucket& BucketFor(std::size_t k);

    std::vector<Bucket> buckets_;
    index_t sample_size_ = 0;
    index_t output_size_ = 0;
  };

  /// Builds a worker replica. NOT thread-safe (construct all workers
  /// serially before starting the pool); the returned worker's RunBatch is
  /// safe to call from that worker's thread only.
  std::unique_ptr<Worker> MakeWorker();

  Net<float>& master() { return *master_; }
  const proto::NetParameter& deploy_param(index_t bucket_batch) const;

  index_t sample_size() const { return sample_size_; }
  index_t output_size() const { return output_size_; }
  index_t max_batch() const { return opts_.max_batch; }
  const std::vector<index_t>& bucket_batches() const { return bucket_batches_; }

 private:
  void MaybePlan(Net<float>* net) const;

  Options opts_;
  std::vector<index_t> bucket_batches_;          // 1, 2, 4, ..., max_batch
  std::vector<proto::NetParameter> deploy_params_;  // one per bucket
  std::unique_ptr<Net<float>> master_;           // bucket-1 net: owns weights
  index_t sample_size_ = 0;
  index_t output_size_ = 0;
};

}  // namespace cgdnn::serve
