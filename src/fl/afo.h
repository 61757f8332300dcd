// Baseline 3: AFO — asynchronous federated optimization (Xie et al. [6]).
//
// Fully event-driven: whenever any device finishes a local cycle, the server
// mixes its model into the global one with a staleness-decayed weight
//     alpha_t = alpha * (1 + staleness)^(-a)
// (polynomial staleness function), and the device immediately restarts from
// the fresh global model. Metrics are recorded once per completion of the
// first capable device, aligning the cycle axis with the other strategies.
// With staleness exponent 0 the weight is the fixed alpha: that is Asyn. FL's
// fully asynchronous mode, which runs this engine.
//
// Engine state (event heap, in-flight snapshots, model version counter)
// lives in members so a run can be checkpointed at any round boundary and
// resumed bit-identically via save_state/load_state.
#pragma once

#include <cstdint>
#include <vector>

#include "fl/strategy.h"

namespace helios::fl {

class Afo final : public Strategy {
 public:
  explicit Afo(double alpha = 0.9, double staleness_exponent = 0.8);

  std::string name() const override { return "AFO"; }
  void run_range(Fleet& fleet, RunResult& result, int begin,
                 int end) override;

  /// Event heap, in-flight base snapshots + started versions, accumulators.
  void save_state(const Fleet& fleet, CheckpointWriter& w) const override;
  void load_state(Fleet& fleet, CheckpointReader& r) override;

 private:
  /// Serialized as the plain heap array (std::push_heap/std::pop_heap):
  /// restoring the same vector reproduces the identical pop order.
  struct Event {
    double time = 0.0;
    int client_index = 0;
    bool operator>(const Event& other) const { return time > other.time; }
  };
  /// The global snapshot and version a device started training from.
  /// Addressed by fleet index so the state survives serialization.
  struct InFlight {
    std::vector<float> base;
    std::vector<float> base_buffers;
    long started_version = 0;
  };

  double alpha_;
  double staleness_exponent_;

  std::vector<Event> events_;  // min-heap via std::greater<Event>
  std::vector<InFlight> inflight_;
  std::vector<std::uint8_t> parked_;
  long version_ = 0;
  int reference_id_ = -1;
  int recorded_ = 0;
  double loss_acc_ = 0.0;
  double upload_acc_ = 0.0;
  int loss_count_ = 0;
};

}  // namespace helios::fl
