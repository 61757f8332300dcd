// Analytic training-cost model (paper Sec. IV-B, resource-based profiling):
//     Te = W / C_cpu + M / V_mc + M / B_n
// where W is the training compute workload, M the memory traffic, and the
// denominators come from the device's ResourceProfile. The same model drives
// (a) straggler identification, (b) optimization-target determination, and
// (c) the event-driven virtual clock of every simulated experiment.
#pragma once

#include "device/resource.h"
#include "nn/model.h"

namespace helios::device {

/// Per-cycle workload of local training, in device-independent units.
struct WorkloadEstimate {
  /// W — total training compute for the cycle, GFLOP.
  double train_gflops = 0.0;
  /// M — memory traffic for the cycle (parameters + activations), MB.
  double mem_traffic_mb = 0.0;
  /// Parameter upload volume at aggregation (only trained neurons), MB.
  double upload_mb = 0.0;
};

/// The architecture-only terms of the cost model for `model` under its
/// *current* mask. A workload is these terms scaled by the cycle's step count
/// and a peak footprint is them scaled by the batch, so planning code can
/// evaluate them once per mask shape and reuse them across devices.
struct CostTerms {
  double train_flops_per_sample = 0.0;
  double activation_numel_per_sample = 0.0;
  std::size_t param_count = 0;
  /// Parameters of neurons that actually train (all when unmasked).
  std::size_t uploaded_params = 0;
};

CostTerms cost_terms(nn::Model& model);

/// One local training cycle: `samples_per_epoch * local_epochs`
/// optimization steps' worth of compute over `terms`.
WorkloadEstimate estimate_workload(const CostTerms& terms,
                                   int samples_per_epoch, int local_epochs);

/// Estimates one local training cycle of `model` under its *current* mask.
WorkloadEstimate estimate_workload(nn::Model& model, int samples_per_epoch,
                                   int local_epochs);

/// Te for the training part (W/C + M/V), seconds of virtual time.
double training_cycle_seconds(const ResourceProfile& p,
                              const WorkloadEstimate& w);

/// Upload time at aggregation (M_upload / B_n), seconds of virtual time.
double upload_seconds(const ResourceProfile& p, const WorkloadEstimate& w);

/// Full cycle: training + upload.
double total_cycle_seconds(const ResourceProfile& p,
                           const WorkloadEstimate& w);

/// Paper-scale AlexNet/CIFAR-10 cycle workload used by the Table I
/// reproduction (the lite models in this repo are width-scaled, so Table I's
/// absolute minutes are reproduced from the paper-scale figure instead).
WorkloadEstimate paper_alexnet_cycle_workload(double memory_usage_mb);

/// Estimated peak training memory (parameters + gradients + activations for
/// one batch), MB — compared against ResourceProfile::memory_mb when
/// determining optimization targets.
double peak_memory_mb(const CostTerms& terms, int batch_size);
double peak_memory_mb(nn::Model& model, int batch_size);

}  // namespace helios::device
