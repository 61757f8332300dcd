// The benchmark's three Helios workloads: how each is set up from a seed,
// and the traced round that re-drives HeliosStrategy::run_range one public
// call at a time under per-layer CPU timers.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/helios_strategy.h"
#include "core/rotation.h"
#include "core/soft_training.h"
#include "fl/fleet.h"
#include "fl/hierarchy.h"
#include "fl/metrics.h"
#include "fl/transport.h"
#include "obs/telemetry.h"
#include "sim/sampler.h"

namespace roundbench {

namespace agg = helios::agg;
namespace core = helios::core;
namespace fl = helios::fl;
namespace obs = helios::obs;
namespace sim = helios::sim;

/// Process CPU seconds (all threads), the benchmark's host clock.
double cpu_now();
/// Monotonic wall seconds.
double wall_now();

struct WorkloadSpec {
  std::string name;
  /// Rounds of the first timed pass: the simulated trajectory whose
  /// records give the simulated metrics.
  int rounds = 0;
  /// Rounds of every later pass (fresh set-up each): more set-up and round
  /// samples, and a bitwise replay of the trajectory's first rounds.
  int repeat_rounds = 0;
  /// Rounds at the start of each pass excluded from timing.
  int warmup = 0;
  /// Passes a timed run makes even past --seconds, so that its round count,
  /// and with it the tail percentile, does not depend on the host's speed.
  int min_passes = 1;
  /// Rounds the traced run drives (its first `warmup` are not averaged).
  int trace_rounds = 0;
  /// Accuracy whose first crossing on the virtual clock is
  /// virtual_s_to_target; reached within the first half of trace_rounds.
  double target_accuracy = 0.0;
  /// Correctness floor on final_accuracy.
  double accuracy_floor = 0.0;
};

/// Throws std::invalid_argument for an unknown name.
WorkloadSpec workload_spec(const std::string& name);

/// CPU seconds of the set-up steps the trace breaks out.
struct SetupTimes {
  double build_fleet = 0.0;  // population / data synthesis + fleet build
  double identify = 0.0;     // straggler identification
  double target = 0.0;       // target (volume) determination
  double total = 0.0;        // everything, sessions included
};

/// One fresh set-up of a workload: the fleet plus every session attached to
/// it. Sessions hold a reference to the fleet, so a Setup never moves.
class Setup {
 public:
  Setup(const WorkloadSpec& spec, std::uint64_t seed);
  ~Setup();
  Setup(const Setup&) = delete;
  Setup& operator=(const Setup&) = delete;

  fl::Fleet& fleet() { return *fleet_; }
  obs::TelemetrySink* telemetry() { return telemetry_.get(); }
  fl::NetworkSession* network() { return network_.get(); }
  fl::HierarchySession* hierarchy() { return hierarchy_.get(); }
  const SetupTimes& times() const { return times_; }

  /// Client updates attempted in `round`: the cohort the sampler draws
  /// (every active client without one). Pure; call before the round runs.
  std::size_t cohort_size(int round);
  /// Training samples the cohort of `round` processes.
  std::size_t cohort_samples(int round);

  /// Digest of the generated inputs (test set, initial global model,
  /// device profiles and shard sizes): equal for equal seeds.
  std::uint64_t input_digest();

 private:
  std::vector<fl::Client*> cohort(int round);

  std::unique_ptr<fl::Fleet> fleet_;
  std::unique_ptr<sim::CohortSampler> sampler_;
  std::unique_ptr<obs::TelemetrySink> telemetry_;
  std::unique_ptr<fl::NetworkSession> network_;
  std::unique_ptr<fl::HierarchySession> hierarchy_;
  SetupTimes times_;
};

/// Per-layer totals accumulated by traced rounds.
struct LayerTotals {
  int rounds = 0;
  double round_cpu = 0.0;
  double roster_cpu = 0.0;
  double select_cpu = 0.0;
  double replica_cpu = 0.0;
  double train_cpu = 0.0;
  double train_wall = 0.0;
  double deliver_cpu = 0.0;
  double advance_cpu = 0.0;
  double aggregate_cpu = 0.0;
  double bookkeeping_cpu = 0.0;
  double evaluate_cpu = 0.0;
  double cohort_devices = 0.0;
  double samples = 0.0;
  double trained_neurons = 0.0;
  double neuron_slots = 0.0;
  double live_replica_mb = 0.0;
  double frames_sent = 0.0;
  double retransmits = 0.0;
  double frames_lost = 0.0;
  double deadline_misses = 0.0;
  double attempted = 0.0;
  double delivered = 0.0;
  double edge_fold_s = 0.0;
  double regional_fold_s = 0.0;
  double root_fold_s = 0.0;
  double frames_folded = 0.0;
  /// Codec bytes measured here only on sessions without telemetry; with a
  /// telemetry sink main.cpp reads its helios.codec.* counters instead.
  double codec_raw_mb = 0.0;
  double codec_wire_mb = 0.0;
};

/// Helios' cross-round soft-training state, held outside the strategy so
/// the traced run can call SoftTrainer / RotationRegulator directly.
/// Mirrors HeliosStrategy's private per-straggler state.
class TracedHelios {
 public:
  explicit TracedHelios(core::HeliosConfig config = {});

  /// One Helios round through its public calls, in run_range's order,
  /// each timed with the process CPU clock. Appends to `result.rounds`
  /// exactly as HeliosStrategy::run_range(fleet, result, cycle, cycle + 1)
  /// does. When `totals` is null nothing is accumulated.
  void round(fl::Fleet& fleet, fl::RunResult& result, int cycle,
             LayerTotals* totals);

 private:
  struct StragglerState {
    std::unique_ptr<core::SoftTrainer> trainer;
    std::unique_ptr<core::RotationRegulator> regulator;
  };
  StragglerState& state_for(fl::Client& client);

  core::HeliosConfig config_;
  std::unordered_map<int, StragglerState> state_;
};

}  // namespace roundbench
