#include "core/scalability.h"

#include <algorithm>
#include <stdexcept>

#include "device/cost_model.h"

namespace helios::core {

ScalabilityManager::ScalabilityManager(bool use_profiling, double pace_factor,
                                       double min_volume)
    : use_profiling_(use_profiling),
      pace_factor_(pace_factor),
      min_volume_(min_volume) {
  if (pace_factor <= 1.0) {
    throw std::invalid_argument("ScalabilityManager: pace_factor <= 1");
  }
  if (min_volume <= 0.0 || min_volume > 1.0) {
    throw std::invalid_argument("ScalabilityManager: bad min_volume");
  }
}

AdmissionResult ScalabilityManager::admit(fl::Fleet& fleet, int client_id) {
  fl::Client* joining = fleet.find_client(client_id);
  if (!joining) throw std::invalid_argument("admit: unknown client");

  // Collaboration pace: the slowest *capable* existing device. Profiling
  // evaluates the architecture-only cost terms of the full model once —
  // they are the same for every client of the fleet — and prices each
  // device's cycle from them, so admission walks the model once, not once
  // per device.
  device::CostTerms terms;
  if (use_profiling_) terms = joining->cost_terms({});
  auto cycle = [&](fl::Client& c) {
    return use_profiling_ ? c.cycle_seconds(terms) : c.testbench_seconds(5);
  };
  double pace = 0.0;
  for (auto& c : fleet.clients()) {
    if (c->id() == client_id || c->is_straggler()) continue;
    pace = std::max(pace, cycle(*c));
  }
  AdmissionResult result;
  result.client_id = client_id;
  result.pace_seconds = pace;
  result.estimated_cycle_seconds = cycle(*joining);
  if (pace <= 0.0) {
    // First device, or all existing devices straggle: joins as capable.
    return result;
  }

  if (result.estimated_cycle_seconds > pace_factor_ * pace) {
    result.straggler = true;
    joining->set_straggler(true);
    // Profiled target determination against the measured pace — only the
    // joining device's volume is (re)assigned.
    result.volume =
        TargetDeterminer::profile_volume(*joining, pace, min_volume_);
    joining->set_volume(result.volume);
  }
  return result;
}

}  // namespace helios::core
