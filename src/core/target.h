// Optimization-target determination (paper Sec. IV-C): the expected model
// volume (keep ratio P) for each straggler.
//
// Two modes, matching the paper:
//  * pre-defined volume levels assigned by straggler rank (the volume is
//    then refined during the first cycles by HeliosStrategy's pace
//    adaptation);
//  * profiled volumes: binary-search the largest P whose cost-model cycle
//    time fits the collaboration pace and whose peak memory fits the
//    device's capacity.
#pragma once

#include <vector>

#include "core/straggler_id.h"
#include "fl/fleet.h"

namespace helios::core {

class TargetDeterminer {
 public:
  /// Default volume levels, strongest straggler first.
  static const std::vector<double>& default_levels();

  /// Assigns `levels[rank]` (clamped to the last level) to each straggler in
  /// slowest-first order and writes the volumes onto the clients.
  static void assign_predefined(fl::Fleet& fleet,
                                const StragglerReport& report,
                                const std::vector<double>& levels);

  /// Profiled determination: for each straggler, the largest keep ratio P in
  /// [min_volume, 1] such that the masked cost-model cycle time is at most
  /// `report.pace_seconds` and peak memory fits. Writes volumes onto
  /// clients; returns the chosen volumes in fleet order (1.0 for capable).
  /// The architecture-only cost of each distinct per-layer budget vector is
  /// evaluated once per call and shared by every probe of every straggler.
  static std::vector<double> assign_profiled(fl::Fleet& fleet,
                                             const StragglerReport& report,
                                             double min_volume = 0.05);

  /// Cost-model cycle time of `client` at volume P (uniform per-layer mask).
  static double cycle_seconds_at_volume(fl::Client& client, double volume);

  /// Largest keep ratio in [min_volume, 1] fitting `pace_seconds` and the
  /// device's memory capacity (the per-client kernel of assign_profiled).
  static double profile_volume(fl::Client& client, double pace_seconds,
                               double min_volume = 0.05);
};

}  // namespace helios::core
