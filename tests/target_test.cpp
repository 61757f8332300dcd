#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/straggler_id.h"
#include "core/target.h"
#include "device/cost_model.h"
#include "fl/submodel.h"
#include "sim/population.h"
#include "test_support.h"

namespace helios::core {
namespace {

using helios::testing::FleetOptions;
using helios::testing::make_fleet;

fl::Fleet identified_fleet() {
  FleetOptions o;
  o.stragglers = 2;
  fl::Fleet fleet = make_fleet(o);
  for (auto& c : fleet.clients()) c->set_straggler(false);
  const auto report = StragglerIdentifier::resource_based(fleet, 1.5);
  StragglerIdentifier::apply(fleet, report);
  return fleet;
}

TEST(Target, CycleSecondsMonotoneInVolume) {
  fl::Fleet fleet = identified_fleet();
  fl::Client& straggler = fleet.client(3);
  const double t25 = TargetDeterminer::cycle_seconds_at_volume(straggler, 0.25);
  const double t50 = TargetDeterminer::cycle_seconds_at_volume(straggler, 0.5);
  const double t100 = TargetDeterminer::cycle_seconds_at_volume(straggler, 1.0);
  EXPECT_LT(t25, t50);
  EXPECT_LT(t50, t100);
  EXPECT_DOUBLE_EQ(t100, straggler.estimate_cycle_seconds({}));
}

TEST(Target, ProfiledVolumeFitsPace) {
  fl::Fleet fleet = identified_fleet();
  const auto report = StragglerIdentifier::resource_based(fleet, 1.5);
  const auto volumes = TargetDeterminer::assign_profiled(fleet, report);
  ASSERT_EQ(volumes.size(), 4u);
  EXPECT_DOUBLE_EQ(volumes[0], 1.0);
  EXPECT_DOUBLE_EQ(volumes[1], 1.0);
  for (std::size_t i = 2; i < 4; ++i) {
    EXPECT_LT(volumes[i], 1.0);
    EXPECT_GE(volumes[i], 0.05);
    // Binary search guarantee: chosen volume's cycle fits the pace (with a
    // small numerical slack), unless clamped at min_volume.
    fl::Client& c = fleet.client(i);
    if (volumes[i] > 0.05 + 1e-9) {
      EXPECT_LE(TargetDeterminer::cycle_seconds_at_volume(c, volumes[i]),
                report.pace_seconds * 1.02);
    }
    EXPECT_DOUBLE_EQ(c.volume(), volumes[i]);
  }
}

TEST(Target, ProfiledVolumeIsMaximalUpToSearchResolution) {
  fl::Fleet fleet = identified_fleet();
  const auto report = StragglerIdentifier::resource_based(fleet, 1.5);
  const auto volumes = TargetDeterminer::assign_profiled(fleet, report);
  fl::Client& c = fleet.client(3);
  if (volumes[3] < 0.93 && volumes[3] > 0.06) {
    EXPECT_GT(
        TargetDeterminer::cycle_seconds_at_volume(c, volumes[3] + 0.07),
        report.pace_seconds);
  }
}

TEST(Target, PredefinedLevelsAssignSlowerToSmaller) {
  fl::Fleet fleet = identified_fleet();
  const auto report = StragglerIdentifier::resource_based(fleet, 1.5);
  TargetDeterminer::assign_predefined(fleet, report, {0.5, 0.25});
  // Slowest straggler gets the last (most aggressive) level.
  int slowest_id = report.timings.front().client_id;
  double slowest_volume = 0.0, other_volume = 0.0;
  for (auto& c : fleet.clients()) {
    if (!c->is_straggler()) continue;
    if (c->id() == slowest_id) {
      slowest_volume = c->volume();
    } else {
      other_volume = c->volume();
    }
  }
  EXPECT_DOUBLE_EQ(slowest_volume, 0.25);
  EXPECT_DOUBLE_EQ(other_volume, 0.5);
}

TEST(Target, PredefinedRejectsEmptyLevels) {
  fl::Fleet fleet = identified_fleet();
  const auto report = StragglerIdentifier::resource_based(fleet, 1.5);
  EXPECT_THROW(TargetDeterminer::assign_predefined(fleet, report, {}),
               std::invalid_argument);
}

TEST(Target, ProfileVolumeValidatesArguments) {
  fl::Fleet fleet = identified_fleet();
  fl::Client& c = fleet.client(3);
  EXPECT_THROW(TargetDeterminer::profile_volume(c, 0.0), std::invalid_argument);
  EXPECT_THROW(TargetDeterminer::profile_volume(c, 1.0, 0.0),
               std::invalid_argument);
}

TEST(Target, ImpossiblePaceFallsBackToMinVolume) {
  fl::Fleet fleet = identified_fleet();
  fl::Client& c = fleet.client(3);
  const double v = TargetDeterminer::profile_volume(c, 1e-9, 0.05);
  EXPECT_DOUBLE_EQ(v, 0.05);
}

TEST(Target, DefaultLevelsAreDescendingInRange) {
  const auto& levels = TargetDeterminer::default_levels();
  ASSERT_FALSE(levels.empty());
  for (std::size_t i = 1; i < levels.size(); ++i) {
    EXPECT_LT(levels[i], levels[i - 1]);
  }
  for (double l : levels) {
    EXPECT_GT(l, 0.0);
    EXPECT_LE(l, 1.0);
  }
}

// ---- Equivalence with the unmemoized evaluator and the fleet scan ----------
//
// Reference implementations without the cost table or the id lookup (the
// cost model formula spelled out too): every probe installs a first-k_i
// mask on the estimation model and re-walks it, and every straggler id
// scans the fleet. The library must match them bit for bit.

double reference_cycle_seconds(fl::Client& client,
                               std::span<const std::uint8_t> mask) {
  nn::Model& model = client.estimation_model();
  if (mask.empty()) {
    model.clear_neuron_mask();
  } else {
    model.set_neuron_mask(mask);
  }
  const double steps = static_cast<double>(client.num_samples()) *
                       client.config().local_epochs;
  device::WorkloadEstimate w;
  w.train_gflops = model.train_flops_per_sample() * steps / 1.0e9;
  const double param_bytes = static_cast<double>(model.param_count()) * 4.0;
  const double act_bytes = model.activation_numel_per_sample() * 4.0;
  w.mem_traffic_mb = (act_bytes * 2.0 * steps + param_bytes) / 1.0e6;
  const auto& frozen = model.frozen_flat_mask();
  std::size_t uploaded = model.param_count();
  if (!frozen.empty()) {
    std::size_t frozen_count = 0;
    for (auto b : frozen) frozen_count += (b != 0);
    uploaded -= frozen_count;
  }
  w.upload_mb = static_cast<double>(uploaded) * 4.0 / 1.0e6;
  model.clear_neuron_mask();
  return device::total_cycle_seconds(client.profile(), w);
}

double reference_cycle_seconds_at_volume(fl::Client& client, double volume) {
  if (volume >= 1.0) return reference_cycle_seconds(client, {});
  nn::Model& model = client.estimation_model();
  const auto ranges = fl::layer_ranges(model);
  const auto budgets = fl::layer_budgets(ranges, volume);
  std::vector<std::uint8_t> mask(
      static_cast<std::size_t>(model.neuron_total()), 0);
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    for (int j = 0; j < budgets[i]; ++j) {
      mask[static_cast<std::size_t>(ranges[i].begin + j)] = 1;
    }
  }
  return reference_cycle_seconds(client, mask);
}

double reference_peak_memory_mb(nn::Model& model, int batch_size) {
  const double param_bytes = static_cast<double>(model.param_count()) * 4.0;
  const double act_bytes =
      model.activation_numel_per_sample() * 4.0 * batch_size;
  return (2.0 * param_bytes + 2.0 * act_bytes) / 1.0e6;
}

double reference_profile_volume(fl::Client& client, double pace_seconds,
                                double min_volume) {
  double lo = min_volume, hi = 1.0;
  if (reference_cycle_seconds_at_volume(client, lo) > pace_seconds) {
    return min_volume;
  }
  for (int iter = 0; iter < 20; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (reference_cycle_seconds_at_volume(client, mid) <= pace_seconds) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  double chosen = lo;
  while (chosen > min_volume &&
         reference_peak_memory_mb(client.estimation_model(),
                                  client.config().batch_size) *
                 chosen >
             client.profile().memory_mb) {
    chosen = std::max(min_volume, chosen - 0.05);
  }
  return chosen;
}

void reference_assign_predefined(fl::Fleet& fleet,
                                 const StragglerReport& report,
                                 const std::vector<double>& levels) {
  std::vector<int> straggler_order;
  for (const auto& t : report.timings) {
    if (t.straggler) straggler_order.push_back(t.client_id);
  }
  for (std::size_t rank = 0; rank < straggler_order.size(); ++rank) {
    const std::size_t level_idx =
        levels.size() - 1 - std::min(rank, levels.size() - 1);
    for (auto& c : fleet.clients()) {
      if (c->id() == straggler_order[rank]) {
        c->set_volume(levels[level_idx]);
      }
    }
  }
}

// Bitwise equality of two double sequences (EXPECT_EQ on doubles would let
// -0.0 == 0.0 through).
void expect_bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
      << what;
}

std::vector<double> volumes_of(fl::Fleet& fleet) {
  std::vector<double> out;
  for (auto& c : fleet.clients()) out.push_back(c->volume());
  return out;
}

fl::Fleet lazy_longtail(int devices) {
  sim::PopulationConfig cfg = sim::mobile_longtail(devices);
  cfg.lazy_data = true;
  return sim::build_fleet(sim::PopulationGenerator(cfg));
}

// The long-tail population with per-client epochs, batch sizes and memory
// capacities varied (some too small for the full model), built from
// factories planning must never call.
fl::Fleet mixed_longtail(int devices) {
  sim::PopulationConfig cfg = sim::mobile_longtail(devices);
  cfg.lazy_data = true;
  const sim::PopulationGenerator pop(cfg);
  fl::Fleet fleet(cfg.model, helios::testing::tiny_dataset(16), cfg.seed);
  const double full_mb =
      device::peak_memory_mb(fleet.server().reference_model(), 32);
  for (int i = 0; i < devices; ++i) {
    const sim::DeviceSpec d = pop.device(i);
    fl::ClientConfig cc;
    cc.seed = static_cast<std::uint64_t>(1000 + i);
    cc.local_epochs = 1 + i % 3;
    cc.batch_size = 8 << (i % 3);
    device::ResourceProfile profile = d.profile;
    if (i % 5 == 0) profile.memory_mb = full_mb * (0.1 + 0.1 * (i % 7));
    fleet.add_client(
        []() -> data::Dataset {
          throw std::logic_error("planning materialized a shard");
        },
        static_cast<std::size_t>(d.shard_samples), cc, profile);
  }
  return fleet;
}

void expect_same_targets(fl::Fleet& fleet, double min_volume,
                         const char* what) {
  const StragglerReport report = StragglerIdentifier::time_based(
      fleet, static_cast<int>(fleet.size() / 4));
  StragglerIdentifier::apply(fleet, report);
  for (auto& c : fleet.clients()) c->set_volume(1.0);
  const std::vector<double> volumes =
      TargetDeterminer::assign_profiled(fleet, report, min_volume);
  std::vector<double> expected(fleet.size(), 1.0);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    fl::Client& c = fleet.client(i);
    if (c.is_straggler()) {
      expected[i] =
          reference_profile_volume(c, report.pace_seconds, min_volume);
    }
  }
  expect_bitwise_equal(volumes, expected, what);
  expect_bitwise_equal(volumes_of(fleet), expected, what);

  // The single-client entry points agree too, at other paces and at the
  // volumes the search probes.
  for (std::size_t i = 0; i < fleet.size(); i += 97) {
    fl::Client& c = fleet.client(i);
    for (double pace : {report.pace_seconds * 0.3, report.pace_seconds * 2.0}) {
      expect_bitwise_equal(
          {TargetDeterminer::profile_volume(c, pace, min_volume)},
          {reference_profile_volume(c, pace, min_volume)}, what);
    }
    for (double v : {min_volume, 0.3, 0.5 + 1e-7, 1.0}) {
      expect_bitwise_equal({TargetDeterminer::cycle_seconds_at_volume(c, v)},
                           {reference_cycle_seconds_at_volume(c, v)}, what);
    }
  }
}

TEST(Target, ProfiledMatchesUnmemoizedEvaluatorOnLongTailPopulation) {
  fl::Fleet fleet = lazy_longtail(2048);
  expect_same_targets(fleet, 0.05, "mobile_longtail(2048)");
}

TEST(Target, ProfiledMatchesUnmemoizedEvaluatorOnMixedPopulation) {
  fl::Fleet fleet = mixed_longtail(2048);
  expect_same_targets(fleet, 0.05, "mixed epochs/batch/memory");
  expect_same_targets(fleet, 0.3, "min_volume 0.3");
  // min_volume 1.0 probes only the unmasked model.
  expect_same_targets(fleet, 1.0, "min_volume 1.0");
  for (auto& c : fleet.clients()) EXPECT_FALSE(c->materialized());
}

TEST(Target, PredefinedMatchesFleetScan) {
  fl::Fleet reference = lazy_longtail(2048);
  fl::Fleet indexed = lazy_longtail(2048);
  StragglerReport report = StragglerIdentifier::time_based(indexed, 512);
  // A repeated straggler id (its later rank wins) and ids outside the fleet
  // (ignored) ride along.
  report.timings.push_back(report.timings[3]);
  report.timings.push_back({-1, 1.0, true});
  report.timings.push_back({2048, 1.0, true});
  const std::vector<double> levels = TargetDeterminer::default_levels();
  reference_assign_predefined(reference, report, levels);
  TargetDeterminer::assign_predefined(indexed, report, levels);
  expect_bitwise_equal(volumes_of(reference), volumes_of(indexed),
                       "assign_predefined");
}

}  // namespace
}  // namespace helios::core
