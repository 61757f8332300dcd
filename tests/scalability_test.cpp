#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "core/scalability.h"
#include "sim/population.h"
#include "test_support.h"

namespace helios::core {
namespace {

using helios::testing::FleetOptions;
using helios::testing::make_fleet;

fl::Fleet base_fleet() {
  FleetOptions o;
  o.clients = 3;
  o.stragglers = 1;
  return make_fleet(o);
}

TEST(Scalability, CapableJoinerAdmittedAsCapable) {
  fl::Fleet fleet = base_fleet();
  fl::ClientConfig cfg;
  cfg.seed = 99;
  fl::Client& joiner = fleet.add_client(
      helios::testing::tiny_dataset(48), cfg,
      device::sim_scaled(device::edge_server()));
  ScalabilityManager mgr;
  const AdmissionResult res = mgr.admit(fleet, joiner.id());
  EXPECT_FALSE(res.straggler);
  EXPECT_DOUBLE_EQ(res.volume, 1.0);
  EXPECT_FALSE(joiner.is_straggler());
  EXPECT_GT(res.pace_seconds, 0.0);
}

TEST(Scalability, SlowJoinerFlaggedAndShrunk) {
  fl::Fleet fleet = base_fleet();
  fl::ClientConfig cfg;
  cfg.seed = 100;
  fl::Client& joiner = fleet.add_client(
      helios::testing::tiny_dataset(48), cfg,
      device::sim_scaled(device::deeplens_cpu()));
  ScalabilityManager mgr;
  const AdmissionResult res = mgr.admit(fleet, joiner.id());
  EXPECT_TRUE(res.straggler);
  EXPECT_TRUE(joiner.is_straggler());
  EXPECT_LT(res.volume, 1.0);
  EXPECT_DOUBLE_EQ(joiner.volume(), res.volume);
  EXPECT_GT(res.estimated_cycle_seconds, res.pace_seconds);
}

TEST(Scalability, ExistingStragglersUnaffectedByAdmission) {
  fl::Fleet fleet = base_fleet();
  const double existing_volume = fleet.client(2).volume();
  fl::ClientConfig cfg;
  cfg.seed = 101;
  fl::Client& joiner = fleet.add_client(
      helios::testing::tiny_dataset(48), cfg,
      device::sim_scaled(device::deeplens_gpu()));
  ScalabilityManager mgr;
  mgr.admit(fleet, joiner.id());
  EXPECT_DOUBLE_EQ(fleet.client(2).volume(), existing_volume);
}

TEST(Scalability, TimeBasedAdmissionAlsoWorks) {
  fl::Fleet fleet = base_fleet();
  fl::ClientConfig cfg;
  cfg.seed = 102;
  fl::Client& joiner = fleet.add_client(
      helios::testing::tiny_dataset(48), cfg,
      device::sim_scaled(device::deeplens_cpu()));
  ScalabilityManager mgr(/*use_profiling=*/false);
  const AdmissionResult res = mgr.admit(fleet, joiner.id());
  EXPECT_TRUE(res.straggler);
}

TEST(Scalability, UnknownClientRejected) {
  fl::Fleet fleet = base_fleet();
  ScalabilityManager mgr;
  EXPECT_THROW(mgr.admit(fleet, 77), std::invalid_argument);
}

TEST(Scalability, ValidatesConstruction) {
  EXPECT_THROW(ScalabilityManager(true, 1.0), std::invalid_argument);
  EXPECT_THROW(ScalabilityManager(true, 2.0, 0.0), std::invalid_argument);
}

// ScalabilityManager::admit as it was before the cost terms were shared:
// every capable device's cycle re-estimated through its own model walk.
AdmissionResult reference_admit(fl::Fleet& fleet, int client_id,
                                bool use_profiling, double pace_factor,
                                double min_volume) {
  fl::Client* joining = fleet.find_client(client_id);
  double pace = 0.0;
  for (auto& c : fleet.clients()) {
    if (c->id() == client_id || c->is_straggler()) continue;
    pace = std::max(pace, use_profiling
                              ? c->estimate_cycle_seconds({})
                              : c->testbench_seconds(5));
  }
  AdmissionResult result;
  result.client_id = client_id;
  result.pace_seconds = pace;
  result.estimated_cycle_seconds =
      use_profiling ? joining->estimate_cycle_seconds({})
                    : joining->testbench_seconds(5);
  if (pace <= 0.0) {
    return result;
  }
  if (result.estimated_cycle_seconds > pace_factor * pace) {
    result.straggler = true;
    joining->set_straggler(true);
    result.volume =
        TargetDeterminer::profile_volume(*joining, pace, min_volume);
    joining->set_volume(result.volume);
  }
  return result;
}

std::vector<double> admission_fields(const AdmissionResult& r) {
  return {static_cast<double>(r.client_id), r.straggler ? 1.0 : 0.0, r.volume,
          r.estimated_cycle_seconds, r.pace_seconds};
}

std::vector<double> fleet_state(fl::Fleet& fleet) {
  std::vector<double> out;
  for (auto& c : fleet.clients()) {
    out.push_back(c->volume());
    out.push_back(c->is_straggler() ? 1.0 : 0.0);
  }
  return out;
}

void expect_bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
      << what;
}

TEST(Scalability, AdmitMatchesPerDeviceReestimationOnLongTailJoiners) {
  constexpr int kDevices = 2048;
  sim::PopulationConfig cfg = sim::mobile_longtail(kDevices);
  cfg.lazy_data = true;
  const sim::PopulationGenerator pop(cfg);
  for (bool profiling : {true, false}) {
    fl::Fleet reference = sim::build_fleet(pop);
    fl::Fleet shared = sim::build_fleet(pop);
    // Flag every device slower than 1.5x the fastest, so the pace is set by
    // the capable devices and the slow joiners straggle against it.
    for (fl::Fleet* fleet : {&reference, &shared}) {
      StragglerIdentifier::apply(*fleet,
                                 StragglerIdentifier::resource_based(*fleet));
    }
    ScalabilityManager mgr(profiling);
    int flagged = 0;
    for (int j = 0; j < 16; ++j) {
      const int id = sim::add_device(reference, pop, kDevices + j).id();
      ASSERT_EQ(sim::add_device(shared, pop, kDevices + j).id(), id);
      const AdmissionResult want =
          reference_admit(reference, id, profiling, 1.5, 0.05);
      const AdmissionResult got = mgr.admit(shared, id);
      expect_bitwise_equal(admission_fields(want), admission_fields(got),
                           profiling ? "profiling" : "test bench");
      flagged += got.straggler ? 1 : 0;
    }
    // Both outcomes occur, so the volume assignment is on the compared path.
    EXPECT_GT(flagged, 0);
    EXPECT_LT(flagged, 16);
    expect_bitwise_equal(fleet_state(reference), fleet_state(shared),
                         profiling ? "profiling" : "test bench");
    for (auto& c : shared.clients()) EXPECT_FALSE(c->materialized());
  }
}

}  // namespace
}  // namespace helios::core
