#include <algorithm>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "core/straggler_id.h"
#include "sim/population.h"
#include "test_support.h"

namespace helios::core {
namespace {

using helios::testing::FleetOptions;
using helios::testing::make_fleet;

FleetOptions unflagged() {
  FleetOptions o;
  o.stragglers = 2;  // clients 2,3 get slow profiles
  return o;
}

fl::Fleet fresh_fleet() {
  fl::Fleet fleet = make_fleet(unflagged());
  // Clear the helper's pre-flagging: identification is under test here.
  for (auto& c : fleet.clients()) {
    c->set_straggler(false);
  }
  return fleet;
}

TEST(TimeBased, RanksSlowestFirst) {
  fl::Fleet fleet = fresh_fleet();
  const StragglerReport report =
      StragglerIdentifier::time_based(fleet, /*top_k=*/2);
  ASSERT_EQ(report.timings.size(), 4u);
  for (std::size_t i = 1; i < report.timings.size(); ++i) {
    EXPECT_GE(report.timings[i - 1].seconds, report.timings[i].seconds);
  }
  // The two DeepLens-profile clients (ids 2, 3) are the slowest.
  auto ids = report.straggler_ids();
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<int>{2, 3}));
}

TEST(TimeBased, TopKBoundsValidated) {
  fl::Fleet fleet = fresh_fleet();
  EXPECT_THROW(StragglerIdentifier::time_based(fleet, 4),
               std::invalid_argument);
  EXPECT_THROW(StragglerIdentifier::time_based(fleet, -1),
               std::invalid_argument);
  // top_k = 0 is legal: no stragglers.
  const auto report = StragglerIdentifier::time_based(fleet, 0);
  EXPECT_TRUE(report.straggler_ids().empty());
}

TEST(ResourceBased, FlagsSlowDevices) {
  fl::Fleet fleet = fresh_fleet();
  const StragglerReport report =
      StragglerIdentifier::resource_based(fleet, 1.5);
  auto ids = report.straggler_ids();
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<int>{2, 3}));
  EXPECT_GT(report.pace_seconds, 0.0);
}

TEST(ResourceBased, PaceIsSlowestCapableDevice) {
  fl::Fleet fleet = fresh_fleet();
  const StragglerReport report =
      StragglerIdentifier::resource_based(fleet, 1.5);
  double expected = 0.0;
  for (const auto& t : report.timings) {
    if (!t.straggler) expected = std::max(expected, t.seconds);
  }
  EXPECT_DOUBLE_EQ(report.pace_seconds, expected);
}

TEST(ResourceBased, NeverFlagsEveryone) {
  FleetOptions o;
  o.clients = 3;
  o.stragglers = 3;  // all slow profiles
  fl::Fleet fleet = make_fleet(o);
  for (auto& c : fleet.clients()) c->set_straggler(false);
  const auto report = StragglerIdentifier::resource_based(fleet, 1.01);
  int flagged = 0;
  for (const auto& t : report.timings) flagged += t.straggler;
  EXPECT_LT(flagged, 3);
}

TEST(ResourceBased, PaceFactorValidated) {
  fl::Fleet fleet = fresh_fleet();
  EXPECT_THROW(StragglerIdentifier::resource_based(fleet, 1.0),
               std::invalid_argument);
}

TEST(Apply, WritesFlagsOntoClients) {
  fl::Fleet fleet = fresh_fleet();
  const auto report = StragglerIdentifier::resource_based(fleet, 1.5);
  StragglerIdentifier::apply(fleet, report);
  EXPECT_FALSE(fleet.client(0).is_straggler());
  EXPECT_FALSE(fleet.client(1).is_straggler());
  EXPECT_TRUE(fleet.client(2).is_straggler());
  EXPECT_TRUE(fleet.client(3).is_straggler());
}

TEST(TimeBasedAndResourceBased, AgreeOnThisFleet) {
  fl::Fleet fleet = fresh_fleet();
  auto a = StragglerIdentifier::time_based(fleet, 2).straggler_ids();
  auto b = StragglerIdentifier::resource_based(fleet, 1.5).straggler_ids();
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

// ---- Equivalence with the fleet-scanning apply ------------------------------

// Reference apply: every report entry scans the whole fleet for its id.
// StragglerIdentifier::apply must set the same flags through the O(1) lookup.
void reference_apply(fl::Fleet& fleet, const StragglerReport& report) {
  for (const auto& t : report.timings) {
    for (auto& c : fleet.clients()) {
      if (c->id() == t.client_id) c->set_straggler(t.straggler);
    }
  }
}

fl::Fleet lazy_longtail(int devices) {
  sim::PopulationConfig cfg = sim::mobile_longtail(devices);
  cfg.lazy_data = true;
  return sim::build_fleet(sim::PopulationGenerator(cfg));
}

// A flag pattern the report does not produce, so entries the apply ignores
// stay visible in the comparison.
void preset_flags(fl::Fleet& fleet) {
  for (auto& c : fleet.clients()) c->set_straggler(c->id() % 3 == 0);
}

std::vector<bool> flags_of(fl::Fleet& fleet) {
  std::vector<bool> out;
  for (auto& c : fleet.clients()) out.push_back(c->is_straggler());
  return out;
}

void expect_same_apply(fl::Fleet& reference, fl::Fleet& indexed,
                       const StragglerReport& report, const char* what) {
  preset_flags(reference);
  preset_flags(indexed);
  reference_apply(reference, report);
  StragglerIdentifier::apply(indexed, report);
  EXPECT_EQ(flags_of(reference), flags_of(indexed)) << what;
}

TEST(Apply, MatchesFleetScanOnLongTailPopulation) {
  const int kDevices = 2048;
  fl::Fleet reference = lazy_longtail(kDevices);
  fl::Fleet indexed = lazy_longtail(kDevices);
  const StragglerReport report =
      StragglerIdentifier::time_based(indexed, kDevices / 4);
  expect_same_apply(reference, indexed, report, "slowest-first report");

  StragglerReport shuffled = report;
  std::mt19937 gen(7);
  std::shuffle(shuffled.timings.begin(), shuffled.timings.end(), gen);
  expect_same_apply(reference, indexed, shuffled, "shuffled report");

  // Repeated ids: the last entry of an id wins, whichever flag it carries.
  StragglerReport repeated = shuffled;
  for (std::size_t i = 0; i < 64; ++i) {
    DeviceTiming t = shuffled.timings[i * 17];
    t.straggler = !t.straggler;
    repeated.timings.insert(repeated.timings.begin() +
                                static_cast<std::ptrdiff_t>(i * 5),
                            t);
    if (i % 2 == 0) repeated.timings.push_back(t);
  }
  expect_same_apply(reference, indexed, repeated, "repeated ids");

  // Ids outside the fleet are ignored.
  StragglerReport unknown = shuffled;
  for (int id : {-1, -7, kDevices, kDevices + 5}) {
    unknown.timings.push_back({id, 1.0, true});
  }
  expect_same_apply(reference, indexed, unknown, "unknown ids");

  // The report's flags landed: ignored ids left the preset pattern alone.
  preset_flags(indexed);
  StragglerIdentifier::apply(indexed, report);
  for (const DeviceTiming& t : report.timings) {
    EXPECT_EQ(indexed.client(static_cast<std::size_t>(t.client_id))
                  .is_straggler(),
              t.straggler);
  }
}

}  // namespace
}  // namespace helios::core
