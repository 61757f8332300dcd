// Tests for the extension features: FedProx, top-k update compression, and
// communication accounting.
#include <gtest/gtest.h>

#include <cmath>

#include "core/helios_strategy.h"
#include "fl/compression.h"
#include "fl/fedprox.h"
#include "fl/sync.h"
#include "test_support.h"

namespace helios::fl {
namespace {

using helios::testing::FleetOptions;
using helios::testing::make_fleet;

TEST(FedProx, RunsAndLearns) {
  FleetOptions o;
  o.samples_per_client = 64;
  Fleet fleet = make_fleet(o);
  FedProx strategy(0.01F);
  const RunResult res = strategy.run(fleet, 10);
  EXPECT_EQ(res.method, "FedProx");
  ASSERT_EQ(res.rounds.size(), 10u);
  EXPECT_GT(res.final_accuracy(3), 0.40);
}

TEST(FedProx, StragglersDoLessWorkSoRoundsAreFaster) {
  Fleet prox_fleet = make_fleet();
  Fleet sync_fleet = make_fleet();
  const RunResult prox = FedProx(0.01F).run(prox_fleet, 3);
  const RunResult sync = SyncFL().run(sync_fleet, 3);
  EXPECT_LT(prox.rounds.back().virtual_time,
            sync.rounds.back().virtual_time);
}

TEST(FedProx, ValidatesArguments) {
  EXPECT_THROW(FedProx(-0.1F), std::invalid_argument);
  EXPECT_THROW(FedProx(0.1F, 0.0), std::invalid_argument);
  EXPECT_THROW(FedProx(0.1F, 1.5), std::invalid_argument);
}

TEST(FedProx, ProximalTermShrinksDriftFromGlobal) {
  // With a huge mu, local training barely moves from the anchor.
  FleetOptions o;
  o.clients = 2;
  o.stragglers = 0;
  Fleet free_fleet = make_fleet(o);
  Fleet anchored_fleet = make_fleet(o);
  auto drift = [](Fleet& fleet, float mu) {
    Client& c = fleet.client(0);
    c.set_proximal_mu(mu);
    const auto base = fleet.server().global();
    const ClientUpdate u =
        c.run_cycle(base, fleet.server().global_buffers(), {});
    double d = 0.0;
    for (std::size_t f = 0; f < base.size(); ++f) {
      const double e = u.params[f] - base[f];
      d += e * e;
    }
    return std::sqrt(d);
  };
  EXPECT_LT(drift(anchored_fleet, 50.0F), 0.5 * drift(free_fleet, 0.0F));
}

TEST(WorkScale, ReducesTimeAndIsValidated) {
  Fleet fleet = make_fleet();
  Client& c = fleet.client(0);
  const auto base = fleet.server().global();
  const auto buffers = fleet.server().global_buffers();
  const ClientUpdate full = c.run_cycle(base, buffers, {}, 1.0);
  const ClientUpdate half = c.run_cycle(base, buffers, {}, 0.5);
  EXPECT_LT(half.train_seconds, full.train_seconds);
  EXPECT_THROW(c.run_cycle(base, buffers, {}, 0.0), std::invalid_argument);
  EXPECT_THROW(c.run_cycle(base, buffers, {}, 1.5), std::invalid_argument);
}

TEST(Compression, TopKKeepsLargestDeltas) {
  ClientUpdate u;
  u.params = {1.0F, 2.0F, 3.0F, 4.0F, 5.0F};
  u.upload_mb = 10.0;
  u.upload_seconds = 2.0;
  const std::vector<float> base{1.0F, 0.0F, 3.0F, 0.0F, 4.0F};
  // Deltas: 0, 2, 0, 4, 1 -> eligible {1, 3, 4}; keep top 2/3.
  const CompressionStats stats = compress_update_topk(u, base, 0.67);
  EXPECT_EQ(stats.total_entries, 3u);
  EXPECT_EQ(stats.kept_entries, 2u);
  EXPECT_EQ(u.params[1], 2.0F);   // |delta|=2 kept
  EXPECT_EQ(u.params[3], 4.0F);   // |delta|=4 kept
  EXPECT_EQ(u.params[4], 4.0F);   // |delta|=1 reverted to base
  EXPECT_NEAR(u.upload_mb, 10.0 * 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(u.upload_seconds, 2.0 * 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(stats.relative_error, 1.0 / std::sqrt(1 + 4 + 16), 1e-6);
}

TEST(Compression, FullKeepIsNoOp) {
  ClientUpdate u;
  u.params = {1.0F, 5.0F};
  u.upload_mb = 3.0;
  const std::vector<float> base{0.0F, 0.0F};
  const CompressionStats stats = compress_update_topk(u, base, 1.0);
  EXPECT_EQ(stats.kept_entries, 2u);
  EXPECT_EQ(stats.relative_error, 0.0);
  EXPECT_EQ(u.upload_mb, 3.0);
}

TEST(Compression, Validation) {
  ClientUpdate u;
  u.params = {1.0F};
  const std::vector<float> base{0.0F, 0.0F};
  EXPECT_THROW(compress_update_topk(u, base, 0.5), std::invalid_argument);
  u.params = {1.0F, 2.0F};
  EXPECT_THROW(compress_update_topk(u, base, 0.0), std::invalid_argument);
  EXPECT_THROW(compress_update_topk(u, base, 1.1), std::invalid_argument);
}

TEST(Compression, CompressedSyncStillLearns) {
  FleetOptions o;
  o.samples_per_client = 64;
  o.stragglers = 0;
  Fleet fleet = make_fleet(o);
  CompressedSyncFL strategy(0.25);
  const RunResult res = strategy.run(fleet, 10);
  EXPECT_EQ(res.method, "Syn. FL + top-25%");
  // The percentage is rounded, not truncated: 0.29 * 100 is 28.999...
  EXPECT_EQ(CompressedSyncFL(0.29).name(), "Syn. FL + top-29%");
  EXPECT_GT(res.final_accuracy(3), 0.40);
  // Communication shrinks roughly with the keep fraction versus full sync.
  Fleet full_fleet = make_fleet(o);
  const RunResult full = SyncFL().run(full_fleet, 10);
  EXPECT_LT(res.total_upload_mb(), 0.5 * full.total_upload_mb());
}

TEST(Communication, StrategiesReportUploadVolume) {
  Fleet fleet = make_fleet();
  const RunResult res = SyncFL().run(fleet, 3);
  EXPECT_GT(res.total_upload_mb(), 0.0);
  for (const auto& r : res.rounds) {
    EXPECT_GT(r.upload_mb, 0.0);
  }
}

TEST(Communication, SubmodelsUploadLessThanFullModels) {
  Fleet helios_fleet = make_fleet();
  Fleet sync_fleet = make_fleet();
  const RunResult helios = core::HeliosStrategy().run(helios_fleet, 3);
  const RunResult sync = SyncFL().run(sync_fleet, 3);
  EXPECT_LT(helios.total_upload_mb(), sync.total_upload_mb());
}

}  // namespace
}  // namespace helios::fl
