// Baseline orchestration strategies: invariants of timing, participation
// and aggregation (learning-quality comparisons live in integration_test).
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>

#include <gtest/gtest.h>

#include "core/helios_strategy.h"
#include "fl/afo.h"
#include "fl/async.h"
#include "fl/baselines.h"
#include "fl/compression.h"
#include "fl/fedprox.h"
#include "fl/sync.h"
#include "fl/transport.h"
#include "net/wire.h"
#include "sim/sampler.h"
#include "tensor/backend/dispatch.h"
#include "test_support.h"

namespace helios::fl {
namespace {

using helios::testing::FleetOptions;
using helios::testing::make_fleet;

TEST(SyncFL, RecordsEveryCycleWithMonotoneTime) {
  Fleet fleet = make_fleet();
  SyncFL strategy;
  const RunResult res = strategy.run(fleet, 5);
  EXPECT_EQ(res.method, "Syn. FL");
  ASSERT_EQ(res.rounds.size(), 5u);
  double prev = 0.0;
  for (const auto& r : res.rounds) {
    EXPECT_GT(r.virtual_time, prev);
    prev = r.virtual_time;
    EXPECT_GE(r.test_accuracy, 0.0);
    EXPECT_LE(r.test_accuracy, 1.0);
  }
}

TEST(SyncFL, RoundTimeDominatedByStraggler) {
  Fleet fleet = make_fleet();
  // Slowest participant (full model on DeepLens CPU) bounds the round time.
  const double straggler_cycle =
      fleet.client(3).estimate_cycle_seconds({});
  SyncFL strategy;
  const RunResult res = strategy.run(fleet, 2);
  EXPECT_GE(res.rounds[0].virtual_time, straggler_cycle * 0.99);
}

// Regression: with every device dead the round roster is empty. Partial
// participation must then record a clean no-op round, as full
// participation does, instead of drawing one participant out of none.
TEST(SyncFL, PartialParticipationOnAnEmptyRosterIsANoOp) {
  Fleet fleet = make_fleet();
  const std::vector<float> before = fleet.server().global();
  for (auto& c : fleet.clients()) c->set_active(false);
  const RunResult res = SyncFL(0.5).run(fleet, 2);
  ASSERT_EQ(res.rounds.size(), 2u);
  for (const RoundRecord& r : res.rounds) {
    EXPECT_EQ(r.mean_train_loss, 0.0);
    EXPECT_EQ(r.upload_mb, 0.0);
  }
  EXPECT_EQ(fleet.server().global(), before);
}

// Top-k compressed FedAvg trains the population sampler's cohort, like
// every other synchronous strategy: a device trains in exactly the rounds
// whose cohort contains it.
TEST(CompressedSyncFL, OnlyCohortMembersTrain) {
  Fleet fleet = make_fleet();
  sim::CohortSampler::Options so;
  so.fraction = 0.5;
  so.seed = 3;
  const sim::CohortSampler sampler(so);
  fleet.set_sampler(&sampler);
  const int kCycles = 4;
  std::vector<int> expected(fleet.size(), 0);
  int cohort_total = 0;
  for (int round = 0; round < kCycles; ++round) {
    const std::vector<Client*> active = fleet.active_clients();
    for (Client* c : sampler.sample(active, round)) {
      ++expected[static_cast<std::size_t>(c->id())];
      ++cohort_total;
    }
  }
  // The sampler must actually leave devices out for the check to bite.
  ASSERT_LT(cohort_total, kCycles * static_cast<int>(fleet.size()));
  CompressedSyncFL(0.25).run(fleet, kCycles);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    EXPECT_EQ(fleet.client(i).cycles_completed(), expected[i])
        << "client " << i;
  }
}

// A round with no live device records a finite mean loss (0 over no
// participants), not 0/0.
TEST(CompressedSyncFL, AllDeadRoundRecordsFiniteLoss) {
  Fleet fleet = make_fleet();
  for (auto& c : fleet.clients()) c->set_active(false);
  const RunResult res = CompressedSyncFL(0.25).run(fleet, 2);
  ASSERT_EQ(res.rounds.size(), 2u);
  for (const RoundRecord& r : res.rounds) {
    EXPECT_TRUE(std::isfinite(r.mean_train_loss));
    EXPECT_EQ(r.upload_mb, 0.0);
  }
}

TEST(AsyncFL, CapableCyclesAreFasterThanSync) {
  Fleet sync_fleet = make_fleet();
  Fleet async_fleet = make_fleet();
  const RunResult sync_res = SyncFL().run(sync_fleet, 3);
  const RunResult async_res = AsyncFL().run(async_fleet, 3);
  EXPECT_LT(async_res.rounds.back().virtual_time,
            sync_res.rounds.back().virtual_time);
}

TEST(AsyncFL, FixedPeriodNames) {
  EXPECT_EQ(AsyncFL().name(), "Asyn. FL");
  EXPECT_EQ(AsyncFL(2).name(), "Asyn. FL (period 2)");
  EXPECT_THROW(AsyncFL(-1), std::invalid_argument);
  EXPECT_THROW(AsyncFL(0, 0.0), std::invalid_argument);
  EXPECT_THROW(AsyncFL(0, 1.5), std::invalid_argument);
}

TEST(AsyncFL, StaleStragglerMergesDragTheGlobalModel) {
  // The fully-async baseline mixes stale straggler models with a fixed
  // weight; relative to the sync run on the same fleet, the straggler's
  // merge must move the global model toward its (old) snapshot. We simply
  // verify the mechanism runs and records all cycles with advancing time.
  Fleet fleet = make_fleet();
  const RunResult res = AsyncFL().run(fleet, 6);
  ASSERT_EQ(res.rounds.size(), 6u);
  for (std::size_t i = 1; i < res.rounds.size(); ++i) {
    EXPECT_GT(res.rounds[i].virtual_time, res.rounds[i - 1].virtual_time);
  }
}

TEST(AsyncFL, RequiresCapableDevices) {
  FleetOptions o;
  o.clients = 2;
  o.stragglers = 2;
  Fleet fleet = make_fleet(o);
  AsyncFL strategy;
  EXPECT_THROW(strategy.run(fleet, 1), std::logic_error);
}

TEST(AsyncFL, RunsWithFixedPeriod) {
  Fleet fleet = make_fleet();
  const RunResult res = AsyncFL(2).run(fleet, 4);
  EXPECT_EQ(res.rounds.size(), 4u);
}

TEST(Afo, RecordsRequestedCycles) {
  Fleet fleet = make_fleet();
  Afo strategy(0.6, 0.5);
  const RunResult res = strategy.run(fleet, 4);
  EXPECT_EQ(res.method, "AFO");
  ASSERT_EQ(res.rounds.size(), 4u);
  for (std::size_t i = 1; i < res.rounds.size(); ++i) {
    EXPECT_GT(res.rounds[i].virtual_time, res.rounds[i - 1].virtual_time);
  }
}

TEST(Afo, ValidatesParameters) {
  EXPECT_THROW(Afo(0.0), std::invalid_argument);
  EXPECT_THROW(Afo(1.5), std::invalid_argument);
  EXPECT_THROW(Afo(0.5, -1.0), std::invalid_argument);
}

TEST(RandomSubmodel, StragglersUploadPartialMasks) {
  Fleet fleet = make_fleet();
  // Wrap via direct run; verify timing benefits: random submodel rounds are
  // shorter than sync-full rounds because stragglers shrink.
  Fleet sync_fleet = make_fleet();
  const RunResult sync_res = SyncFL().run(sync_fleet, 2);
  const RunResult rnd_res = RandomSubmodel().run(fleet, 2);
  EXPECT_EQ(rnd_res.method, "Random");
  EXPECT_LT(rnd_res.rounds.back().virtual_time,
            sync_res.rounds.back().virtual_time);
}

TEST(StaticPrune, RunsAndIsCheaperThanSync) {
  Fleet fleet = make_fleet();
  Fleet sync_fleet = make_fleet();
  const RunResult sp = StaticPrune().run(fleet, 2);
  const RunResult sync_res = SyncFL().run(sync_fleet, 2);
  EXPECT_EQ(sp.method, "Static Prune");
  EXPECT_LT(sp.rounds.back().virtual_time,
            sync_res.rounds.back().virtual_time);
}

TEST(Metrics, RunResultSummaries) {
  RunResult res;
  res.rounds = {{0, 1.0, 0.2, 1.0},
                {1, 2.0, 0.5, 0.8},
                {2, 3.0, 0.7, 0.6},
                {3, 4.0, 0.8, 0.5}};
  EXPECT_NEAR(res.final_accuracy(2), 0.75, 1e-12);
  EXPECT_EQ(res.cycles_to_accuracy(0.5), 1u);
  EXPECT_DOUBLE_EQ(res.time_to_accuracy(0.5), 2.0);
  EXPECT_EQ(res.cycles_to_accuracy(0.9), RunResult::npos);
  EXPECT_EQ(res.time_to_accuracy(0.9), RunResult::never);
  EXPECT_GT(res.accuracy_variance(4), 0.0);
}

TEST(Metrics, EmptyRunIsSafe) {
  RunResult res;
  EXPECT_EQ(res.final_accuracy(), 0.0);
  EXPECT_EQ(res.cycles_to_accuracy(0.1), RunResult::npos);
  EXPECT_EQ(res.accuracy_variance(), 0.0);
}

/// CRC32 over every RoundRecord field and the final global parameters and
/// buffers, byte for byte.
std::uint32_t run_digest(const RunResult& res, Fleet& fleet) {
  std::vector<std::uint8_t> bytes;
  auto put = [&bytes](const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    bytes.insert(bytes.end(), b, b + n);
  };
  for (const RoundRecord& r : res.rounds) {
    put(&r.cycle, sizeof r.cycle);
    put(&r.virtual_time, sizeof r.virtual_time);
    put(&r.test_accuracy, sizeof r.test_accuracy);
    put(&r.mean_train_loss, sizeof r.mean_train_loss);
    put(&r.upload_mb, sizeof r.upload_mb);
  }
  const std::vector<float>& g = fleet.server().global();
  put(g.data(), g.size() * sizeof(float));
  const std::vector<float>& b = fleet.server().global_buffers();
  put(b.data(), b.size() * sizeof(float));
  return net::crc32(bytes);
}

// Every strategy's 4-cycle trajectory on the test fleet, without a network
// and under a simulated 5%-loss channel, pinned to digests recorded before
// the strategies were rebuilt as policies over the shared synchronous round
// driver and the AFO event engine. Scalar kernels make the digests
// independent of the host's SIMD support; results are independent of the
// thread count by construction (determinism_test).
TEST(StrategyPins, ResultsMatchRecordedDigests) {
  struct BackendGuard {
    ~BackendGuard() { tensor::backend::clear_kernel_backend_override(); }
  } guard;
  tensor::backend::set_kernel_backend(tensor::backend::Backend::kScalar);
  struct Case {
    const char* name;
    std::function<std::unique_ptr<Strategy>()> make;
    std::uint32_t plain;
    std::uint32_t lossy;
  };
  const Case cases[] = {
      {"helios", [] { return std::make_unique<core::HeliosStrategy>(); },
       0x0BF7B4A8U, 0x840CCD94U},
      {"sync", [] { return std::make_unique<SyncFL>(); }, 0xDE411176U,
       0x8A5BBF5CU},
      {"sync-c0.5", [] { return std::make_unique<SyncFL>(0.5); },
       0xE92C2532U, 0xBD368B18U},
      {"fedprox", [] { return std::make_unique<FedProx>(); }, 0x763067F7U,
       0x5D2E9F9FU},
      {"random", [] { return std::make_unique<RandomSubmodel>(); },
       0x15E38AA9U, 0xB8C92827U},
      {"static", [] { return std::make_unique<StaticPrune>(); }, 0x030317F9U,
       0xAE29B577U},
      {"compressed", [] { return std::make_unique<CompressedSyncFL>(0.25); },
       0x2CC38A5AU, 0x110598C6U},
      {"async", [] { return std::make_unique<AsyncFL>(); }, 0x069C9E2AU,
       0xC26112E5U},
      {"async-period2", [] { return std::make_unique<AsyncFL>(2); },
       0x6D0F9C9AU, 0xA9F21055U},
      {"afo", [] { return std::make_unique<Afo>(); }, 0x1F33703EU,
       0xDBCEFCF1U},
  };
  for (const Case& c : cases) {
    for (const bool lossy : {false, true}) {
      Fleet fleet = make_fleet();
      std::optional<NetworkSession> session;
      if (lossy) {
        net::NetworkOptions opts;
        opts.mode = net::NetMode::kSimulated;
        opts.channel.loss_prob = 0.05;
        session.emplace(fleet, opts);
      }
      const RunResult res = c.make()->run(fleet, 4);
      ASSERT_EQ(res.rounds.size(), 4U) << c.name;
      EXPECT_EQ(run_digest(res, fleet), lossy ? c.lossy : c.plain)
          << c.name << (lossy ? " (5% loss)" : " (no network)") << std::hex
          << " digest 0x" << run_digest(res, fleet);
    }
  }
}

TEST(Fleet, CapableAndStragglerPartition) {
  Fleet fleet = make_fleet();
  EXPECT_EQ(fleet.stragglers().size(), 2u);
  EXPECT_EQ(fleet.capable().size(), 2u);
  EXPECT_EQ(fleet.size(), 4u);
}

}  // namespace
}  // namespace helios::fl
