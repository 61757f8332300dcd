// The threading determinism contract, end to end: the same fleet run under
// HELIOS_THREADS=1 and HELIOS_THREADS=4 must produce bit-identical results
// — identical accuracy traces and identical final global parameters.
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <ostream>
#include <vector>

#include <gtest/gtest.h>

#include "core/helios_strategy.h"
#include "fl/afo.h"
#include "fl/async.h"
#include "fl/baselines.h"
#include "fl/compression.h"
#include "fl/fedprox.h"
#include "fl/sync.h"
#include "fl/transport.h"
#include "test_support.h"
#include "util/thread_pool.h"

namespace helios {
namespace {

struct ThreadGuard {
  ~ThreadGuard() { util::set_global_threads(0); }
};

struct Snapshot {
  fl::RunResult result;
  std::vector<float> global;
  std::vector<float> buffers;
};

template <typename MakeStrategy>
Snapshot run_with_threads(int threads, MakeStrategy make, int cycles,
                          bool ideal_network = false) {
  util::set_global_threads(threads);
  fl::Fleet fleet = testing::make_fleet();
  std::optional<fl::NetworkSession> session;
  if (ideal_network) {
    session.emplace(fleet, net::NetworkOptions{});  // default = kIdeal
  }
  auto strategy = make();
  Snapshot snap;
  snap.result = strategy->run(fleet, cycles);
  snap.global.assign(fleet.server().global().begin(),
                     fleet.server().global().end());
  snap.buffers.assign(fleet.server().global_buffers().begin(),
                      fleet.server().global_buffers().end());
  return snap;
}

void expect_identical(const Snapshot& a, const Snapshot& b) {
  ASSERT_EQ(a.result.rounds.size(), b.result.rounds.size());
  for (std::size_t i = 0; i < a.result.rounds.size(); ++i) {
    const fl::RoundRecord& ra = a.result.rounds[i];
    const fl::RoundRecord& rb = b.result.rounds[i];
    EXPECT_EQ(ra.cycle, rb.cycle);
    EXPECT_EQ(ra.virtual_time, rb.virtual_time) << "cycle " << i;
    EXPECT_EQ(ra.test_accuracy, rb.test_accuracy) << "cycle " << i;
    EXPECT_EQ(ra.mean_train_loss, rb.mean_train_loss) << "cycle " << i;
    EXPECT_EQ(ra.upload_mb, rb.upload_mb) << "cycle " << i;
  }
  ASSERT_EQ(a.global.size(), b.global.size());
  EXPECT_EQ(std::memcmp(a.global.data(), b.global.data(),
                        a.global.size() * sizeof(float)),
            0)
      << "final global parameters differ between thread counts";
  ASSERT_EQ(a.buffers.size(), b.buffers.size());
  if (!a.buffers.empty()) {  // memcmp needs non-null pointers
    EXPECT_EQ(std::memcmp(a.buffers.data(), b.buffers.data(),
                          a.buffers.size() * sizeof(float)),
              0)
        << "final global buffers differ between thread counts";
  }
}

struct StrategyCase {
  const char* name;
  std::function<std::unique_ptr<fl::Strategy>()> make;
};

// Names each case in test listings (ctest shows the printed value).
void PrintTo(const StrategyCase& c, std::ostream* os) { *os << c.name; }

class ThreadDeterminismTest : public ::testing::TestWithParam<StrategyCase> {
};

TEST_P(ThreadDeterminismTest, BitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const Snapshot seq = run_with_threads(1, GetParam().make, 4);
  const Snapshot par = run_with_threads(4, GetParam().make, 4);
  expect_identical(seq, par);
}

// Every strategy: the synchronous ones fan their round's training out
// across the pool; the event-driven ones still use intra-op kernel threads.
INSTANTIATE_TEST_SUITE_P(
    Strategies, ThreadDeterminismTest,
    ::testing::Values(
        StrategyCase{"Helios",
                     [] { return std::make_unique<core::HeliosStrategy>(); }},
        StrategyCase{"SyncFL", [] { return std::make_unique<fl::SyncFL>(); }},
        StrategyCase{"SyncFLPartial",
                     [] { return std::make_unique<fl::SyncFL>(0.5); }},
        StrategyCase{"FedProx",
                     [] { return std::make_unique<fl::FedProx>(); }},
        StrategyCase{"RandomSubmodel",
                     [] { return std::make_unique<fl::RandomSubmodel>(); }},
        StrategyCase{"StaticPrune",
                     [] { return std::make_unique<fl::StaticPrune>(); }},
        StrategyCase{"CompressedSyncFL",
                     [] {
                       return std::make_unique<fl::CompressedSyncFL>(0.25);
                     }},
        StrategyCase{"AsyncFLPeriod2",
                     [] { return std::make_unique<fl::AsyncFL>(2); }},
        StrategyCase{"AsyncFL", [] { return std::make_unique<fl::AsyncFL>(); }},
        StrategyCase{"Afo", [] { return std::make_unique<fl::Afo>(); }}));

// The default (ideal-channel) NetworkOptions must reproduce the no-network
// results bit-for-bit — frames are encoded, checked and counted, but never
// perturb timing, delivery, or arithmetic — at 1 and 4 threads alike.
TEST(DeterminismTest, HeliosIdealNetworkBitIdenticalToNoNetwork) {
  ThreadGuard guard;
  auto make = [] { return std::make_unique<core::HeliosStrategy>(); };
  const Snapshot plain1 = run_with_threads(1, make, 4);
  const Snapshot net1 = run_with_threads(1, make, 4, /*ideal_network=*/true);
  expect_identical(plain1, net1);
  const Snapshot net4 = run_with_threads(4, make, 4, /*ideal_network=*/true);
  expect_identical(plain1, net4);
}

TEST(DeterminismTest, SyncFLIdealNetworkBitIdenticalToNoNetwork) {
  ThreadGuard guard;
  auto make = [] { return std::make_unique<fl::SyncFL>(); };
  const Snapshot plain1 = run_with_threads(1, make, 4);
  const Snapshot net1 = run_with_threads(1, make, 4, /*ideal_network=*/true);
  expect_identical(plain1, net1);
  const Snapshot net4 = run_with_threads(4, make, 4, /*ideal_network=*/true);
  expect_identical(plain1, net4);
}

}  // namespace
}  // namespace helios
