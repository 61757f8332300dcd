// Crash-tolerant checkpoint/resume, end to end.
//
// The bit-identical-resume contract: a run of N rounds equals a run killed
// at ANY round boundary and resumed from its checkpoint — identical
// per-round records and identical final global parameters — for every
// strategy, at 1 and 4 threads, on every available kernel backend. Plus the
// failure half of the contract: torn, truncated, bit-flipped,
// wrong-version and wrong-architecture checkpoints are refused with clear
// errors, and CheckpointManager falls back to the previous generation.
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/helios_strategy.h"
#include "fl/afo.h"
#include "fl/async.h"
#include "fl/baselines.h"
#include "fl/checkpoint.h"
#include "fl/fedprox.h"
#include "fl/hierarchy.h"
#include "fl/sync.h"
#include "fl/transport.h"
#include "obs/journal_reader.h"
#include "obs/telemetry.h"
#include "sim/churn.h"
#include "sim/population.h"
#include "tensor/backend/dispatch.h"
#include "test_support.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace helios {
namespace {

namespace fs = std::filesystem;

/// Unique scratch dir per test, removed on destruction.
struct TempDir {
  fs::path path;
  TempDir() {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    path = fs::temp_directory_path() /
           (std::string("helios_crash_resume_") + info->test_suite_name() +
            "_" + info->name());
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string file(const std::string& name) const {
    return (path / name).string();
  }
};

struct ThreadGuard {
  ~ThreadGuard() { util::set_global_threads(0); }
};

struct BackendGuard {
  ~BackendGuard() { tensor::backend::clear_kernel_backend_override(); }
};

std::unique_ptr<fl::Strategy> make_strategy(const std::string& kind) {
  if (kind == "helios") {
    return std::make_unique<core::HeliosStrategy>(core::HeliosConfig{});
  }
  if (kind == "sync") return std::make_unique<fl::SyncFL>();
  if (kind == "async") return std::make_unique<fl::AsyncFL>();
  if (kind == "afo") return std::make_unique<fl::Afo>();
  if (kind == "random") return std::make_unique<fl::RandomSubmodel>();
  if (kind == "static") return std::make_unique<fl::StaticPrune>();
  throw std::invalid_argument("unknown strategy kind " + kind);
}

struct Snapshot {
  fl::RunResult result;
  std::vector<float> global;
  std::vector<float> buffers;
};

Snapshot snapshot_of(fl::Fleet& fleet, fl::RunResult result) {
  Snapshot snap;
  snap.result = std::move(result);
  snap.global.assign(fleet.server().global().begin(),
                     fleet.server().global().end());
  snap.buffers.assign(fleet.server().global_buffers().begin(),
                      fleet.server().global_buffers().end());
  return snap;
}

void expect_identical(const Snapshot& a, const Snapshot& b,
                      const std::string& context) {
  ASSERT_EQ(a.result.rounds.size(), b.result.rounds.size()) << context;
  for (std::size_t i = 0; i < a.result.rounds.size(); ++i) {
    const fl::RoundRecord& ra = a.result.rounds[i];
    const fl::RoundRecord& rb = b.result.rounds[i];
    EXPECT_EQ(ra.cycle, rb.cycle) << context << " cycle " << i;
    EXPECT_EQ(ra.virtual_time, rb.virtual_time) << context << " cycle " << i;
    EXPECT_EQ(ra.test_accuracy, rb.test_accuracy)
        << context << " cycle " << i;
    EXPECT_EQ(ra.mean_train_loss, rb.mean_train_loss)
        << context << " cycle " << i;
    EXPECT_EQ(ra.upload_mb, rb.upload_mb) << context << " cycle " << i;
  }
  ASSERT_EQ(a.global.size(), b.global.size()) << context;
  EXPECT_EQ(std::memcmp(a.global.data(), b.global.data(),
                        a.global.size() * sizeof(float)),
            0)
      << context << ": final global parameters differ";
  ASSERT_EQ(a.buffers.size(), b.buffers.size()) << context;
  if (!a.buffers.empty()) {  // memcmp needs non-null pointers
    EXPECT_EQ(std::memcmp(a.buffers.data(), b.buffers.data(),
                          a.buffers.size() * sizeof(float)),
              0)
        << context << ": final global buffers differ";
  }
}

constexpr int kCycles = 6;

Snapshot golden_run(const std::string& kind) {
  fl::Fleet fleet = testing::make_fleet();
  auto strategy = make_strategy(kind);
  fl::RunResult result = strategy->run(fleet, kCycles);
  return snapshot_of(fleet, std::move(result));
}

/// Runs `kill_at` rounds, checkpoints, destroys everything (the simulated
/// crash), rebuilds the identical setup, resumes, and finishes the run.
Snapshot killed_and_resumed_run(const std::string& kind, int kill_at,
                                const std::string& ckpt) {
  {
    fl::Fleet fleet = testing::make_fleet();
    auto strategy = make_strategy(kind);
    fl::RunResult partial;
    partial.method = strategy->name();
    strategy->run_range(fleet, partial, 0, kill_at);
    fleet.save_checkpoint(ckpt, strategy.get(), partial);
    // fleet + strategy die here: nothing carries over but the file.
  }
  fl::Fleet fleet = testing::make_fleet();
  auto strategy = make_strategy(kind);
  fl::RunResult result = fleet.resume(ckpt, strategy.get());
  EXPECT_EQ(static_cast<int>(result.rounds.size()), kill_at);
  strategy->run_range(fleet, result, static_cast<int>(result.rounds.size()),
                      kCycles);
  return snapshot_of(fleet, std::move(result));
}

/// The full contract sweep for one strategy: every kill boundary, at 1 and
/// 4 threads, on every kernel backend this machine has.
void check_resume_contract(const std::string& kind) {
  ThreadGuard tguard;
  BackendGuard bguard;
  TempDir tmp;
  for (const tensor::backend::KernelTable* table :
       tensor::backend::available_tables()) {
    tensor::backend::set_kernel_backend(table->id);
    util::set_global_threads(1);
    const Snapshot golden = golden_run(kind);
    for (int threads : {1, 4}) {
      util::set_global_threads(threads);
      for (int kill_at = 1; kill_at < kCycles; ++kill_at) {
        const std::string context = kind + " backend=" + table->name +
                                    " threads=" + std::to_string(threads) +
                                    " kill_at=" + std::to_string(kill_at);
        const Snapshot resumed = killed_and_resumed_run(
            kind, kill_at, tmp.file("ckpt_" + std::to_string(kill_at)));
        expect_identical(golden, resumed, context);
      }
    }
  }
}

TEST(CrashResumeTest, HeliosBitIdenticalAtEveryKillPoint) {
  check_resume_contract("helios");
}

TEST(CrashResumeTest, SyncFLBitIdenticalAtEveryKillPoint) {
  check_resume_contract("sync");
}

TEST(CrashResumeTest, AsyncFLBitIdenticalAtEveryKillPoint) {
  check_resume_contract("async");
}

TEST(CrashResumeTest, AfoBitIdenticalAtEveryKillPoint) {
  check_resume_contract("afo");
}

TEST(CrashResumeTest, RandomSubmodelBitIdenticalAtEveryKillPoint) {
  check_resume_contract("random");
}

TEST(CrashResumeTest, StaticPruneBitIdenticalAtEveryKillPoint) {
  check_resume_contract("static");
}

// FedProx carries per-client state only (mu, optimizer velocity) — the
// resume must not re-install mu over the restored values.
TEST(CrashResumeTest, FedProxBitIdenticalAtMidpoint) {
  TempDir tmp;
  fl::Fleet golden_fleet = testing::make_fleet();
  fl::FedProx golden_strategy;
  const Snapshot golden = snapshot_of(
      golden_fleet, golden_strategy.run(golden_fleet, kCycles));
  {
    fl::Fleet fleet = testing::make_fleet();
    fl::FedProx strategy;
    fl::RunResult partial;
    partial.method = strategy.name();
    strategy.run_range(fleet, partial, 0, 3);
    fleet.save_checkpoint(tmp.file("ckpt"), &strategy, partial);
  }
  fl::Fleet fleet = testing::make_fleet();
  fl::FedProx strategy;
  fl::RunResult result = fleet.resume(tmp.file("ckpt"), &strategy);
  strategy.run_range(fleet, result, 3, kCycles);
  expect_identical(golden, snapshot_of(fleet, std::move(result)), "fedprox");
}

// ---- run_resumable driver --------------------------------------------------

TEST(RunResumableTest, MatchesUninterruptedRunAndResumesFromDisk) {
  TempDir tmp;
  const Snapshot golden = golden_run("sync");

  fl::ResumableOptions opts;
  opts.base_path = tmp.file("ck");
  opts.keep_last = 2;

  fl::Fleet fleet = testing::make_fleet();
  fl::SyncFL strategy;
  const fl::RunResult first =
      fl::run_resumable(fleet, strategy, kCycles, opts);
  expect_identical(golden, snapshot_of(fleet, first), "run_resumable fresh");

  // Generations pruned to keep_last.
  fl::CheckpointManager manager(opts.base_path, opts.keep_last);
  EXPECT_LE(manager.generations().size(), 2U);

  // A second process with the same base path resumes the finished run and
  // returns the identical result without running any more rounds.
  fl::Fleet fleet2 = testing::make_fleet();
  fl::SyncFL strategy2;
  const fl::RunResult second =
      fl::run_resumable(fleet2, strategy2, kCycles, opts);
  expect_identical(golden, snapshot_of(fleet2, second),
                   "run_resumable resumed");
}

// ---- Corruption / fallback -------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::string s((std::istreambuf_iterator<char>(is)),
                std::istreambuf_iterator<char>());
  return s;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A checkpoint file of a short SyncFL run, for corruption experiments.
std::string make_valid_checkpoint(const TempDir& tmp,
                                  const std::string& name) {
  fl::Fleet fleet = testing::make_fleet();
  fl::SyncFL strategy;
  fl::RunResult partial;
  partial.method = strategy.name();
  strategy.run_range(fleet, partial, 0, 2);
  const std::string path = tmp.file(name);
  fleet.save_checkpoint(path, &strategy, partial);
  return path;
}

void expect_refused(const std::string& path, const char* what) {
  fl::Fleet fleet = testing::make_fleet();
  fl::SyncFL strategy;
  EXPECT_THROW(fleet.resume(path, &strategy), fl::CheckpointError) << what;
}

TEST(CheckpointCorruptionTest, RefusesTamperedFiles) {
  TempDir tmp;
  const std::string path = make_valid_checkpoint(tmp, "ckpt");
  const std::string bytes = read_file(path);
  ASSERT_GT(bytes.size(), 32U);

  {  // Sanity: the untampered file restores.
    fl::Fleet fleet = testing::make_fleet();
    fl::SyncFL strategy;
    const fl::RunResult r = fleet.resume(path, &strategy);
    EXPECT_EQ(r.rounds.size(), 2U);
  }

  const std::string bad = tmp.file("bad");
  // Missing file.
  expect_refused(tmp.file("nonexistent"), "missing file");
  // Truncated header.
  write_file(bad, bytes.substr(0, 10));
  expect_refused(bad, "truncated header");
  // Truncated payload (torn write without the atomic rename).
  write_file(bad, bytes.substr(0, bytes.size() / 2));
  expect_refused(bad, "truncated payload");
  // Bit flip in the magic.
  std::string flipped = bytes;
  flipped[0] = static_cast<char>(flipped[0] ^ 0x01);
  write_file(bad, flipped);
  expect_refused(bad, "header bit flip");
  // Wrong schema version.
  flipped = bytes;
  flipped[8] = static_cast<char>(flipped[8] + 1);
  write_file(bad, flipped);
  expect_refused(bad, "wrong version");
  // Bit flip in the CRC field (bytes 20..23 of the header).
  flipped = bytes;
  flipped[20] = static_cast<char>(flipped[20] ^ 0x40);
  write_file(bad, flipped);
  expect_refused(bad, "crc bit flip");
  // Bit flip deep in the payload (CRC catches it).
  flipped = bytes;
  flipped[24 + flipped.size() / 3] =
      static_cast<char>(flipped[24 + flipped.size() / 3] ^ 0x10);
  write_file(bad, flipped);
  expect_refused(bad, "payload bit flip");
  // Trailing garbage.
  write_file(bad, bytes + "xx");
  expect_refused(bad, "trailing bytes");
}

TEST(CheckpointCorruptionTest, RefusesWrongArchitectureAndStrategy) {
  TempDir tmp;
  const std::string path = make_valid_checkpoint(tmp, "ckpt");

  {  // Different model architecture (bigger input -> param-count mismatch).
    testing::FleetOptions o;
    o.hw = 10;
    fl::Fleet fleet = testing::make_fleet(o);
    fl::SyncFL strategy;
    EXPECT_THROW(fleet.resume(path, &strategy), fl::CheckpointError);
  }
  {  // Different client roster.
    testing::FleetOptions o;
    o.clients = 6;
    fl::Fleet fleet = testing::make_fleet(o);
    fl::SyncFL strategy;
    EXPECT_THROW(fleet.resume(path, &strategy), fl::CheckpointError);
  }
  {  // Different strategy than the one checkpointed.
    fl::Fleet fleet = testing::make_fleet();
    fl::Afo strategy;
    EXPECT_THROW(fleet.resume(path, &strategy), fl::CheckpointError);
  }
}

TEST(CheckpointManagerTest, FallsBackToPreviousGeneration) {
  TempDir tmp;
  fl::CheckpointManager manager(tmp.file("ck"), /*keep_last=*/3);

  fl::Fleet fleet = testing::make_fleet();
  fl::SyncFL strategy;
  fl::RunResult partial;
  partial.method = strategy.name();

  strategy.run_range(fleet, partial, 0, 1);
  manager.save(fl::make_checkpoint_payload(fleet, &strategy, partial));
  strategy.run_range(fleet, partial, 1, 2);
  const std::string good =
      fl::make_checkpoint_payload(fleet, &strategy, partial);
  manager.save(good);
  ASSERT_EQ(manager.generations().size(), 2U);

  // Newest generation valid: latest_valid picks it.
  std::string payload;
  auto latest = manager.latest_valid(&payload);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(*latest, manager.generation_path(1));
  EXPECT_EQ(payload, good);

  // SIGKILL mid-write of generation 2: a torn file (half the framing).
  const std::string torn = read_file(manager.generation_path(1));
  write_file(manager.generation_path(2), torn.substr(0, torn.size() / 2));
  latest = manager.latest_valid(&payload);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(*latest, manager.generation_path(1)) << "torn gen2 not skipped";

  // Bit rot in generation 1 as well: falls back to generation 0.
  std::string rotten = read_file(manager.generation_path(1));
  rotten[rotten.size() - 3] ^= 0x04;
  write_file(manager.generation_path(1), rotten);
  latest = manager.latest_valid(&payload);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(*latest, manager.generation_path(0));

  // Everything corrupt: no valid generation.
  write_file(manager.generation_path(0), "garbage");
  EXPECT_FALSE(manager.latest_valid(nullptr).has_value());
}

TEST(CheckpointManagerTest, PrunesOldGenerationsAfterDurableWrite) {
  TempDir tmp;
  fl::CheckpointManager manager(tmp.file("ck"), /*keep_last=*/2);
  fl::Fleet fleet = testing::make_fleet();
  fl::SyncFL strategy;
  fl::RunResult partial;
  partial.method = strategy.name();
  for (int cycle = 0; cycle < 4; ++cycle) {
    strategy.run_range(fleet, partial, cycle, cycle + 1);
    manager.save(fl::make_checkpoint_payload(fleet, &strategy, partial));
  }
  const std::vector<long> gens = manager.generations();
  ASSERT_EQ(gens.size(), 2U);
  EXPECT_EQ(gens[0], 2);
  EXPECT_EQ(gens[1], 3);
}

// ---- Churn + simulated network resume --------------------------------------

/// Helios over a churning population on a lossy simulated network — the
/// full-state resume: the churn process's arrival stream and death
/// schedule, every channel's RNG position and the joiner roster must all
/// land exactly where the uninterrupted run has them.
Snapshot churn_net_run(int kill_at, const std::string& ckpt) {
  const int cycles = 5;
  auto build = [](fl::Fleet& fleet, sim::ChurnProcess& churn,
                  core::HeliosStrategy& strategy) {
    fleet.register_checkpointable("churn", &churn);
    strategy.set_cycle_hook(
        [&churn](fl::Fleet& f, int cycle) { churn.step(f, cycle); });
  };
  sim::ChurnOptions copts;
  copts.arrival_rate_per_s = 0.002;
  copts.mean_lifetime_s = 4000.0;
  copts.seed = 13;
  copts.max_devices = 10;
  copts.admit_arrivals = false;
  net::NetworkOptions nopts;
  nopts.mode = net::NetMode::kSimulated;
  nopts.channel.loss_prob = 0.05;
  nopts.channel.latency_s = 0.01;
  nopts.channel.jitter_s = 0.02;

  if (kill_at > 0) {
    const sim::PopulationGenerator pop(sim::mobile_longtail(6));
    fl::Fleet fleet = sim::build_fleet(pop);
    sim::ChurnProcess churn(pop, copts);
    core::HeliosStrategy strategy(core::HeliosConfig{});
    build(fleet, churn, strategy);
    fl::NetworkSession session(fleet, nopts);
    fl::RunResult partial;
    partial.method = strategy.name();
    strategy.run_range(fleet, partial, 0, kill_at);
    fleet.save_checkpoint(ckpt, &strategy, partial);
  }

  const sim::PopulationGenerator pop(sim::mobile_longtail(6));
  fl::Fleet fleet = sim::build_fleet(pop);
  sim::ChurnProcess churn(pop, copts);
  core::HeliosStrategy strategy(core::HeliosConfig{});
  build(fleet, churn, strategy);
  fl::NetworkSession session(fleet, nopts);
  fl::RunResult result;
  if (kill_at > 0) {
    result = fleet.resume(ckpt, &strategy);
  } else {
    result.method = strategy.name();
  }
  strategy.run_range(fleet, result, static_cast<int>(result.rounds.size()),
                     cycles);
  return snapshot_of(fleet, std::move(result));
}

TEST(CrashResumeTest, ChurnAndLossyNetworkResumeBitIdentical) {
  TempDir tmp;
  const Snapshot golden = churn_net_run(0, "");
  for (int kill_at = 1; kill_at < 5; ++kill_at) {
    const Snapshot resumed = churn_net_run(
        kill_at, tmp.file("ckpt_" + std::to_string(kill_at)));
    expect_identical(golden, resumed,
                     "churn+net kill_at=" + std::to_string(kill_at));
  }
}

// ---- Hierarchical aggregation resume ----------------------------------------

/// Helios over a depth-2 aggregator tree on a lossy simulated network: the
/// tree's uplink channel RNGs (jitter + loss draws per merge frame) are part
/// of the registered component state, so a mid-run kill must resume onto
/// the identical relay outcomes — same tier deadline misses, same excluded
/// edges, same renormalized aggregates — bit for bit.
Snapshot hierarchy_net_run(int kill_at, const std::string& ckpt) {
  const int cycles = 5;
  agg::TreeTopology topo;
  topo.edge_nodes = 2;
  topo.edge_link.jitter_s = 0.01;
  topo.edge_link.loss_prob = 0.05;
  topo.edge_link.latency_s = 0.005;
  net::NetworkOptions nopts;
  nopts.mode = net::NetMode::kSimulated;
  nopts.channel.loss_prob = 0.05;
  nopts.channel.latency_s = 0.01;
  nopts.channel.jitter_s = 0.02;

  if (kill_at > 0) {
    fl::Fleet fleet = testing::make_fleet();
    fl::HierarchySession hier(fleet, topo);
    fleet.register_checkpointable("hierarchy", &hier);
    fl::NetworkSession session(fleet, nopts);
    core::HeliosStrategy strategy(core::HeliosConfig{});
    fl::RunResult partial;
    partial.method = strategy.name();
    strategy.run_range(fleet, partial, 0, kill_at);
    fleet.save_checkpoint(ckpt, &strategy, partial);
    // fleet + session + tree die here: nothing survives but the file.
  }

  fl::Fleet fleet = testing::make_fleet();
  fl::HierarchySession hier(fleet, topo);
  fleet.register_checkpointable("hierarchy", &hier);
  fl::NetworkSession session(fleet, nopts);
  core::HeliosStrategy strategy(core::HeliosConfig{});
  fl::RunResult result;
  if (kill_at > 0) {
    result = fleet.resume(ckpt, &strategy);
  } else {
    result.method = strategy.name();
  }
  strategy.run_range(fleet, result, static_cast<int>(result.rounds.size()),
                     cycles);
  return snapshot_of(fleet, std::move(result));
}

TEST(CrashResumeTest, HierarchyTreeResumeBitIdentical) {
  TempDir tmp;
  const Snapshot golden = hierarchy_net_run(0, "");
  for (int kill_at = 1; kill_at < 5; ++kill_at) {
    const Snapshot resumed = hierarchy_net_run(
        kill_at, tmp.file("ckpt_" + std::to_string(kill_at)));
    expect_identical(golden, resumed,
                     "hierarchy kill_at=" + std::to_string(kill_at));
  }
}

// ---- Quantized codec + error feedback resume --------------------------------

/// Helios with int8 per-neuron quantized uploads and error feedback on a
/// lossy simulated network. The residual bank is cross-round state: every
/// shipped frame folds last round's quantization error back in, so a resume
/// that loses (or mangles) a single residual diverges immediately. The
/// session registers as the "codec_ef" component; both the final model and
/// the carried residual bank itself must match the uninterrupted run bit
/// for bit.
struct CodecSnapshot {
  Snapshot snap;
  std::map<int, std::vector<float>> residuals;
};

CodecSnapshot codec_ef_net_run(int kill_at, const std::string& ckpt) {
  const int cycles = 5;
  net::NetworkOptions nopts;
  nopts.mode = net::NetMode::kSimulated;
  nopts.payload_codec = codec::CodecId::kInt8PerNeuron;
  nopts.error_feedback = true;
  nopts.channel.loss_prob = 0.05;
  nopts.channel.latency_s = 0.01;
  nopts.channel.jitter_s = 0.02;

  if (kill_at > 0) {
    fl::Fleet fleet = testing::make_fleet();
    fl::NetworkSession session(fleet, nopts);
    fleet.register_checkpointable("codec_ef", &session);
    core::HeliosStrategy strategy(core::HeliosConfig{});
    fl::RunResult partial;
    partial.method = strategy.name();
    strategy.run_range(fleet, partial, 0, kill_at);
    fleet.save_checkpoint(ckpt, &strategy, partial);
    // Session (and its residual bank) dies here.
  }

  fl::Fleet fleet = testing::make_fleet();
  fl::NetworkSession session(fleet, nopts);
  fleet.register_checkpointable("codec_ef", &session);
  core::HeliosStrategy strategy(core::HeliosConfig{});
  fl::RunResult result;
  if (kill_at > 0) {
    result = fleet.resume(ckpt, &strategy);
  } else {
    result.method = strategy.name();
  }
  strategy.run_range(fleet, result, static_cast<int>(result.rounds.size()),
                     cycles);
  CodecSnapshot out;
  out.snap = snapshot_of(fleet, std::move(result));
  out.residuals = session.feedback().all();
  return out;
}

TEST(CrashResumeTest, ErrorFeedbackResidualsResumeBitIdentical) {
  TempDir tmp;
  const CodecSnapshot golden = codec_ef_net_run(0, "");
  ASSERT_FALSE(golden.residuals.empty());
  for (int kill_at = 1; kill_at < 5; ++kill_at) {
    const CodecSnapshot resumed = codec_ef_net_run(
        kill_at, tmp.file("ckpt_" + std::to_string(kill_at)));
    const std::string context = "codec_ef kill_at=" + std::to_string(kill_at);
    expect_identical(golden.snap, resumed.snap, context);
    ASSERT_EQ(golden.residuals.size(), resumed.residuals.size()) << context;
    for (const auto& [id, r] : golden.residuals) {
      const auto it = resumed.residuals.find(id);
      ASSERT_NE(it, resumed.residuals.end()) << context << " client " << id;
      ASSERT_EQ(r.size(), it->second.size()) << context << " client " << id;
      EXPECT_EQ(std::memcmp(r.data(), it->second.data(),
                            r.size() * sizeof(float)),
                0)
          << context << ": residual bank differs for client " << id;
    }
  }
}

// ---- Journal continuity -----------------------------------------------------

TEST(CrashResumeTest, JournalContinuesSeamlesslyAcrossResume) {
  TempDir tmp;
  const std::string prefix = tmp.file("run");
  const std::string ckpt = tmp.file("ckpt");
  {
    obs::TelemetryConfig tc;
    tc.tracing = false;
    tc.journal = true;
    tc.artifact_prefix = prefix;
    obs::TelemetrySink sink(tc);
    fl::Fleet fleet = testing::make_fleet();
    fleet.set_telemetry(&sink);
    fl::SyncFL strategy;
    fl::RunResult partial;
    partial.method = strategy.name();
    strategy.run_range(fleet, partial, 0, 3);
    fleet.save_checkpoint(ckpt, &strategy, partial);
    // Simulated crash: a torn half-line lands after the checkpointed
    // offset (the process died mid-append). The sink is destroyed without
    // flush() — as a kill would leave it.
    std::ofstream torn(prefix + ".journal.jsonl",
                       std::ios::app | std::ios::binary);
    torn << "{\"v\":1,\"t\":\"round\",\"r\":99,\"de";
  }

  // Resumed process: reopen the journal exactly where the checkpoint left
  // it, discarding the torn tail.
  const fl::CheckpointInfo info = fl::peek_checkpoint(ckpt);
  EXPECT_EQ(info.completed_cycles, 3);
  EXPECT_GT(info.journal_byte_offset, 0U);
  {
    obs::TelemetryConfig tc;
    tc.tracing = false;
    tc.journal = true;
    tc.artifact_prefix = prefix;
    tc.journal_resume = true;
    tc.journal_resume_offset = info.journal_byte_offset;
    tc.journal_resume_events = info.journal_events;
    obs::TelemetrySink sink(tc);
    fl::Fleet fleet = testing::make_fleet();
    fleet.set_telemetry(&sink);
    fl::SyncFL strategy;
    fl::RunResult result = fleet.resume(ckpt, &strategy);
    strategy.run_range(fleet, result, 3, kCycles);
    sink.flush();
  }

  // The resumed journal reads as ONE uninterrupted run: a single
  // run_start, rounds 0..5 contiguous with no duplicates, one run_end.
  std::ifstream is(prefix + ".journal.jsonl");
  ASSERT_TRUE(is.is_open());
  const std::vector<obs::JournalEvent> events = obs::read_journal(is);
  int run_starts = 0;
  int run_ends = 0;
  int next_round = 0;
  for (const obs::JournalEvent& ev : events) {
    if (ev.type == "run_start") ++run_starts;
    if (ev.type == "run_end") ++run_ends;
    if (ev.type == "round") {
      EXPECT_EQ(ev.round, next_round) << "round drift across resume";
      ++next_round;
    }
  }
  EXPECT_EQ(run_starts, 1);
  EXPECT_EQ(run_ends, 1);
  EXPECT_EQ(next_round, kCycles);
  const obs::JournalSummary summary = obs::summarize_journal(events);
  EXPECT_EQ(summary.rounds, kCycles);
}

// ---- RngState ---------------------------------------------------------------

TEST(RngStateTest, RoundTripReproducesTheFutureSequence) {
  util::Rng rng(0xFEEDU);
  for (int i = 0; i < 1000; ++i) rng.next_u64();  // advance mid-stream
  const util::RngState snap = rng.state();
  util::Rng restored = util::Rng::from_state(snap);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(rng.next_u64(), restored.next_u64()) << "draw " << i;
  }
  EXPECT_TRUE(rng.state() == restored.state());
}

TEST(RngStateTest, MidBoxMullerCachedNormalSurvivesTheRoundTrip) {
  util::Rng rng(7);
  rng.normal();  // Box-Muller computes a pair; one draw is now cached
  const util::RngState snap = rng.state();
  EXPECT_TRUE(snap.has_cached_normal);
  util::Rng restored = util::Rng::from_state(snap);
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(rng.normal(), restored.normal()) << "draw " << i;
  }
}

TEST(RngStateTest, ForkIsStableAcrossTheRoundTrip) {
  util::Rng rng(42);
  for (int i = 0; i < 17; ++i) rng.uniform();
  const util::RngState snap = rng.state();

  // fork() must not advance the parent...
  util::Rng child_a = rng.fork(5);
  EXPECT_TRUE(rng.state() == snap);

  // ...and a restored parent forks the identical child.
  util::Rng restored = util::Rng::from_state(snap);
  util::Rng child_b = restored.fork(5);
  for (int i = 0; i < 256; ++i) {
    ASSERT_EQ(child_a.next_u64(), child_b.next_u64()) << "draw " << i;
  }
  // Parents continue identically after forking.
  for (int i = 0; i < 256; ++i) {
    ASSERT_EQ(rng.next_u64(), restored.next_u64()) << "draw " << i;
  }
}

}  // namespace
}  // namespace helios
