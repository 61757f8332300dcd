// Run-journal (flight recorder) tests: schema stability of the JSONL
// stream, write -> parse -> replay round trips whose summaries are
// bit-identical across thread counts, decoding of hostile lines, the
// zero-allocation disabled path, the 256-device long-tail churn and
// aggregator-tree runs whose replayed dashboards must match the live ones
// byte for byte, and digests pinning every telemetry export.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <new>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "codec/codec.h"
#include "core/helios_strategy.h"
#include "fl/hierarchy.h"
#include "fl/transport.h"
#include "net/wire.h"
#include "obs/journal.h"
#include "obs/journal_reader.h"
#include "obs/telemetry.h"
#include "sim/churn.h"
#include "sim/population.h"
#include "sim/sampler.h"
#include "tensor/backend/dispatch.h"
#include "test_support.h"
#include "util/thread_pool.h"

// ---- Allocation counting for the disabled-path test --------------------
// Same global-override pattern as obs_test.cpp: the test compares counts
// around the instrumented region only.
namespace {
std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace helios {
namespace {

struct RunArtifacts {
  std::string journal;
  std::string dashboard;  // the live run's rendering
};

/// A short Helios run over the small test fleet, journal in memory.
RunArtifacts run_with_threads(int threads) {
  util::set_global_threads(threads);
  obs::TelemetryConfig cfg;
  cfg.tracing = false;
  cfg.journal = true;
  obs::TelemetrySink sink(cfg);
  fl::Fleet fleet = testing::make_fleet();
  fleet.set_telemetry(&sink);
  core::HeliosStrategy strategy;
  strategy.run(fleet, 3);
  fleet.set_telemetry(nullptr);
  sink.flush();  // closes the journal (run_end)
  RunArtifacts a;
  a.journal = sink.journal_text();
  std::ostringstream dash;
  sink.render_dashboard(dash);
  a.dashboard = dash.str();
  util::set_global_threads(0);
  return a;
}

// ---- Round trip + thread-count invariance -------------------------------

TEST(RunJournalTest, RoundTripSummaryIsBitIdenticalAcrossThreadCounts) {
  const RunArtifacts one = run_with_threads(1);
  const RunArtifacts four = run_with_threads(4);

  std::istringstream is1(one.journal), is4(four.journal);
  const std::vector<obs::JournalEvent> ev1 = obs::read_journal(is1);
  const std::vector<obs::JournalEvent> ev4 = obs::read_journal(is4);
  ASSERT_FALSE(ev1.empty());
  // Same events, possibly interleaved differently across devices.
  EXPECT_EQ(ev1.size(), ev4.size());

  // Summaries aggregate per device before comparing, so they must agree on
  // every compared field (the diff ignores wall clock, which always varies).
  obs::JournalSummary s1 = obs::summarize_journal(ev1);
  obs::JournalSummary s4 = obs::summarize_journal(ev4);
  std::ostringstream diff;
  EXPECT_EQ(obs::write_diff(diff, s1, s4), 0) << diff.str();

  // Rendering the summaries (wall clock zeroed) is bit-identical.
  s1.wall_seconds = s4.wall_seconds = 0.0;
  std::ostringstream t1, t4, j1, j4;
  obs::write_summary(t1, s1);
  obs::write_summary(t4, s4);
  EXPECT_EQ(t1.str(), t4.str());
  obs::write_summary_json(j1, s1);
  obs::write_summary_json(j4, s4);
  EXPECT_EQ(j1.str(), j4.str());

  // And replaying either journal reconstructs its live dashboard exactly.
  obs::StragglerDashboard d1, d4;
  obs::replay_dashboard(ev1, d1);
  obs::replay_dashboard(ev4, d4);
  std::ostringstream r1, r4;
  d1.render(r1);
  d4.render(r4);
  EXPECT_EQ(r1.str(), one.dashboard);
  EXPECT_EQ(r4.str(), four.dashboard);
}

// ---- Schema stability ---------------------------------------------------

TEST(RunJournalTest, SchemaV1FieldsAreStable) {
  ASSERT_EQ(obs::RunJournal::kSchemaVersion, 1);
  obs::TelemetryConfig cfg;
  cfg.tracing = false;
  cfg.journal = true;
  obs::TelemetrySink sink(cfg);
  ASSERT_NE(sink.journal(), nullptr);

  sink.set_cycle(2);
  sink.set_virtual_time(1.5);
  sink.record_cohort(2, 64, 60, 6);
  sink.record_device_skipped(2, 9, /*dead=*/false);
  sink.record_device_skipped(2, 10, /*dead=*/true);
  sink.record_client_cycle(3, "jetson", true, 0.4, 10, 24, 2.0, 0.5, 1.25,
                           0.7);
  sink.record_aggregation_weight(3, 0.4167, 0.21);
  sink.record_rotation(3, 2, {20, 3, 1, 0});
  sink.record_device_transfer(3, 4096, 2, 1, true, false, false, 0.6);
  sink.record_network_round(8192, 4, 3, 1, 1, 0, 0);
  sink.record_churn(2, 1, 2, 63);
  sink.record_cycle_result("Helios", 2, 1.5, 0.81, 0.42, 2.5);
  sink.flush();

  std::istringstream is(sink.journal_text());
  const std::vector<obs::JournalEvent> events = obs::read_journal(is);
  ASSERT_GE(events.size(), 12U);  // run_start + 10 recorded + run_end

  // Every line carries the stamp fields.
  for (const obs::JournalEvent& ev : events) {
    EXPECT_NE(ev.fields.find("v"), nullptr);
    EXPECT_NE(ev.fields.find("t"), nullptr);
    EXPECT_NE(ev.fields.find("r"), nullptr);
    EXPECT_NE(ev.fields.find("dev"), nullptr);
    EXPECT_NE(ev.fields.find("vt"), nullptr);
    EXPECT_NE(ev.fields.find("w"), nullptr);
  }
  EXPECT_EQ(events.front().type, "run_start");
  EXPECT_EQ(events.back().type, "run_end");
  EXPECT_EQ(events.back().fields.number_or("events", 0.0),
            static_cast<double>(events.size()));

  auto find = [&](const std::string& type) -> const obs::JournalEvent* {
    for (const obs::JournalEvent& ev : events) {
      if (ev.type == type) return &ev;
    }
    return nullptr;
  };
  const obs::JournalEvent* cohort = find("cohort");
  ASSERT_NE(cohort, nullptr);
  EXPECT_EQ(cohort->fields.number_or("pop", 0), 64.0);
  EXPECT_EQ(cohort->fields.number_or("act", 0), 60.0);
  EXPECT_EQ(cohort->fields.number_or("sam", 0), 6.0);

  const obs::JournalEvent* train = find("train");
  ASSERT_NE(train, nullptr);
  EXPECT_EQ(train->device, 3);
  EXPECT_EQ(train->round, 2);
  EXPECT_EQ(train->fields.string_or("prof", ""), "jetson");
  EXPECT_EQ(train->fields.number_or("strag", 0), 1.0);
  EXPECT_EQ(train->fields.number_or("vol", 0), 0.4);
  EXPECT_EQ(train->fields.number_or("mask", 0), 10.0);
  EXPECT_EQ(train->fields.number_or("tot", 0), 24.0);
  EXPECT_EQ(train->fields.number_or("train_s", 0), 2.0);
  EXPECT_EQ(train->fields.number_or("up_s", 0), 0.5);
  EXPECT_EQ(train->fields.number_or("up_mb", 0), 1.25);
  EXPECT_EQ(train->fields.number_or("loss", 0), 0.7);

  const obs::JournalEvent* xfer = find("xfer");
  ASSERT_NE(xfer, nullptr);
  EXPECT_EQ(xfer->fields.number_or("bytes", 0), 4096.0);
  EXPECT_EQ(xfer->fields.number_or("tx", 0), 2.0);
  EXPECT_EQ(xfer->fields.number_or("lost", 0), 1.0);
  EXPECT_EQ(xfer->fields.number_or("ok", 0), 1.0);
  EXPECT_EQ(xfer->fields.number_or("miss", 1), 0.0);
  EXPECT_EQ(xfer->fields.number_or("dead", 1), 0.0);

  const obs::JournalEvent* net = find("net_round");
  ASSERT_NE(net, nullptr);
  EXPECT_EQ(net->fields.number_or("n", 0), 4.0);
  EXPECT_EQ(net->fields.number_or("okn", 0), 3.0);
  EXPECT_EQ(net->fields.number_or("renorm", 0), 1.0);  // 3 < 4 participants

  const obs::JournalEvent* round = find("round");
  ASSERT_NE(round, nullptr);
  EXPECT_EQ(round->fields.string_or("strat", ""), "Helios");
  EXPECT_EQ(round->fields.number_or("acc", 0), 0.81);

  // Skip events carry the reason, and the counter is labeled to match.
  int hollow = 0, dead = 0;
  for (const obs::JournalEvent& ev : events) {
    if (ev.type != "skip") continue;
    if (ev.fields.string_or("why", "") == "hollow") ++hollow;
    if (ev.fields.string_or("why", "") == "dead") ++dead;
  }
  EXPECT_EQ(hollow, 1);
  EXPECT_EQ(dead, 1);
  EXPECT_EQ(sink.metrics()
                .counter("helios.sim.skipped_total", {{"reason", "hollow"}})
                .value(),
            1.0);
  EXPECT_EQ(sink.metrics()
                .counter("helios.sim.skipped_total", {{"reason", "dead"}})
                .value(),
            1.0);
}

TEST(RunJournalTest, UnsupportedSchemaVersionIsRejected) {
  std::istringstream is(
      "{\"v\":99,\"t\":\"run_start\",\"r\":-1,\"dev\":-1,\"vt\":0,\"w\":0}\n");
  EXPECT_THROW(obs::read_journal(is), std::runtime_error);
  std::istringstream garbage("{not json\n");
  EXPECT_THROW(obs::read_journal(garbage), std::runtime_error);
}

// Decoding takes untrusted lines: an integer field outside its type's range
// (or of the wrong JSON type) keeps the event's default instead of being
// cast, and lifecycle lines and unknown types decode to nothing.
TEST(RunJournalTest, DecodeKeepsDefaultsForOutOfRangeFields) {
  std::istringstream is(
      "{\"v\":1,\"t\":\"run_start\",\"r\":-1,\"dev\":-1,\"vt\":0,\"w\":0}\n"
      "{\"v\":1,\"t\":\"xfer\",\"r\":1e300,\"dev\":4,\"vt\":0.5,\"w\":1,"
      "\"bytes\":-3,\"tx\":1e12,\"lost\":2,\"ok\":0,\"dead\":\"yes\"}\n"
      "{\"v\":1,\"t\":\"phase_from_the_future\",\"r\":0,\"dev\":-1,\"vt\":0,"
      "\"w\":0}\n");
  const std::vector<obs::JournalEvent> events = obs::read_journal(is);
  ASSERT_EQ(events.size(), 3U);
  EXPECT_FALSE(obs::decode(events[0]).has_value());
  EXPECT_FALSE(obs::decode(events[2]).has_value());
  EXPECT_EQ(events[1].round, -1);
  EXPECT_EQ(events[1].device, 4);
  const auto decoded = obs::decode(events[1]);
  ASSERT_TRUE(decoded.has_value());
  const auto* x = std::get_if<obs::event::Xfer>(&*decoded);
  ASSERT_NE(x, nullptr);
  EXPECT_EQ(x->bytes_on_wire, 0U);
  EXPECT_EQ(x->transmissions, 0);
  EXPECT_EQ(x->lost_frames, 2);
  EXPECT_FALSE(x->delivered);
  EXPECT_FALSE(x->died);
}

// ---- Disabled path ------------------------------------------------------

TEST(RunJournalTest, DisabledJournalMakesNoAllocations) {
  // TelemetryConfig::journal = false leaves the sink without a journal.
  obs::TelemetrySink plain;
  EXPECT_EQ(plain.journal(), nullptr);
  EXPECT_TRUE(plain.journal_text().empty());

  // A null-stream journal's write returns after one branch, whatever the
  // event type.
  obs::RunJournal off(nullptr);
  EXPECT_FALSE(off.enabled());
  static_assert(std::variant_size_v<obs::event::Any> == 11);
  const auto write_each = [&]<class... Event>(std::variant<Event...>*,
                                              int round) {
    (off.write({round, 1, 0.0}, Event{}), ...);
  };
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 64; ++i) {
    write_each(static_cast<obs::event::Any*>(nullptr), i);
  }
  off.close();
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before);
  EXPECT_EQ(off.event_count(), 0U);
}

// ---- Artifact files -----------------------------------------------------

TEST(RunJournalTest, ArtifactPrefixWritesJournalAndSummaryFiles) {
  const std::string prefix = ::testing::TempDir() + "journal_artifacts";
  {
    obs::TelemetryConfig cfg;
    cfg.tracing = false;
    cfg.journal = true;
    cfg.artifact_prefix = prefix;
    obs::TelemetrySink sink(cfg);
    fl::Fleet fleet = testing::make_fleet();
    fleet.set_telemetry(&sink);
    core::HeliosStrategy strategy;
    strategy.run(fleet, 2);
    fleet.set_telemetry(nullptr);
    sink.flush();
  }
  std::ifstream journal(prefix + ".journal.jsonl");
  ASSERT_TRUE(journal.good());
  const std::vector<obs::JournalEvent> events = obs::read_journal(journal);
  EXPECT_GT(events.size(), 10U);
  EXPECT_EQ(events.back().type, "run_end");

  // flush() also writes the dashboard percentile summary and samples the
  // process RSS gauges.
  std::ifstream summary(prefix + ".summary.json");
  ASSERT_TRUE(summary.good());
  std::ostringstream buf;
  buf << summary.rdbuf();
  const util::JsonValue v = util::JsonValue::parse(buf.str());
  EXPECT_EQ(v.number_or("devices", 0.0), 4.0);
  EXPECT_NE(v.find("metrics"), nullptr);
}

// ---- Acceptance: 256-device long-tail churn run -------------------------

TEST(RunJournalTest, LongtailChurnRunReplaysToLiveDashboard) {
  const int kDevices = 256;
  const int kCycles = 3;
  obs::TelemetryConfig cfg;
  cfg.tracing = false;
  cfg.journal = true;
  obs::TelemetrySink telemetry(cfg);
  const sim::PopulationGenerator pop(sim::mobile_longtail(kDevices));
  fl::Fleet fleet = sim::build_fleet(pop);
  fleet.set_telemetry(&telemetry);

  sim::CohortSampler::Options sopts;
  sopts.fraction = 4.0 / kDevices;
  sopts.seed = 17;
  sim::CohortSampler sampler(sopts);
  sampler.attach(&fleet);
  fleet.set_sampler(&sampler);

  sim::ChurnOptions copts;
  copts.arrival_rate_per_s = 30.0;
  copts.mean_lifetime_s = 2.0;
  copts.seed = 7;
  copts.max_devices = kDevices + 16;
  sim::ChurnProcess churn(pop, copts);
  core::HeliosStrategy strategy;
  strategy.set_cycle_hook(
      [&](fl::Fleet& f, int cycle) { churn.step(f, cycle); });

  strategy.run(fleet, kCycles);
  fleet.set_sampler(nullptr);
  fleet.set_telemetry(nullptr);
  telemetry.flush();

  // Parseable JSONL end to end (read_journal throws on a malformed line).
  std::istringstream is(telemetry.journal_text());
  const std::vector<obs::JournalEvent> events = obs::read_journal(is);
  ASSERT_GT(events.size(), static_cast<std::size_t>(kDevices));

  // Every round journals its cohort, and unsampled devices journal skips —
  // the whole population appears in the event stream.
  std::set<int> seen;
  int cohorts = 0;
  for (const obs::JournalEvent& ev : events) {
    if (ev.type == "cohort") ++cohorts;
    if (ev.device >= 0) seen.insert(ev.device);
  }
  EXPECT_EQ(cohorts, kCycles);
  EXPECT_GE(seen.size(), static_cast<std::size_t>(kDevices));

  // The replayed dashboard renders the same fleet percentile summary the
  // live run shows.
  obs::StragglerDashboard replayed;
  obs::replay_dashboard(events, replayed);
  std::ostringstream live, offline;
  telemetry.render_dashboard(live);
  replayed.render(offline);
  EXPECT_EQ(live.str(), offline.str());

  // And the journal summary agrees with the live skip accounting.
  const obs::JournalSummary s = obs::summarize_journal(events);
  double skipped = 0.0;
  for (const auto& [id, d] : s.devices) {
    skipped += d.skipped_hollow + d.skipped_dead;
  }
  const double live_skips =
      telemetry.metrics()
          .counter("helios.sim.skipped_total", {{"reason", "hollow"}})
          .value() +
      telemetry.metrics()
          .counter("helios.sim.skipped_total", {{"reason", "dead"}})
          .value();
  EXPECT_EQ(skipped, live_skips);
}

// ---- Pinned telemetry outputs --------------------------------------------

/// Everything a run's telemetry exports, captured after flush().
struct TelemetryOutputs {
  std::string journal;
  std::string render;          // StragglerDashboard::render
  std::string dashboard_json;  // StragglerDashboard::write_json
  std::string summary_json;    // StragglerDashboard::write_summary_json
  std::string metrics_json;
};

TelemetryOutputs capture(obs::TelemetrySink& sink) {
  sink.flush();
  TelemetryOutputs out;
  out.journal = sink.journal_text();
  std::ostringstream render, dash, summary, metrics;
  sink.render_dashboard(render);
  sink.dashboard().write_json(dash);
  sink.dashboard().write_summary_json(summary);
  sink.write_metrics_json(metrics);
  out.render = render.str();
  out.dashboard_json = dash.str();
  out.summary_json = summary.str();
  out.metrics_json = metrics.str();
  return out;
}

/// A sampled, churning long-tail fleet over int8pn uplinks with error
/// feedback and 5% frame loss: every flat-run event type.
TelemetryOutputs run_flat_lossy_int8() {
  const int kDevices = 24;
  obs::TelemetryConfig cfg;
  cfg.tracing = false;
  cfg.journal = true;
  obs::TelemetrySink sink(cfg);
  const sim::PopulationGenerator pop(sim::mobile_longtail(kDevices));
  fl::Fleet fleet = sim::build_fleet(pop);
  fleet.set_telemetry(&sink);
  net::NetworkOptions nopts;
  nopts.mode = net::NetMode::kSimulated;
  nopts.payload_codec = codec::CodecId::kInt8PerNeuron;
  nopts.error_feedback = true;
  nopts.channel.loss_prob = 0.05;
  nopts.channel.latency_s = 0.005;
  fl::NetworkSession session(fleet, nopts);
  sim::CohortSampler::Options sopts;
  sopts.fraction = 0.25;
  sopts.seed = 17;
  sim::CohortSampler sampler(sopts);
  sampler.attach(&fleet);
  fleet.set_sampler(&sampler);
  sim::ChurnOptions copts;
  copts.arrival_rate_per_s = 30.0;
  copts.mean_lifetime_s = 2.0;
  copts.seed = 7;
  copts.max_devices = kDevices + 8;
  sim::ChurnProcess churn(pop, copts);
  core::HeliosStrategy strategy;
  strategy.set_cycle_hook(
      [&](fl::Fleet& f, int cycle) { churn.step(f, cycle); });
  strategy.run(fleet, 3);
  fleet.set_sampler(nullptr);
  fleet.set_telemetry(nullptr);
  return capture(sink);
}

/// The test fleet through a depth-3 aggregator tree with lossy device and
/// edge links: the run that emits tier "merge" events.
TelemetryOutputs run_tree_lossy() {
  obs::TelemetryConfig cfg;
  cfg.tracing = false;
  cfg.journal = true;
  obs::TelemetrySink sink(cfg);
  fl::Fleet fleet = testing::make_fleet();
  fleet.set_telemetry(&sink);
  agg::TreeTopology topo;
  topo.edge_nodes = 2;
  topo.fanout = 1;
  topo.edge_link.loss_prob = 0.05;
  topo.edge_link.latency_s = 0.005;
  fl::HierarchySession hier(fleet, topo);
  net::NetworkOptions nopts;
  nopts.mode = net::NetMode::kSimulated;
  nopts.channel.loss_prob = 0.05;
  nopts.channel.latency_s = 0.005;
  fl::NetworkSession session(fleet, nopts);
  core::HeliosStrategy strategy;
  strategy.run(fleet, 3);
  fleet.set_telemetry(nullptr);
  return capture(sink);
}

/// Replaces the value after every `key` (up to the next ',' or '}') with
/// '#': wall-clock fields differ run to run.
std::string mask_values(const std::string& text, std::string_view key) {
  std::string out;
  std::size_t from = 0;
  for (std::size_t at = text.find(key); at != std::string::npos;
       at = text.find(key, from)) {
    at += key.size();
    out.append(text, from, at - from);
    out += '#';
    from = std::min(text.find_first_of(",}\n", at), text.size());
  }
  out.append(text, from);
  return out;
}

/// Drops the metrics-JSON lines of wall-clock series.
std::string without_wall_clock_series(const std::string& metrics) {
  std::istringstream is(metrics);
  std::string out, line;
  while (std::getline(is, line)) {
    if (line.find("\"name\":\"helios.agg.fold_seconds\"") != std::string::npos) {
      continue;
    }
    out += line;
    out += '\n';
  }
  return out;
}

std::uint32_t digest(const std::string& text) {
  return net::crc32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

// The four exported views of two 1-thread runs that between them emit all
// eleven journal event types, pinned to digests recorded before the
// telemetry hooks were rebuilt around typed events. Wall-clock values (the
// journal's "w" and "fold_s", tier fold seconds, the fold-time histogram)
// are masked out; scalar kernels make the rest host-independent.
TEST(TelemetryPins, OutputsMatchRecordedDigests) {
  struct Guard {
    ~Guard() {
      tensor::backend::clear_kernel_backend_override();
      util::set_global_threads(0);
    }
  } guard;
  tensor::backend::set_kernel_backend(tensor::backend::Backend::kScalar);
  util::set_global_threads(1);
  struct Case {
    const char* name;
    TelemetryOutputs (*run)();
    std::uint32_t journal, dashboard, summary, metrics;
  };
  const Case cases[] = {
      {"flat int8pn 5% loss, sampler + churn", &run_flat_lossy_int8,
       0x3849F1DDU, 0x245EFEA1U, 0xCBB59C34U, 0x08D91605U},
      {"depth-3 tree, 5% loss", &run_tree_lossy, 0x1176377AU,
       0xFA571586U, 0x6AA7CC42U, 0x8C526C74U},
  };
  std::set<std::string> types;
  for (const Case& c : cases) {
    const TelemetryOutputs out = c.run();
    std::istringstream is(out.journal);
    for (const obs::JournalEvent& ev : obs::read_journal(is)) {
      types.insert(ev.type);
    }
    const std::uint32_t got[] = {
        digest(mask_values(mask_values(out.journal, "\"w\":"), "\"fold_s\":")),
        digest(out.dashboard_json),
        digest(mask_values(out.summary_json, "\"fold_seconds\":")),
        digest(without_wall_clock_series(out.metrics_json))};
    const std::uint32_t want[] = {c.journal, c.dashboard, c.summary,
                                  c.metrics};
    const char* views[] = {"journal", "dashboard json", "summary json",
                           "metrics json"};
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(got[i], want[i]) << c.name << ": " << views[i] << std::hex
                                 << " digest 0x" << got[i];
    }
  }
  for (const char* t : {"cohort", "skip", "train", "xfer", "codec", "agg",
                        "rot", "net_round", "merge", "churn", "round"}) {
    EXPECT_EQ(types.count(t), 1U) << "no " << t << " event in the pinned runs";
  }
}

// A hierarchical run over lossy links: replaying its journal, tier merge
// events included, rebuilds the live dashboard in every export.
TEST(RunJournalTest, TreeRunReplaysToLiveDashboard) {
  const TelemetryOutputs live = run_tree_lossy();
  std::istringstream is(live.journal);
  obs::StragglerDashboard replayed;
  obs::replay_dashboard(obs::read_journal(is), replayed);
  EXPECT_EQ(replayed.tier("root").merges, 3);
  EXPECT_NE(live.summary_json.find("\"tiers\""), std::string::npos);
  std::ostringstream render, json, summary;
  replayed.render(render);
  replayed.write_json(json);
  replayed.write_summary_json(summary);
  EXPECT_EQ(render.str(), live.render);
  EXPECT_EQ(json.str(), live.dashboard_json);
  EXPECT_EQ(summary.str(), live.summary_json);
}

}  // namespace
}  // namespace helios
