#include "workloads.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <ctime>
#include <stdexcept>

#include "codec/codec.h"
#include "core/straggler_id.h"
#include "core/target.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "device/resource.h"
#include "models/zoo.h"
#include "net/wire.h"
#include "sim/population.h"
#include "util/rng.h"

namespace roundbench {

using namespace helios;

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

/// Independent sub-seed `k` of the workload seed.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t k) {
  return util::Rng(seed).fork(k).next_u64();
}

/// FNV-1a over raw bytes.
struct Digest {
  std::uint64_t h = 1469598103934665603ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  }
  template <typename T>
  void value(const T& v) {
    bytes(&v, sizeof(v));
  }
};

}  // namespace

WorkloadSpec workload_spec(const std::string& name) {
  WorkloadSpec s;
  s.name = name;
  if (name == "paper_alexnet6") {
    s.rounds = 24;
    s.repeat_rounds = 8;
    s.warmup = 2;
    s.min_passes = 4;  // 22 + 3 * 6 = 40 timed rounds: the tail is p75
    s.trace_rounds = 16;
    s.target_accuracy = 0.7;
    s.accuracy_floor = 0.8;
  } else if (name == "longtail256_int8_lossy") {
    // A round's CPU and virtual length depend on which ~26 devices of a
    // heavy tail it draws; 72 rounds average that out.
    s.rounds = 72;
    s.repeat_rounds = 8;
    s.warmup = 2;
    s.min_passes = 2;
    s.trace_rounds = 16;
    s.target_accuracy = 0.7;
    s.accuracy_floor = 0.8;
  } else if (name == "tree32k") {
    // 21 timed rounds: the fewest whose median leaves 10 beyond it.
    s.rounds = 22;
    s.repeat_rounds = 22;
    s.warmup = 1;
    s.trace_rounds = 6;
    s.target_accuracy = 0.5;
    s.accuracy_floor = 0.8;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return s;
}

Setup::Setup(const WorkloadSpec& spec, std::uint64_t seed) {
  const double t0 = cpu_now();
  double t = t0;
  auto lap = [&t] {
    const double now = cpu_now();
    const double d = now - t;
    t = now;
    return d;
  };

  if (spec.name == "paper_alexnet6") {
    // The examples/heterogeneous_fleet.cpp recipe: six Table I profiles on
    // the synthetic CIFAR-10-like task, white-box identification and
    // profiled targets, full participation.
    data::SyntheticSpec dspec = data::cifar10_like_spec(64 * 6);
    dspec.noise = 0.8F;
    dspec.deform = 0.5F;
    util::Rng rng(sub_seed(seed, 1));
    data::Dataset train = data::make_synthetic(dspec, rng);
    dspec.samples = 300;
    data::Dataset test = data::make_synthetic(dspec, rng);
    const std::vector<device::ResourceProfile> profiles{
        device::sim_scaled(device::edge_server()),
        device::sim_scaled(device::jetson_nano_gpu()),
        device::sim_scaled(device::jetson_nano_cpu()),
        device::sim_scaled(device::raspberry_pi()),
        device::sim_scaled(device::deeplens_gpu()),
        device::sim_scaled(device::deeplens_cpu())};
    fleet_ = std::make_unique<fl::Fleet>(models::alexnet_lite_spec(),
                                         std::move(test), sub_seed(seed, 2));
    util::Rng prng(sub_seed(seed, 3));
    const data::Partition parts = data::partition_iid(
        static_cast<std::size_t>(train.size()), profiles.size(), prng);
    for (std::size_t i = 0; i < profiles.size(); ++i) {
      fl::ClientConfig cfg;
      cfg.seed = sub_seed(seed, 100 + i);
      cfg.lr = 0.05F;
      cfg.batch_size = 16;
      fleet_->add_client(data::subset(train, parts[i]), cfg, profiles[i]);
    }
    times_.build_fleet = lap();
    const core::StragglerReport report =
        core::StragglerIdentifier::resource_based(*fleet_, 2.0);
    core::StragglerIdentifier::apply(*fleet_, report);
    times_.identify = lap();
    core::TargetDeterminer::assign_profiled(*fleet_, report);
    times_.target = lap();
  } else {
    const bool tree = spec.name == "tree32k";
    const int devices = tree ? 32768 : 256;
    sim::PopulationConfig pcfg =
        sim::mobile_longtail(devices, sub_seed(seed, 1));
    pcfg.lazy_data = tree;
    const sim::PopulationGenerator pop(pcfg);
    fleet_ = std::make_unique<fl::Fleet>(sim::build_fleet(pop));
    times_.build_fleet = lap();
    // Time-based identification flags the slowest quarter.
    const core::StragglerReport report =
        core::StragglerIdentifier::time_based(*fleet_, devices / 4);
    core::StragglerIdentifier::apply(*fleet_, report);
    times_.identify = lap();
    core::TargetDeterminer::assign_profiled(*fleet_, report);
    times_.target = lap();

    sim::CohortSampler::Options sopts;
    sopts.fraction = tree ? 0.01 : 0.1;
    sopts.seed = sub_seed(seed, 2);
    sampler_ = std::make_unique<sim::CohortSampler>(sopts);
    sampler_->attach(fleet_.get());
    fleet_->set_sampler(sampler_.get());

    net::NetworkOptions nopts;
    nopts.mode = net::NetMode::kSimulated;
    nopts.seed = sub_seed(seed, 3);
    if (!tree) {
      // Journal on (in memory), tracing off.
      obs::TelemetryConfig tcfg;
      tcfg.tracing = false;
      tcfg.journal = true;
      telemetry_ = std::make_unique<obs::TelemetrySink>(tcfg);
      fleet_->set_telemetry(telemetry_.get());
      // bench_net's quantization-sweep channel at its 5% loss point.
      nopts.channel.loss_prob = 0.05;
      nopts.channel.latency_s = 0.005;
      nopts.channel.jitter_s = 0.002;
      nopts.deadline_factor = 2.0;
      nopts.payload_codec = codec::CodecId::kInt8PerNeuron;
      nopts.error_feedback = true;
    }
    network_ = std::make_unique<fl::NetworkSession>(*fleet_, nopts);
    fleet_->register_checkpointable("codec_ef", network_.get());
    if (tree) {
      // bench_scale's depth-3 tree: 64 edges under 8 regionals.
      agg::TreeTopology topo;
      topo.edge_nodes = 64;
      topo.fanout = 8;
      topo.seed = sub_seed(seed, 4);
      hierarchy_ = std::make_unique<fl::HierarchySession>(*fleet_, topo);
      fleet_->register_checkpointable("hierarchy", hierarchy_.get());
    }
  }
  times_.total = cpu_now() - t0;
}

Setup::~Setup() {
  fleet_->set_sampler(nullptr);
  fleet_->set_telemetry(nullptr);
  hierarchy_.reset();
  network_.reset();
  telemetry_.reset();
  sampler_.reset();
  fleet_.reset();
}

std::vector<fl::Client*> Setup::cohort(int round) {
  std::vector<fl::Client*> active = fleet_->active_clients();
  if (sampler_ == nullptr) return active;
  return sampler_->sample(active, round);
}

std::size_t Setup::cohort_size(int round) { return cohort(round).size(); }

std::size_t Setup::cohort_samples(int round) {
  std::size_t n = 0;
  for (fl::Client* c : cohort(round)) {
    n += c->num_samples() * static_cast<std::size_t>(c->config().local_epochs);
  }
  return n;
}

std::uint64_t Setup::input_digest() {
  Digest d;
  const data::Dataset& test = fleet_->test_set();
  d.bytes(test.images.data(), test.images.numel() * sizeof(float));
  d.bytes(test.labels.data(), test.labels.size() * sizeof(int));
  const std::vector<float>& g = fleet_->server().global();
  d.bytes(g.data(), g.size() * sizeof(float));
  for (auto& c : fleet_->clients()) {
    const device::ResourceProfile& p = c->profile();
    d.value(p.compute_gflops);
    d.value(p.mem_bandwidth_mbps);
    d.value(p.net_bandwidth_mbps);
    d.value(c->num_samples());
    d.value(c->volume());
  }
  return d.h;
}

// ---- Traced round ---------------------------------------------------------

TracedHelios::TracedHelios(core::HeliosConfig config) : config_(config) {}

TracedHelios::StragglerState& TracedHelios::state_for(fl::Client& client) {
  auto it = state_.find(client.id());
  if (it == state_.end()) {
    StragglerState st;
    core::SoftTrainerConfig cfg;
    cfg.keep_ratio = client.volume();
    cfg.ps = config_.ps;
    cfg.seed = config_.seed + static_cast<std::uint64_t>(client.id()) * 7919;
    st.trainer =
        std::make_unique<core::SoftTrainer>(client.estimation_model(), cfg);
    st.regulator = std::make_unique<core::RotationRegulator>(
        client.estimation_model().neuron_total(), st.trainer->budget_total());
    it = state_.emplace(client.id(), std::move(st)).first;
  }
  return it->second;
}

void TracedHelios::round(fl::Fleet& fleet, fl::RunResult& result, int cycle,
                         LayerTotals* totals) {
  LayerTotals scratch;
  LayerTotals& tt = totals != nullptr ? *totals : scratch;
  const double round0 = cpu_now();
  double t = round0;
  auto lap = [&t] {
    const double now = cpu_now();
    const double d = now - t;
    t = now;
    return d;
  };

  fl::AggOptions opts;
  opts.hetero_volume_weights = config_.hetero_aggregation;
  opts.per_neuron_merge = config_.hetero_aggregation;
  opts.alpha_damping = config_.alpha_damping;
  if (cycle == 0) state_.clear();
  obs::TelemetrySink* tel = fleet.telemetry();
  if (tel) tel->set_cycle(cycle);

  // 1. Cohort (hibernates the unsampled devices).
  lap();
  const std::vector<fl::Client*> roster = fleet.round_roster(cycle);
  tt.roster_cpu += lap();

  // 2. Submodel selection and rotation.
  std::vector<std::vector<std::uint8_t>> masks(roster.size());
  std::vector<int> forced_counts(roster.size(), 0);
  for (std::size_t i = 0; i < roster.size(); ++i) {
    fl::Client* client = roster[i];
    if (client->is_straggler() && client->volume() < 1.0) {
      StragglerState& st = state_for(*client);
      std::vector<int> forced;
      if (config_.rotation_regulation) forced = st.regulator->overdue();
      forced_counts[i] = static_cast<int>(forced.size());
      masks[i] = st.trainer->select_mask(forced);
    }
  }
  tt.select_cpu += lap();

  // 3. Replica materialization of hibernated cohort members.
  for (fl::Client* client : roster) client->model();
  tt.replica_cpu += lap();

  // 4. Local training fan-out.
  const std::vector<float> global_before(fleet.server().global());
  const std::vector<float> buffers_before(fleet.server().global_buffers());
  const double train_wall0 = wall_now();
  std::vector<fl::ClientUpdate> updates = fl::Fleet::parallel_train(
      roster, [&](fl::Client& client, std::size_t i) {
        return client.run_cycle(global_before, buffers_before, masks[i]);
      });
  tt.train_wall += wall_now() - train_wall0;
  tt.train_cpu += lap();

  // 5. Codec, wire, channel and protocol.
  fl::NetDelivery net = fl::deliver_round(fleet, updates, global_before);
  tt.deliver_cpu += lap();

  double capable_pace = 0.0;
  double loss = 0.0;
  for (std::size_t i = 0; i < roster.size(); ++i) {
    const double cycle_seconds =
        updates[i].train_seconds + net.comm_seconds[i];
    if (!roster[i]->is_straggler()) {
      capable_pace = std::max(capable_pace, cycle_seconds);
    }
    loss += updates[i].mean_loss;
  }
  tt.bookkeeping_cpu += lap();

  // 6. Virtual clock.
  fleet.clock().advance(net.round_seconds);
  tt.advance_cpu += lap();

  // 7-8. Aggregation and contribution / rotation bookkeeping, in
  // run_range's order: a tree computes the U^ij shards while folding, so
  // it aggregates first; the flat server aggregates after.
  fl::HierarchySession* hier = fleet.hierarchy();
  const bool sharded_bookkeeping = hier != nullptr && hier->active();
  if (sharded_bookkeeping) {
    hier->stage_bookkeeping(global_before);
    fleet.server().aggregate(net.aggregate_span(updates), opts);
    tt.aggregate_cpu += lap();
  }
  for (std::size_t i = 0; i < roster.size(); ++i) {
    if (masks[i].empty()) continue;
    if (!net.pass_through && !net.delivered[i]) continue;
    StragglerState& st = state_for(*roster[i]);
    const std::vector<double>* shard =
        sharded_bookkeeping ? hier->contributions_for(roster[i]->id())
                            : nullptr;
    if (shard != nullptr) {
      st.trainer->apply_contributions(masks[i], *shard);
    } else {
      st.trainer->update_contributions(global_before, updates[i].params,
                                       masks[i]);
    }
    st.regulator->record_cycle(masks[i]);
    if (tel) {
      std::array<int, 4> cs{0, 0, 0, 0};
      const int m = st.regulator->neuron_total();
      for (int j = 0; j < m; ++j) {
        cs[static_cast<std::size_t>(
            std::min(st.regulator->skipped_cycles(j), 3))]++;
      }
      tel->record_rotation(roster[i]->id(), forced_counts[i], cs);
    }
  }
  tt.bookkeeping_cpu += lap();
  if (!sharded_bookkeeping) {
    fleet.server().aggregate(net.aggregate_span(updates), opts);
    tt.aggregate_cpu += lap();
  }

  // Pace adaptation during the first cycles.
  if (cycle < config_.pace_adaptation_cycles && capable_pace > 0.0) {
    for (std::size_t i = 0; i < roster.size(); ++i) {
      fl::Client& c = *roster[i];
      if (masks[i].empty()) continue;
      if (!c.active()) continue;
      const double ratio =
          (updates[i].train_seconds + net.comm_seconds[i]) / capable_pace;
      if (ratio > 1.1 || ratio < 0.9) {
        const double next =
            std::clamp(c.volume() / ratio, config_.min_volume, 1.0);
        c.set_volume(next);
        StragglerState& st = state_for(c);
        st.trainer->set_keep_ratio(next);
        st.regulator->set_budget_total(st.trainer->budget_total());
      }
    }
  }
  tt.bookkeeping_cpu += lap();

  // 9. Evaluation.
  const double accuracy = fleet.evaluate();
  tt.evaluate_cpu += lap();
  result.rounds.push_back(
      {cycle, fleet.clock().now(), accuracy,
       loss / static_cast<double>(std::max<std::size_t>(1, roster.size())),
       net.upload_mb});
  if (tel) {
    const fl::RoundRecord& r = result.rounds.back();
    tel->record_cycle_result(result.method, cycle, r.virtual_time,
                             r.test_accuracy, r.mean_train_loss, r.upload_mb);
  }
  tt.bookkeeping_cpu += lap();
  tt.round_cpu += cpu_now() - round0;

  // Counts, outside the timed calls.
  tt.rounds += 1;
  tt.cohort_devices += static_cast<double>(roster.size());
  tt.live_replica_mb += static_cast<double>(fleet.live_replica_bytes()) / 1e6;
  const int neuron_total = fleet.server().neuron_total();
  for (const fl::ClientUpdate& u : updates) {
    tt.samples += static_cast<double>(u.sample_count);
    tt.trained_neurons += u.trained_fraction(neuron_total) * neuron_total;
    tt.neuron_slots += neuron_total;
  }
  tt.attempted += static_cast<double>(updates.size());
  if (net.pass_through) {
    tt.delivered += static_cast<double>(updates.size());
  } else {
    tt.delivered += static_cast<double>(
        std::count(net.delivered.begin(), net.delivered.end(), 1));
    tt.frames_sent += static_cast<double>(updates.size() + net.retransmits);
    tt.retransmits += net.retransmits;
    tt.frames_lost += net.lost_frames;
    tt.deadline_misses += net.deadline_misses;
    fl::NetworkSession* session = fleet.network();
    if (tel == nullptr && session != nullptr) {
      // The fp32 codec carries no error feedback, so re-encoding reproduces
      // the frames that crossed the wire.
      for (const fl::ClientUpdate& u : updates) {
        tt.codec_raw_mb +=
            static_cast<double>(net::dense_frame_bytes(session->layout(),
                                                       u.trained_mask)) /
            1e6;
        tt.codec_wire_mb +=
            static_cast<double>(session->frame_bytes(u, global_before)) / 1e6;
      }
    }
  }
  if (sharded_bookkeeping) {
    for (const agg::TierStats& s : hier->tree().tier_stats()) {
      const std::string tier = s.tier;
      if (tier == "edge") tt.edge_fold_s += s.fold_seconds;
      if (tier == "regional") tt.regional_fold_s += s.fold_seconds;
      if (tier == "root") tt.root_fold_s += s.fold_seconds;
      tt.frames_folded += static_cast<double>(s.frames_folded);
    }
  }
}

}  // namespace roundbench
