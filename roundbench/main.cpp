// roundbench: host cost of Helios rounds, end to end and per layer.
//
//   roundbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--threads <n>] [--rounds <n>] [--workdir <dir>]
//
// --trace 0 (timed run): repeated passes of fresh set-up + the workload's
// trajectory, each round driven through HeliosStrategy::run_range(fleet,
// result, c, c + 1) and timed in process CPU seconds, until --seconds of
// wall time have passed. The first pass's trajectory gives the simulated
// metrics; later passes must reproduce it bit for bit.
//
// --trace 1 (traced run): an untraced reference pass (checkpointed after
// its last round and continued one round), a resume of that checkpoint
// into a fresh set-up, and a traced pass that re-drives the same rounds
// one public call at a time (TracedHelios) under per-layer CPU timers. The
// traced pass must reproduce the reference bit for bit.
//
// Prints one JSON object (raw samples, checks, environment) as its last
// line; run.py turns it into the benchmark's metrics. Exit code 0 when all
// checks pass, 1 when one fails, 2 on a usage or environment error.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/journal_reader.h"
#include "obs/procstat.h"
#include "tensor/backend/dispatch.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace {

using namespace roundbench;

#ifndef ROUNDBENCH_BUILD_TYPE
#define ROUNDBENCH_BUILD_TYPE ""
#endif
#ifndef ROUNDBENCH_COMPILER
#define ROUNDBENCH_COMPILER ""
#endif

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  int threads = 2;
  int rounds = 0;  // > 0 overrides the workload's trajectory length
  std::string workdir = ".";
};

/// Minimal JSON object writer; non-finite numbers become null.
class Json {
 public:
  Json& num(const std::string& key, double v) {
    return raw(key, number(v));
  }
  Json& integer(const std::string& key, long long v) {
    return raw(key, std::to_string(v));
  }
  Json& str(const std::string& key, const std::string& v) {
    std::string out = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return raw(key, out + "\"");
  }
  Json& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  Json& nums(const std::string& key, const std::vector<double>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      out += (i ? ", " : "") + number(v[i]);
    }
    return raw(key, out + "]");
  }
  Json& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "\"" : ", \"") + key + "\": " + json;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  static std::string number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }
  std::string body_;
};

/// Named pass/fail checks feeding the result's `correct` flag.
class Checks {
 public:
  void add(const std::string& name, bool ok, const std::string& detail = "") {
    Json j;
    j.str("name", name).boolean("ok", ok);
    if (!detail.empty()) j.str("detail", detail);
    items_.push_back(j.text());
    all_ok_ = all_ok_ && ok;
  }
  bool ok() const { return all_ok_; }
  std::string json() const {
    std::string out = "[";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      out += (i ? ", " : "") + items_[i];
    }
    return out + "]";
  }

 private:
  std::vector<std::string> items_;
  bool all_ok_ = true;
};

std::string load_average() {
  std::ifstream in("/proc/loadavg");
  double a = 0.0;
  double b = 0.0;
  double c = 0.0;
  if (!(in >> a >> b >> c)) return "null";
  Json j;
  j.num("1m", a).num("5m", b).num("15m", c);
  return j.text();
}

/// Returns free heap pages to the OS between rounds, outside the timed
/// calls. Without it, where the two pool threads' blocks landed decided
/// whether ~20 MB of fragmentation stayed resident: longtail256_int8_lossy
/// peaked at 73 or 95 MB from run to run, and at 66-68 MB with it.
void release_free_heap() { malloc_trim(0); }

bool all_finite(const std::vector<float>& v) {
  return std::all_of(v.begin(), v.end(),
                     [](float x) { return std::isfinite(x); });
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(float)) == 0);
}

bool same_record(const fl::RoundRecord& a, const fl::RoundRecord& b) {
  return a.cycle == b.cycle &&
         std::memcmp(&a.virtual_time, &b.virtual_time, sizeof(double)) == 0 &&
         std::memcmp(&a.test_accuracy, &b.test_accuracy, sizeof(double)) == 0 &&
         std::memcmp(&a.mean_train_loss, &b.mean_train_loss,
                     sizeof(double)) == 0 &&
         std::memcmp(&a.upload_mb, &b.upload_mb, sizeof(double)) == 0;
}

bool same_rounds(const std::vector<fl::RoundRecord>& a,
                 const std::vector<fl::RoundRecord>& b, std::size_t n) {
  if (a.size() < n || b.size() < n) return false;
  for (std::size_t i = 0; i < n; ++i) {
    if (!same_record(a[i], b[i])) return false;
  }
  return true;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Sums a per-device labeled counter over the fleet's device ids.
double device_counter_sum(obs::TelemetrySink& tel, const char* name,
                          fl::Fleet& fleet) {
  double total = 0.0;
  for (auto& c : fleet.clients()) {
    total += tel.metrics()
                 .counter(name, {{"device", std::to_string(c->id())}})
                 .value();
  }
  return total;
}

/// The live dashboard must equal the one replayed from the journal.
bool journal_replays_to_dashboard(obs::TelemetrySink& tel) {
  tel.flush();
  std::istringstream is(tel.journal_text());
  const std::vector<obs::JournalEvent> events = obs::read_journal(is);
  obs::StragglerDashboard replayed;
  obs::replay_dashboard(events, replayed);
  std::ostringstream live;
  std::ostringstream offline;
  tel.render_dashboard(live);
  replayed.render(offline);
  return !events.empty() && live.str() == offline.str();
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// ---- Timed run ------------------------------------------------------------

constexpr std::size_t kMinSetups = 2;

std::string timed_run(const Args& args, const WorkloadSpec& spec,
                      Checks& checks, long long& attempted,
                      long long& failed) {
  const double deadline = wall_now() + args.seconds;
  const std::size_t k = static_cast<std::size_t>(spec.rounds);

  std::vector<double> round_cpu;
  std::vector<double> round_wall;  // for the noise note; not a metric
  std::vector<double> setup_cpu;
  std::vector<double> setup_wall;
  double timed_cpu = 0.0;
  double timed_samples = 0.0;
  int excluded = 0;
  int passes = 0;
  std::uint64_t digest = 0;
  std::vector<fl::RoundRecord> first_rounds;
  std::vector<float> repeat_params;  // trajectory's after repeat_rounds
  double updates_attempted = 0.0;
  double updates_delivered = 0.0;
  bool passes_identical = true;
  double peak_rss_mb = 0.0;
  bool cohorts_consistent = true;

  while (true) {
    const double setup_wall0 = wall_now();
    Setup setup(spec, args.seed);
    setup_wall.push_back(wall_now() - setup_wall0);
    setup_cpu.push_back(setup.times().total);
    fl::Fleet& fleet = setup.fleet();
    if (passes == 0) digest = setup.input_digest();
    core::HeliosStrategy strategy;
    fl::RunResult result;
    result.method = strategy.name();
    obs::TelemetrySink* tel = setup.telemetry();

    const int pass_rounds = passes == 0 ? spec.rounds : spec.repeat_rounds;
    for (int c = 0; c < pass_rounds; ++c) {
      const bool trajectory = passes == 0;
      const double samples = static_cast<double>(setup.cohort_samples(c));
      const double cohort = static_cast<double>(setup.cohort_size(c));
      auto counter = [&](const char* name) {
        return tel != nullptr ? tel->metrics().counter(name).value() : 0.0;
      };
      const double participants0 =
          counter("helios.net.round_participants_total");
      const double delivered0 = counter("helios.net.round_delivered_total");

      const double w0 = wall_now();
      const double t0 = cpu_now();
      strategy.run_range(fleet, result, c, c + 1);
      const double dt = cpu_now() - t0;
      const double dw = wall_now() - w0;
      release_free_heap();

      ++attempted;
      if (!all_finite(fleet.server().global()) ||
          !all_finite(fleet.server().global_buffers())) {
        ++failed;
      }
      if (c < spec.warmup) {
        ++excluded;
      } else {
        round_cpu.push_back(dt);
        round_wall.push_back(dw);
        timed_cpu += dt;
        timed_samples += samples;
      }
      if (!trajectory) continue;
      if (c + 1 == spec.repeat_rounds) repeat_params = fleet.server().global();
      // Delivered updates, from whichever layer sees them: the network's
      // round counters, the tree's edge folds, or (no network) all of them.
      double delivered = cohort;
      if (tel != nullptr && setup.network() != nullptr) {
        const double participants =
            counter("helios.net.round_participants_total") - participants0;
        delivered = counter("helios.net.round_delivered_total") - delivered0;
        cohorts_consistent = cohorts_consistent && participants == cohort;
      } else if (setup.hierarchy() != nullptr) {
        delivered = 0.0;
        for (const agg::TierStats& s : setup.hierarchy()->tree().tier_stats()) {
          if (std::string(s.tier) == "edge") {
            delivered += static_cast<double>(s.frames_folded);
          }
        }
      }
      cohorts_consistent =
          cohorts_consistent && delivered >= 0.0 && delivered <= cohort;
      updates_attempted += cohort;
      updates_delivered += delivered;
    }

    if (passes == 0) {
      first_rounds = result.rounds;
    } else {
      passes_identical = passes_identical &&
                         same_rounds(result.rounds, first_rounds,
                                     static_cast<std::size_t>(pass_rounds)) &&
                         same_bits(fleet.server().global(), repeat_params);
    }
    ++passes;
    if (wall_now() >= deadline && passes >= spec.min_passes) {
      // Read the high-water mark before the replay check's own
      // allocations can raise it.
      peak_rss_mb = obs::read_proc_memory().peak_rss_mb;
      if (tel != nullptr) {
        checks.add("journal_replays_to_live_dashboard",
                   journal_replays_to_dashboard(*tel));
      }
      break;
    }
  }
  // setup_s is a median: a run whose passes gave fewer set-ups than
  // kMinSetups (tree32k's one pass) adds bare ones at its end. More would
  // not fit the time budget on tree32k (about 7 cpu_s each).
  while (setup_cpu.size() < kMinSetups) {
    const double setup_wall0 = wall_now();
    Setup setup(spec, args.seed);
    setup_wall.push_back(wall_now() - setup_wall0);
    setup_cpu.push_back(setup.times().total);
  }

  fl::RunResult trajectory;
  trajectory.rounds = first_rounds;
  const double final_accuracy = trajectory.final_accuracy();
  const double to_target = trajectory.time_to_accuracy(spec.target_accuracy);
  const std::size_t target_round =
      trajectory.cycles_to_accuracy(spec.target_accuracy);
  double upload_mb = 0.0;
  std::vector<double> accuracy_curve;
  std::vector<double> virtual_time_curve;
  for (const fl::RoundRecord& r : first_rounds) {
    upload_mb += r.upload_mb;
    accuracy_curve.push_back(r.test_accuracy);
    virtual_time_curve.push_back(r.virtual_time);
  }

  checks.add("global_params_finite", failed == 0);
  checks.add("accuracy_floor", final_accuracy >= spec.accuracy_floor,
             "final_accuracy " + std::to_string(final_accuracy) + " floor " +
                 std::to_string(spec.accuracy_floor));
  checks.add("target_reached_in_first_half", 2 * target_round < k,
             "round " + std::to_string(target_round) + " of " +
                 std::to_string(k));
  checks.add("delivered_plus_failed_equals_attempted", cohorts_consistent);
  checks.add("passes_bit_identical", passes_identical);
  checks.add("timed_rounds_present", !round_cpu.empty());

  Json j;
  j.str("input_digest", hex(digest))
      .integer("passes", passes)
      .integer("trajectory_rounds", spec.rounds)
      .integer("warmup_rounds_excluded", excluded)
      .nums("round_cpu_s", round_cpu)
      .nums("round_wall_s", round_wall)
      .nums("setup_cpu_s", setup_cpu)
      .nums("setup_wall_s", setup_wall)
      .num("timed_cpu_s", timed_cpu)
      .num("timed_samples", timed_samples)
      .num("peak_rss_mb", peak_rss_mb)
      .nums("accuracy_curve", accuracy_curve)
      .nums("virtual_time_curve", virtual_time_curve)
      .num("final_accuracy", final_accuracy)
      .num("target_accuracy", spec.target_accuracy)
      .num("virtual_s_to_target", to_target)
      .num("virtual_s_per_round",
           first_rounds.back().virtual_time / static_cast<double>(k))
      .num("upload_mb_per_round", upload_mb / static_cast<double>(k))
      .num("updates_attempted", updates_attempted)
      .num("updates_delivered", updates_delivered)
      .num("update_delivered_share",
           updates_attempted > 0 ? updates_delivered / updates_attempted : 0.0);
  return j.text();
}

// ---- Traced run -----------------------------------------------------------

struct CodecBytes {
  double raw_mb = 0.0;
  double wire_mb = 0.0;
  double journal_mb = 0.0;
};

CodecBytes telemetry_bytes(Setup& setup) {
  CodecBytes b;
  obs::TelemetrySink* tel = setup.telemetry();
  if (tel == nullptr) return b;
  b.raw_mb =
      device_counter_sum(*tel, "helios.codec.bytes_in_total", setup.fleet()) /
      1e6;
  b.wire_mb =
      device_counter_sum(*tel, "helios.codec.bytes_out_total", setup.fleet()) /
      1e6;
  b.journal_mb =
      static_cast<double>(tel->journal_position().byte_offset) / 1e6;
  return b;
}

std::string traced_run(const Args& args, const WorkloadSpec& spec,
                       Checks& checks, long long& attempted,
                       long long& failed) {
  const int k = spec.trace_rounds;
  const int w = spec.warmup;
  const std::string ckpt =
      args.workdir + "/roundbench-" + spec.name + ".ckpt";
  std::vector<double> setup_cpu;
  std::vector<double> build_cpu;
  std::vector<double> identify_cpu;
  std::vector<double> target_cpu;
  auto note_setup = [&](const Setup& s) {
    setup_cpu.push_back(s.times().total);
    build_cpu.push_back(s.times().build_fleet);
    identify_cpu.push_back(s.times().identify);
    target_cpu.push_back(s.times().target);
  };

  // Untraced reference: k rounds, checkpoint, then one more round.
  std::vector<fl::RoundRecord> ref_rounds;
  std::vector<float> ref_params;
  std::vector<float> ref_buffers;
  fl::RoundRecord next_record;
  std::vector<float> next_params;
  std::vector<float> next_buffers;
  double untraced_cpu = 0.0;
  double to_target = 0.0;
  std::size_t target_round = 0;
  double save_cpu = 0.0;
  double ckpt_mb = 0.0;
  {
    Setup setup(spec, args.seed);
    note_setup(setup);
    core::HeliosStrategy strategy;
    fl::RunResult result;
    result.method = strategy.name();
    for (int c = 0; c < k; ++c) {
      const double t0 = cpu_now();
      strategy.run_range(setup.fleet(), result, c, c + 1);
      const double dt = cpu_now() - t0;
      release_free_heap();
      if (c >= w) untraced_cpu += dt;
      ++attempted;
    }
    const double s0 = cpu_now();
    setup.fleet().save_checkpoint(ckpt, &strategy, result);
    save_cpu = cpu_now() - s0;
    std::ifstream in(ckpt, std::ios::binary | std::ios::ate);
    if (in) ckpt_mb = static_cast<double>(in.tellg()) / 1e6;
    ref_rounds = result.rounds;
    to_target = result.time_to_accuracy(spec.target_accuracy);
    target_round = result.cycles_to_accuracy(spec.target_accuracy);
    ref_params = setup.fleet().server().global();
    ref_buffers = setup.fleet().server().global_buffers();
    strategy.run_range(setup.fleet(), result, k, k + 1);
    ++attempted;
    next_record = result.rounds.back();
    next_params = setup.fleet().server().global();
    next_buffers = setup.fleet().server().global_buffers();
  }

  // Resume the checkpoint into a fresh set-up and run the next round.
  double resume_cpu = 0.0;
  {
    Setup setup(spec, args.seed);
    note_setup(setup);
    core::HeliosStrategy strategy;
    const double r0 = cpu_now();
    fl::RunResult result = setup.fleet().resume(ckpt, &strategy);
    resume_cpu = cpu_now() - r0;
    strategy.run_range(setup.fleet(), result, k, k + 1);
    ++attempted;
    const bool same =
        result.rounds.size() == static_cast<std::size_t>(k + 1) &&
        same_record(result.rounds.back(), next_record) &&
        same_bits(setup.fleet().server().global(), next_params) &&
        same_bits(setup.fleet().server().global_buffers(), next_buffers);
    checks.add("checkpoint_resume_next_round_bit_identical", same);
    std::remove(ckpt.c_str());
  }

  // Traced pass.
  LayerTotals tt;
  CodecBytes bytes0;
  CodecBytes bytes1;
  bool delivery_consistent = true;
  double merge_frame_mb = 0.0;
  {
    Setup setup(spec, args.seed);
    note_setup(setup);
    if (setup.hierarchy() != nullptr) {
      merge_frame_mb =
          static_cast<double>(setup.hierarchy()->tree().merge_frame_bytes()) /
          1e6;
    }
    TracedHelios traced;
    fl::RunResult result;
    result.method = core::HeliosStrategy().name();
    for (int c = 0; c < k; ++c) {
      if (c == w) bytes0 = telemetry_bytes(setup);
      const double attempted0 = tt.attempted;
      const double delivered0 = tt.delivered;
      traced.round(setup.fleet(), result, c, c >= w ? &tt : nullptr);
      release_free_heap();
      ++attempted;
      if (!all_finite(setup.fleet().server().global())) ++failed;
      if (c >= w) {
        const double a = tt.attempted - attempted0;
        const double d = tt.delivered - delivered0;
        delivery_consistent = delivery_consistent && d >= 0 && d <= a &&
                              a == static_cast<double>(setup.cohort_size(c));
      }
    }
    bytes1 = telemetry_bytes(setup);
    const bool same =
        same_rounds(result.rounds, ref_rounds, static_cast<std::size_t>(k)) &&
        result.rounds.size() == static_cast<std::size_t>(k) &&
        same_bits(setup.fleet().server().global(), ref_params) &&
        same_bits(setup.fleet().server().global_buffers(), ref_buffers);
    checks.add("traced_equals_untraced_bit_identical", same);
  }
  const double n = std::max(1, tt.rounds);
  const double attributed = tt.roster_cpu + tt.select_cpu + tt.replica_cpu +
                            tt.train_cpu + tt.deliver_cpu + tt.advance_cpu +
                            tt.aggregate_cpu + tt.bookkeeping_cpu +
                            tt.evaluate_cpu;
  const double unattributed =
      tt.round_cpu > 0 ? (tt.round_cpu - attributed) / tt.round_cpu : 1.0;
  checks.add("global_params_finite", failed == 0);
  checks.add("delivered_plus_failed_equals_attempted", delivery_consistent);
  checks.add("unattributed_share_at_most_0.10", unattributed <= 0.10);
  checks.add("target_reached_in_first_half",
             2 * target_round < static_cast<std::size_t>(k),
             "round " + std::to_string(target_round) + " of " +
                 std::to_string(k));

  const double untraced_mean = untraced_cpu / n;
  const double traced_mean = tt.round_cpu / n;
  double codec_raw = tt.codec_raw_mb;
  double codec_wire = tt.codec_wire_mb;
  if (bytes1.raw_mb > 0.0 || bytes1.wire_mb > 0.0) {
    codec_raw = bytes1.raw_mb - bytes0.raw_mb;
    codec_wire = bytes1.wire_mb - bytes0.wire_mb;
  }
  const int threads = helios::util::global_thread_count();

  Json layers;
  layers.num("sim.build_fleet_cpu_s", median(build_cpu))
      .num("sim.roster_cpu_s", tt.roster_cpu / n)
      .num("sim.cohort_devices", tt.cohort_devices / n)
      .num("core.identify_cpu_s", median(identify_cpu))
      .num("core.target_cpu_s", median(target_cpu))
      .num("core.select_cpu_s", tt.select_cpu / n)
      .num("core.bookkeeping_cpu_s", tt.bookkeeping_cpu / n)
      .num("core.trained_neuron_share",
           tt.neuron_slots > 0 ? tt.trained_neurons / tt.neuron_slots : 0.0)
      .num("fl.replica_build_cpu_s", tt.replica_cpu / n)
      .num("fl.train_cpu_s", tt.train_cpu / n)
      .num("fl.train_wall_s", tt.train_wall / n)
      .num("fl.train_idle_share",
           tt.train_wall > 0 ? 1.0 - tt.train_cpu / (threads * tt.train_wall)
                             : 0.0)
      .num("fl.samples", tt.samples / n)
      .num("net.deliver_cpu_s", tt.deliver_cpu / n)
      .num("codec.raw_mb", codec_raw / n)
      .num("codec.wire_mb", codec_wire / n)
      .num("net.frames_sent", tt.frames_sent / n)
      .num("net.retransmits", tt.retransmits / n)
      .num("net.frames_lost", tt.frames_lost / n)
      .num("net.deadline_misses", tt.deadline_misses / n)
      .num("agg.aggregate_cpu_s", tt.aggregate_cpu / n)
      .num("agg.edge_fold_s", tt.edge_fold_s / n)
      .num("agg.regional_fold_s", tt.regional_fold_s / n)
      .num("agg.root_fold_s", tt.root_fold_s / n)
      .num("agg.frames_folded", tt.frames_folded / n)
      .num("agg.merge_frame_mb", merge_frame_mb)
      .num("fl.evaluate_cpu_s", tt.evaluate_cpu / n)
      .num("fl.live_replica_mb", tt.live_replica_mb / n)
      .num("obs.journal_mb_per_round",
           (bytes1.journal_mb - bytes0.journal_mb) / n)
      .num("sim.virtual_s_to_target", to_target)
      .num("fl.checkpoint_save_cpu_s", save_cpu)
      .num("fl.checkpoint_mb", ckpt_mb)
      .num("fl.resume_cpu_s", resume_cpu)
      .num("round.traced_cpu_s", traced_mean)
      .num("round.unattributed_share", unattributed)
      .num("trace.overhead_share",
           untraced_mean > 0 ? traced_mean / untraced_mean - 1.0 : 0.0);

  Json j;
  j.integer("traced_rounds", tt.rounds)
      .integer("warmup_rounds_excluded", w)
      .num("untraced_round_cpu_s", untraced_mean)
      .nums("setup_cpu_s", setup_cpu)
      .raw("layers", layers.text());
  return j.text();
}

int usage(const char* msg) {
  std::cerr << "roundbench: " << msg
            << "\nusage: roundbench --workload <name> --seed <n> --seconds "
               "<s> --trace <0|1> [--threads <n>] [--rounds <n>] "
               "[--workdir <dir>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value);
      } else if (flag == "--threads") {
        args.threads = std::stoi(value);
      } else if (flag == "--rounds") {
        args.rounds = std::stoi(value);
      } else if (flag == "--workdir") {
        args.workdir = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  WorkloadSpec spec;
  try {
    spec = workload_spec(args.workload);
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  }
  if (args.trace != 0 && args.trace != 1) return usage("--trace must be 0 or 1");
  if (args.rounds > 0) {
    spec.rounds = args.rounds;
    spec.repeat_rounds = args.rounds;
    spec.trace_rounds = args.rounds;
    spec.warmup = std::min(spec.warmup, args.rounds - 1);
  }

  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const std::string build_type = ROUNDBENCH_BUILD_TYPE;
  if (build_type != "Release") {
    return usage(("refusing a non-Release build (" + build_type + ")").c_str());
  }
  if (args.threads < 1 || args.threads > nproc) {
    return usage(("pool of " + std::to_string(args.threads) +
                  " threads does not fit nproc " + std::to_string(nproc))
                     .c_str());
  }
  helios::util::set_global_threads(args.threads);
  // Keep peak RSS a function of the program, not of the threads' timing.
  // glibc's dynamic mmap threshold drifts with the order blocks are freed
  // in; the fixed one keeps large blocks on the heap, where the dynamic one
  // ends up too (a threshold low enough to mmap them cost 15% CPU on
  // paper_alexnet6). Free heap pages are returned between rounds (see
  // release_free_heap).
  constexpr int kMmapThreshold = 32 * 1024 * 1024;
  mallopt(M_MMAP_THRESHOLD, kMmapThreshold);

  Json env;
  env.integer("nproc", nproc)
      .integer("pool_threads", helios::util::global_thread_count())
      .str("kernel_backend", helios::tensor::backend::active_backend_name())
      .str("build_type", build_type)
      .str("compiler", ROUNDBENCH_COMPILER)
      .integer("malloc_mmap_threshold", kMmapThreshold)
      .boolean("malloc_trim_between_rounds", true)
      .raw("load_average_start", load_average());

  Checks checks;
  long long attempted = 0;
  long long failed = 0;
  std::string body;
  try {
    body = args.trace == 0 ? timed_run(args, spec, checks, attempted, failed)
                           : traced_run(args, spec, checks, attempted, failed);
  } catch (const std::exception& e) {
    checks.add("no_exception", false, e.what());
    ++failed;
    body = "{}";
  }
  env.raw("load_average_end", load_average());

  Json out;
  out.str("workload", spec.name)
      .integer("seed", static_cast<long long>(args.seed))
      .integer("trace", args.trace)
      .raw("env", env.text())
      .boolean("correct", checks.ok() && failed == 0)
      .integer("attempted", attempted)
      .integer("failed", failed)
      .raw("checks", checks.json())
      .raw("result", body);
  std::cout << out.text() << std::endl;
  return checks.ok() && failed == 0 ? 0 : 1;
}
