// Network-simulation benchmark: what do faulty channels cost each strategy?
//
// Two sections, both written machine-readably to BENCH_net.json (schema 2)
// so CI can diff the wire overhead and the graceful-degradation accuracy
// cost via bench_compare:
//
//  * `strategies`: for every strategy, one ideal-channel baseline run plus
//    one simulated run per loss rate (0 / 1 / 5%), all on identical
//    fleets. Reported per run: bytes actually on the wire (retransmits
//    included), host wall-clock, virtual round time, and the
//    final-accuracy delta against the ideal baseline.
//
//  * `quantization`: the wire-codec sweep — Helios and Syn. FL on a
//    sampled mobile-longtail population (C = 0.1) with the payload codec
//    at fp32 / fp16 / int8 per-neuron (error feedback on) across the same
//    loss rates. Each quantized run reports its measured wire-byte
//    reduction and final-accuracy delta against the fp32 run at the same
//    loss rate; bench_compare holds the int8pn reduction to the >= 4x
//    acceptance floor.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <sstream>
#include <vector>

#include "bench_common.h"
#include "codec/codec.h"
#include "core/straggler_id.h"
#include "core/target.h"
#include "fl/transport.h"
#include "obs/procstat.h"
#include "obs/telemetry.h"
#include "sim/population.h"
#include "sim/sampler.h"
#include "util/atomic_file.h"
#include "util/host.h"

namespace {

using namespace helios;

struct RunStats {
  double accuracy = 0.0;
  double virtual_seconds = 0.0;
  double wall_seconds = 0.0;
  double wire_mb = 0.0;
  double frames_sent = 0.0;
  double frames_lost = 0.0;
  double drops = 0.0;
  double deadline_misses = 0.0;
  double deaths = 0.0;
};

/// Sums a per-device labeled counter over the fleet's device ids.
double sum_device_counter(obs::TelemetrySink& tel, const char* name,
                          int devices) {
  double total = 0.0;
  for (int d = 0; d < devices; ++d) {
    total += tel.metrics()
                 .counter(name, {{"device", std::to_string(d)}})
                 .value();
  }
  return total;
}

RunStats run_once(const bench::TaskSpec& task, const bench::FleetSetup& setup,
                  const std::string& method, const net::NetworkOptions& opts) {
  fl::Fleet fleet = bench::build_fleet(task, setup);
  obs::TelemetryConfig tcfg;
  tcfg.tracing = false;
  obs::TelemetrySink telemetry(tcfg);
  fleet.set_telemetry(&telemetry);
  fl::NetworkSession session(fleet, opts);

  auto strategy = bench::make_strategy(method);
  const auto t0 = std::chrono::steady_clock::now();
  const fl::RunResult result = strategy->run(fleet, task.cycles);
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - t0;

  RunStats s;
  s.accuracy = result.final_accuracy();
  s.virtual_seconds =
      result.rounds.empty() ? 0.0 : result.rounds.back().virtual_time;
  s.wall_seconds = wall.count();
  s.wire_mb = sum_device_counter(telemetry, "helios.net.bytes_on_wire_total",
                                 setup.devices) /
              1e6;
  s.frames_sent = sum_device_counter(
      telemetry, "helios.net.frames_sent_total", setup.devices);
  s.frames_lost = sum_device_counter(
      telemetry, "helios.net.frames_lost_total", setup.devices);
  s.drops =
      sum_device_counter(telemetry, "helios.net.drops_total", setup.devices);
  s.deadline_misses =
      telemetry.metrics().counter("helios.net.deadline_missed_total").value();
  s.deaths = sum_device_counter(
      telemetry, "helios.net.device_deaths_total", setup.devices);
  return s;
}

void write_stats(std::ostream& os, const RunStats& s) {
  os << "{\"accuracy\": " << s.accuracy
     << ", \"virtual_seconds\": " << s.virtual_seconds
     << ", \"wall_seconds\": " << s.wall_seconds
     << ", \"wire_mb\": " << s.wire_mb
     << ", \"frames_sent\": " << s.frames_sent
     << ", \"frames_lost\": " << s.frames_lost
     << ", \"drops\": " << s.drops
     << ", \"deadline_misses\": " << s.deadline_misses
     << ", \"deaths\": " << s.deaths << "}";
}

// --- Quantization sweep -----------------------------------------------

struct QuantStats {
  double accuracy = 0.0;
  double wall_seconds = 0.0;
  double wire_mb = 0.0;       // everything on the wire, retransmits included
  double frames_sent = 0.0;
  double frames_lost = 0.0;
  double codec_raw_mb = 0.0;   // fp32-dense cost of the encoded payloads
  double codec_wire_mb = 0.0;  // what the codec actually emitted
};

/// One run of the codec sweep: a sampled mobile-longtail fleet (the
/// acceptance population) through a simulated channel with the given
/// payload codec. Error feedback stays on — it is part of the quantized
/// path being measured, and a no-op at fp32.
QuantStats run_quant_once(const std::string& method, codec::CodecId codec,
                          double loss, int devices, int cycles) {
  const sim::PopulationGenerator pop(sim::mobile_longtail(devices));
  fl::Fleet fleet = sim::build_fleet(pop);
  const core::StragglerReport report = core::StragglerIdentifier::time_based(
      fleet, std::max(1, devices / 4));
  core::StragglerIdentifier::apply(fleet, report);
  core::TargetDeterminer::assign_profiled(fleet, report);

  sim::CohortSampler::Options sopts;
  sopts.fraction = 0.1;
  sopts.seed = 29;
  sim::CohortSampler sampler(sopts);
  sampler.attach(&fleet);
  fleet.set_sampler(&sampler);

  obs::TelemetryConfig tcfg;
  tcfg.tracing = false;
  obs::TelemetrySink telemetry(tcfg);
  fleet.set_telemetry(&telemetry);

  net::NetworkOptions opts;
  opts.mode = net::NetMode::kSimulated;
  opts.channel.loss_prob = loss;
  opts.channel.latency_s = 0.005;
  opts.channel.jitter_s = 0.002;
  opts.deadline_factor = 2.0;
  opts.seed = 97;
  opts.payload_codec = codec;
  opts.error_feedback = true;
  fl::NetworkSession session(fleet, opts);

  auto strategy = bench::make_strategy(method);
  const auto t0 = std::chrono::steady_clock::now();
  const fl::RunResult result = strategy->run(fleet, cycles);
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - t0;

  QuantStats s;
  s.accuracy = result.final_accuracy();
  s.wall_seconds = wall.count();
  s.wire_mb = sum_device_counter(telemetry, "helios.net.bytes_on_wire_total",
                                 devices) /
              1e6;
  s.frames_sent =
      sum_device_counter(telemetry, "helios.net.frames_sent_total", devices);
  s.frames_lost =
      sum_device_counter(telemetry, "helios.net.frames_lost_total", devices);
  s.codec_raw_mb =
      sum_device_counter(telemetry, "helios.codec.bytes_in_total", devices) /
      1e6;
  s.codec_wire_mb =
      sum_device_counter(telemetry, "helios.codec.bytes_out_total", devices) /
      1e6;
  fleet.set_sampler(nullptr);
  return s;
}

void write_quant_stats(std::ostream& os, const QuantStats& s) {
  os << "{\"accuracy\": " << s.accuracy
     << ", \"wall_seconds\": " << s.wall_seconds
     << ", \"wire_mb\": " << s.wire_mb
     << ", \"frames_sent\": " << s.frames_sent
     << ", \"frames_lost\": " << s.frames_lost
     << ", \"codec_raw_mb\": " << s.codec_raw_mb
     << ", \"codec_wire_mb\": " << s.codec_wire_mb << "}";
}

}  // namespace

int main() {
  const bench::Scale scale = bench::scale_from_env();
  const bench::TaskSpec task = bench::lenet_task(scale);
  const bench::FleetSetup setup{4, 2, false, 7};
  const std::vector<std::string> methods = {"Syn. FL", "Asyn. FL", "AFO",
                                            "Helios"};
  const std::vector<double> loss_rates = {0.0, 0.01, 0.05};

  util::Table table({"method", "channel", "final acc (%)", "wire (MB)",
                     "lost", "drops", "wall (s)"});
  std::ostringstream json;  // buffered; replaced atomically below
  json << "{\n  \"schema\": 2,\n  \"scale\": \"" << scale.name
       << "\",\n  \"host\": " << util::host_json(util::this_host())
       << ",\n  \"cycles\": " << task.cycles << ",\n  \"strategies\": [\n";

  for (std::size_t m = 0; m < methods.size(); ++m) {
    const std::string& method = methods[m];
    // Ideal baseline: frames are encoded and counted but delivery is
    // perfect and timing stays analytic.
    const RunStats ideal = run_once(task, setup, method, net::NetworkOptions{});
    table.add_row({method, "ideal",
                   util::Table::num(ideal.accuracy * 100.0, 2),
                   util::Table::num(ideal.wire_mb, 3), "0", "0",
                   util::Table::num(ideal.wall_seconds, 2)});
    json << "    {\"name\": \"" << method << "\", \"ideal\": ";
    write_stats(json, ideal);
    json << ", \"lossy\": [\n";

    for (std::size_t l = 0; l < loss_rates.size(); ++l) {
      net::NetworkOptions opts;
      opts.mode = net::NetMode::kSimulated;
      opts.channel.loss_prob = loss_rates[l];
      opts.channel.latency_s = 0.005;
      opts.channel.jitter_s = 0.002;
      opts.deadline_factor = 2.0;
      // The default protocol seed's four forked streams happen to draw no
      // loss event in a short run; this one realizes ~p per rate at both
      // quick and default scale, so the retransmit path shows up in the
      // report.
      opts.seed = 97;
      const RunStats lossy = run_once(task, setup, method, opts);
      table.add_row(
          {method, "loss " + util::Table::num(loss_rates[l] * 100.0, 0) + "%",
           util::Table::num(lossy.accuracy * 100.0, 2),
           util::Table::num(lossy.wire_mb, 3),
           util::Table::num(lossy.frames_lost, 0),
           util::Table::num(lossy.drops, 0),
           util::Table::num(lossy.wall_seconds, 2)});
      json << "      {\"loss\": " << loss_rates[l] << ", \"stats\": ";
      write_stats(json, lossy);
      json << ", \"accuracy_delta_vs_ideal\": "
           << (lossy.accuracy - ideal.accuracy) << "}"
           << (l + 1 < loss_rates.size() ? "," : "") << "\n";
    }
    json << "    ]}" << (m + 1 < methods.size() ? "," : "") << "\n";
  }

  // Quantization sweep on the acceptance population: mobile-longtail at
  // C = 0.1. The fp32 column is the per-loss baseline the quantized runs
  // are judged against — run first so the ratios can be computed inline.
  const int kQuantDevices = 40;
  const int kQuantCycles = 40;
  const std::vector<std::string> quant_methods = {"Syn. FL", "Helios"};
  const std::vector<codec::CodecId> codecs = {codec::CodecId::kFp32,
                                              codec::CodecId::kFp16,
                                              codec::CodecId::kInt8PerNeuron};
  util::Table quant_table({"method", "codec", "loss", "final acc (%)",
                           "wire (MB)", "reduction vs fp32",
                           "acc delta vs fp32"});
  json << "  ],\n  \"quantization\": {\"devices\": " << kQuantDevices
       << ", \"cohort_fraction\": 0.1, \"cycles\": " << kQuantCycles
       << ", \"methods\": [\n";
  for (std::size_t m = 0; m < quant_methods.size(); ++m) {
    const std::string& method = quant_methods[m];
    std::vector<QuantStats> fp32_runs;  // per loss rate, codec order fixed
    json << "    {\"name\": \"" << method << "\", \"codecs\": [\n";
    for (std::size_t c = 0; c < codecs.size(); ++c) {
      const codec::CodecId id = codecs[c];
      json << "      {\"name\": \"" << codec::codec_name(id)
           << "\", \"lossy\": [\n";
      for (std::size_t l = 0; l < loss_rates.size(); ++l) {
        const QuantStats s =
            run_quant_once(method, id, loss_rates[l], kQuantDevices,
                           kQuantCycles);
        if (id == codec::CodecId::kFp32) fp32_runs.push_back(s);
        json << "        {\"loss\": " << loss_rates[l] << ", \"stats\": ";
        write_quant_stats(json, s);
        std::string reduction = "--";
        std::string delta = "--";
        if (id != codec::CodecId::kFp32) {
          const QuantStats& base = fp32_runs[l];
          const double r = s.wire_mb > 0.0 ? base.wire_mb / s.wire_mb : 0.0;
          const double d = s.accuracy - base.accuracy;
          json << ", \"wire_reduction_vs_fp32\": " << r
               << ", \"accuracy_delta_vs_fp32\": " << d;
          reduction = util::Table::num(r, 2) + "x";
          delta = util::Table::num(d * 100.0, 2) + "%";
        }
        json << "}" << (l + 1 < loss_rates.size() ? "," : "") << "\n";
        quant_table.add_row(
            {method, codec::codec_name(id),
             util::Table::num(loss_rates[l] * 100.0, 0) + "%",
             util::Table::num(s.accuracy * 100.0, 2),
             util::Table::num(s.wire_mb, 3), reduction, delta});
      }
      json << "      ]}" << (c + 1 < codecs.size() ? "," : "") << "\n";
    }
    json << "    ]}" << (m + 1 < quant_methods.size() ? "," : "") << "\n";
  }
  json << "  ]}";

  const obs::ProcMemory mem = obs::read_proc_memory();
  json << ",\n  \"rss_mb\": " << mem.rss_mb
       << ",\n  \"peak_rss_mb\": " << mem.peak_rss_mb << "\n}\n";
  util::atomic_write_file("BENCH_net.json", json.str());

  util::print_banner(std::cout,
                     "Network simulation: wire bytes, faults and accuracy "
                     "across loss rates (" + task.name + ")");
  table.print(std::cout);
  util::print_banner(std::cout,
                     "Wire codec sweep: mobile-longtail (40 devices, "
                     "C = 0.1), error feedback on");
  quant_table.print(std::cout);
  std::cout << "wrote BENCH_net.json (" << methods.size() << " strategies x "
            << loss_rates.size() << " loss rates + ideal baselines + "
            << quant_methods.size() << "x" << codecs.size()
            << " codec sweep)\n";
  return 0;
}
