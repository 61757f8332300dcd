// Population-scale benchmark: how does throughput and memory behave as the
// fleet grows from the paper's testbed size to a sampled population?
//
// Two sections, both written machine-readably to BENCH_scale.json
// (schema 1) so CI can track scaling regressions via bench_compare:
//
//  * flat `points`: fleet sizes 8 / 64 / 256 / 1024 (mobile-longtail
//    preset, cohort sampling at C = max(0.05, 4/N), 5 rounds), Helios and
//    Syn. FL each reporting rounds per wall-clock second, the peak
//    live-replica footprint (the sum of materialized client models — the
//    memory the lazy-client design is bounding), and process peak RSS.
//
//  * `hierarchy`: Helios through a depth-3 aggregator tree (64 edges,
//    fanout 8) on lazy-data populations of 8k up to 256k devices at
//    C = max(0.01, 8/N) — the O(100k)-device regime the streaming tree
//    exists for. Each row reports rounds/s, per-tier fold time, the merge
//    frame size, and the per-round resident set, whose growth across
//    rounds must stay flat: root memory is bounded by the accumulator
//    geometry, not the population.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string_view>
#include <vector>

#include "bench_common.h"
#include "core/straggler_id.h"
#include "core/target.h"
#include "fl/checkpoint.h"
#include "fl/hierarchy.h"
#include "obs/procstat.h"
#include "sim/population.h"
#include "sim/sampler.h"
#include "util/atomic_file.h"
#include "util/host.h"
#include "util/table.h"

namespace {

using namespace helios;

struct ScaleStats {
  double accuracy = 0.0;
  double setup_seconds = 0.0;     // fleet build + straggler id + sampler
  double wall_seconds = 0.0;      // the strategy run itself
  double rounds_per_second = 0.0;
  double peak_replica_mb = 0.0;   // max over rounds of live replica bytes
  double final_replica_mb = 0.0;  // after the last round's hibernation
  double peak_rss_mb = 0.0;       // process-wide (monotone across runs)
  std::size_t cohort_rounds = 0;  // sampled client-rounds
  double checkpoint_save_seconds = 0.0;  // full snapshot + atomic write
  double checkpoint_load_seconds = 0.0;  // read + validate + restore
  double checkpoint_file_mb = 0.0;       // framed file size on disk
};

ScaleStats run_once(const std::string& method, int devices, int cycles) {
  const auto setup0 = std::chrono::steady_clock::now();
  const sim::PopulationGenerator pop(sim::mobile_longtail(devices));
  fl::Fleet fleet = sim::build_fleet(pop);
  // Flag the slowest quarter (rank-based suits a long tail) and assign
  // profiled volumes — all analytic, no replica materializes for this.
  const core::StragglerReport report = core::StragglerIdentifier::time_based(
      fleet, std::max(1, devices / 4));
  core::StragglerIdentifier::apply(fleet, report);
  core::TargetDeterminer::assign_profiled(fleet, report);

  sim::CohortSampler::Options sopts;
  sopts.fraction = std::max(0.05, 4.0 / devices);
  sopts.seed = 29;
  sim::CohortSampler sampler(sopts);
  sampler.attach(&fleet);
  fleet.set_sampler(&sampler);
  const std::chrono::duration<double> setup =
      std::chrono::steady_clock::now() - setup0;

  auto strategy = bench::make_strategy(method);
  ScaleStats s;
  // The hook fires at each cycle start, after the previous round's cohort
  // hibernated but while its replicas were still live a moment ago — the
  // peak is whatever the largest cohort materialized.
  std::size_t peak_bytes = 0;
  std::size_t sampled = 0;
  if (auto* helios = dynamic_cast<core::HeliosStrategy*>(strategy.get())) {
    helios->set_cycle_hook([&](fl::Fleet& f, int) {
      peak_bytes = std::max(peak_bytes, f.live_replica_bytes());
    });
  }
  const auto t0 = std::chrono::steady_clock::now();
  const fl::RunResult result = strategy->run(fleet, cycles);
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - t0;

  for (auto& c : fleet.clients()) sampled += c->materialized() ? 1 : 0;
  peak_bytes = std::max(peak_bytes, fleet.live_replica_bytes());

  // Checkpoint cost at this fleet size: a full save (snapshot + atomic
  // write) and a full resume (read + validate + restore) of the state the
  // run just produced. Gated by bench_compare via the *seconds* keys.
  {
    const std::string ckpt = "BENCH_scale_ckpt.tmp";
    const auto s0 = std::chrono::steady_clock::now();
    fleet.save_checkpoint(ckpt, strategy.get(), result);
    s.checkpoint_save_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - s0)
            .count();
    std::ifstream in(ckpt, std::ios::binary | std::ios::ate);
    if (in) s.checkpoint_file_mb = static_cast<double>(in.tellg()) / 1e6;
    in.close();
    const auto l0 = std::chrono::steady_clock::now();
    const fl::RunResult restored = fleet.resume(ckpt, strategy.get());
    s.checkpoint_load_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - l0)
            .count();
    if (restored.rounds.size() != result.rounds.size()) {
      std::cerr << "WARNING: checkpoint round-trip dropped rounds\n";
    }
    std::remove(ckpt.c_str());
  }
  s.accuracy = result.final_accuracy();
  s.setup_seconds = setup.count();
  s.wall_seconds = wall.count();
  s.rounds_per_second =
      wall.count() > 0.0 ? static_cast<double>(cycles) / wall.count() : 0.0;
  s.peak_replica_mb = static_cast<double>(peak_bytes) / 1e6;
  s.final_replica_mb =
      static_cast<double>(fleet.live_replica_bytes()) / 1e6;
  s.peak_rss_mb = obs::read_proc_memory().peak_rss_mb;
  s.cohort_rounds = sampled;
  fleet.set_sampler(nullptr);
  return s;
}

struct TreeScaleStats {
  double accuracy = 0.0;
  double setup_seconds = 0.0;  // population + fleet + straggler id + tree
  double wall_seconds = 0.0;
  double rounds_per_second = 0.0;
  double peak_replica_mb = 0.0;
  double peak_rss_mb = 0.0;
  double merge_frame_mb = 0.0;      // one tier crossing, fixed by geometry
  std::vector<double> round_rss_mb; // resident set after each round
  double rss_growth_mb = 0.0;       // last - first round (flatness claim)
  double edge_fold_seconds = 0.0;
  double regional_fold_seconds = 0.0;
  double root_fold_seconds = 0.0;
  std::uint64_t device_frames = 0;  // updates folded at the edge tier
  std::size_t cohort_devices = 0;   // materialized after the last round
};

// Helios through a depth-3 edge -> regional -> root tree on a lazy-data
// long-tail population. No simulated network: this measures the
// aggregation path itself (fold / collapse / finalize), which is where
// tree scaling shows up.
TreeScaleStats run_tree_once(int devices, int cycles, int edge_nodes,
                             int fanout) {
  const auto setup0 = std::chrono::steady_clock::now();
  sim::PopulationConfig cfg = sim::mobile_longtail(devices);
  cfg.lazy_data = true;  // sample memory follows the cohort, not the fleet
  const sim::PopulationGenerator pop(cfg);
  fl::Fleet fleet = sim::build_fleet(pop);
  const core::StragglerReport report = core::StragglerIdentifier::time_based(
      fleet, std::max(1, devices / 4));
  core::StragglerIdentifier::apply(fleet, report);
  core::TargetDeterminer::assign_profiled(fleet, report);

  sim::CohortSampler::Options sopts;
  sopts.fraction = std::max(0.01, 8.0 / devices);
  sopts.seed = 29;
  sim::CohortSampler sampler(sopts);
  sampler.attach(&fleet);
  fleet.set_sampler(&sampler);

  agg::TreeTopology topo;
  topo.edge_nodes = edge_nodes;
  topo.fanout = fanout;
  fl::HierarchySession hier(fleet, topo);
  const std::chrono::duration<double> setup =
      std::chrono::steady_clock::now() - setup0;

  auto strategy = bench::make_strategy("Helios");
  TreeScaleStats s;
  s.merge_frame_mb =
      static_cast<double>(hier.tree().merge_frame_bytes()) / 1e6;
  // Per-tier rollups survive until the next round's begin_round, so the
  // cycle hook (firing at each round start) harvests the previous round;
  // one more harvest after the run collects the final round.
  auto harvest = [&] {
    for (const agg::TierStats& t : hier.tree().tier_stats()) {
      const std::string_view tier = t.tier;
      if (tier == "edge") {
        s.edge_fold_seconds += t.fold_seconds;
        s.device_frames += t.frames_folded;
      } else if (tier == "regional") {
        s.regional_fold_seconds += t.fold_seconds;
      } else {
        s.root_fold_seconds += t.fold_seconds;
      }
    }
  };
  std::size_t peak_bytes = 0;
  auto* helios = dynamic_cast<core::HeliosStrategy*>(strategy.get());
  helios->set_cycle_hook([&](fl::Fleet& f, int cycle) {
    peak_bytes = std::max(peak_bytes, f.live_replica_bytes());
    if (cycle > 0) {
      s.round_rss_mb.push_back(obs::read_proc_memory().rss_mb);
      harvest();
    }
  });
  const auto t0 = std::chrono::steady_clock::now();
  const fl::RunResult result = strategy->run(fleet, cycles);
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - t0;
  harvest();
  s.round_rss_mb.push_back(obs::read_proc_memory().rss_mb);
  peak_bytes = std::max(peak_bytes, fleet.live_replica_bytes());
  for (auto& c : fleet.clients()) {
    s.cohort_devices += c->materialized() ? 1 : 0;
  }
  s.accuracy = result.final_accuracy();
  s.setup_seconds = setup.count();
  s.wall_seconds = wall.count();
  s.rounds_per_second =
      wall.count() > 0.0 ? static_cast<double>(cycles) / wall.count() : 0.0;
  s.peak_replica_mb = static_cast<double>(peak_bytes) / 1e6;
  s.peak_rss_mb = obs::read_proc_memory().peak_rss_mb;
  s.rss_growth_mb = s.round_rss_mb.back() - s.round_rss_mb.front();
  fleet.set_sampler(nullptr);
  return s;
}

}  // namespace

int main() {
  const bench::Scale scale = bench::scale_from_env();
  // Quick scale stops at 256 devices; default and full run the 1024-device
  // point the acceptance run tracks (5 Helios rounds in well under a
  // minute).
  std::vector<int> sizes = {8, 64, 256};
  if (scale.name != "quick") sizes.push_back(1024);
  const int cycles = 5;
  const std::vector<std::string> methods = {"Helios", "Syn. FL"};

  util::Table table({"devices", "method", "rounds/s", "wall (s)",
                     "peak replicas (MB)", "full fleet (MB)", "peak RSS (MB)",
                     "final acc (%)"});
  std::ostringstream json;  // buffered; replaced atomically below
  json << "{\n  \"schema\": 1,\n  \"scale\": \"" << scale.name
       << "\",\n  \"host\": " << util::host_json(util::this_host())
       << ",\n  \"cycles\": " << cycles << ",\n  \"points\": [\n";

  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const int devices = sizes[i];
    // What the whole population would occupy if every client held a live
    // replica — the bound the lazy-materialization design avoids.
    const sim::PopulationGenerator pop(sim::mobile_longtail(devices));
    nn::Model probe = pop.config().model.build(1);
    const double full_fleet_mb =
        static_cast<double>(probe.param_count() * 2 + probe.buffer_count()) *
        sizeof(float) * devices / 1e6;

    json << "    {\"devices\": " << devices
         << ", \"full_fleet_mb\": " << full_fleet_mb << ", \"methods\": [\n";
    for (std::size_t m = 0; m < methods.size(); ++m) {
      const ScaleStats s = run_once(methods[m], devices, cycles);
      table.add_row({std::to_string(devices), methods[m],
                     util::Table::num(s.rounds_per_second, 2),
                     util::Table::num(s.wall_seconds, 2),
                     util::Table::num(s.peak_replica_mb, 2),
                     util::Table::num(full_fleet_mb, 2),
                     util::Table::num(s.peak_rss_mb, 1),
                     util::Table::num(s.accuracy * 100.0, 2)});
      json << "      {\"name\": \"" << methods[m]
           << "\", \"rounds_per_second\": " << s.rounds_per_second
           << ", \"setup_seconds\": " << s.setup_seconds
           << ", \"wall_seconds\": " << s.wall_seconds
           << ", \"peak_replica_mb\": " << s.peak_replica_mb
           << ", \"final_replica_mb\": " << s.final_replica_mb
           << ", \"peak_rss_mb\": " << s.peak_rss_mb
           << ", \"materialized_clients\": " << s.cohort_rounds
           << ", \"checkpoint_save_seconds\": " << s.checkpoint_save_seconds
           << ", \"checkpoint_load_seconds\": " << s.checkpoint_load_seconds
           << ", \"checkpoint_file_mb\": " << s.checkpoint_file_mb
           << ", \"accuracy\": " << s.accuracy << "}"
           << (m + 1 < methods.size() ? "," : "") << "\n";
    }
    json << "    ]}" << (i + 1 < sizes.size() ? "," : "") << "\n";
  }

  // Hierarchical section: the O(100k)-device regime. The 100k point runs at
  // every scale — it is the acceptance row showing flat per-round RSS; the
  // 64k / 256k points fill the scaling curve at default / full.
  std::vector<int> tree_sizes = {8192};
  if (scale.name != "quick") tree_sizes.push_back(65536);
  tree_sizes.push_back(100000);
  if (scale.name == "full") tree_sizes.push_back(262144);
  const int tree_cycles = 3;
  const int kEdges = 64;
  const int kFanout = 8;

  util::Table tree_table({"devices", "rounds/s", "wall (s)", "cohort",
                          "peak replicas (MB)", "peak RSS (MB)",
                          "fold e/r/root (ms)", "RSS drift (MB)"});
  json << "  ],\n  \"hierarchy\": [\n";
  for (std::size_t i = 0; i < tree_sizes.size(); ++i) {
    const int devices = tree_sizes[i];
    const TreeScaleStats s =
        run_tree_once(devices, tree_cycles, kEdges, kFanout);
    std::ostringstream fold;
    fold << util::Table::num(s.edge_fold_seconds * 1e3, 1) << " / "
         << util::Table::num(s.regional_fold_seconds * 1e3, 1) << " / "
         << util::Table::num(s.root_fold_seconds * 1e3, 1);
    tree_table.add_row({std::to_string(devices),
                        util::Table::num(s.rounds_per_second, 2),
                        util::Table::num(s.wall_seconds, 2),
                        std::to_string(s.cohort_devices),
                        util::Table::num(s.peak_replica_mb, 2),
                        util::Table::num(s.peak_rss_mb, 1), fold.str(),
                        util::Table::num(s.rss_growth_mb, 2)});
    json << "    {\"devices\": " << devices << ", \"edge_nodes\": " << kEdges
         << ", \"fanout\": " << kFanout << ", \"rounds\": " << tree_cycles
         << ", \"rounds_per_second\": " << s.rounds_per_second
         << ", \"setup_seconds\": " << s.setup_seconds
         << ", \"wall_seconds\": " << s.wall_seconds
         << ", \"peak_replica_mb\": " << s.peak_replica_mb
         << ", \"peak_rss_mb\": " << s.peak_rss_mb
         << ", \"merge_frame_mb\": " << s.merge_frame_mb
         << ", \"device_frames\": " << s.device_frames
         << ", \"cohort_devices\": " << s.cohort_devices
         << ", \"edge_fold_seconds\": " << s.edge_fold_seconds
         << ", \"regional_fold_seconds\": " << s.regional_fold_seconds
         << ", \"root_fold_seconds\": " << s.root_fold_seconds
         << ", \"round_rss_mb\": [";
    for (std::size_t r = 0; r < s.round_rss_mb.size(); ++r) {
      json << (r ? ", " : "") << s.round_rss_mb[r];
    }
    json << "], \"rss_growth_mb\": " << s.rss_growth_mb
         << ", \"accuracy\": " << s.accuracy << "}"
         << (i + 1 < tree_sizes.size() ? "," : "") << "\n";
  }

  const obs::ProcMemory mem = obs::read_proc_memory();
  json << "  ],\n  \"rss_mb\": " << mem.rss_mb
       << ",\n  \"peak_rss_mb\": " << mem.peak_rss_mb << "\n}\n";
  util::atomic_write_file("BENCH_scale.json", json.str());

  util::print_banner(std::cout,
                     "Population scale: rounds/s and memory, Helios vs "
                     "Syn. FL (mobile-longtail, C = max(0.05, 4/N))");
  table.print(std::cout);
  util::print_banner(std::cout,
                     "Hierarchical aggregation: Helios through a depth-3 "
                     "tree (64 edges x fanout 8, lazy data, C = max(0.01, "
                     "8/N))");
  tree_table.print(std::cout);
  std::cout << "wrote BENCH_scale.json (" << sizes.size()
            << " fleet sizes x " << methods.size() << " strategies + "
            << tree_sizes.size() << " tree rows)\n";
  return 0;
}
