#include "obs/dashboard.h"

#include <algorithm>
#include <array>
#include <span>
#include <vector>

#include "obs/metrics.h"  // json_escape
#include "util/stats.h"
#include "util/table.h"

namespace helios::obs {

DeviceStats StragglerDashboard::device(int device_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = devices_.find(device_id);
  return it != devices_.end() ? it->second : DeviceStats{};
}

std::size_t StragglerDashboard::device_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return devices_.size();
}

void TierTotals::add(const event::Merge& e) {
  ++merges;
  frames_folded += static_cast<long long>(e.frames_folded);
  bytes_forwarded += static_cast<long long>(e.bytes_forwarded);
  raw_bytes += static_cast<long long>(e.raw_bytes);
  deadline_misses += e.deadline_misses;
  retransmits += e.retransmits;
  lost_frames += e.lost_frames;
  fold_seconds += e.fold_seconds;
}

void StragglerDashboard::apply(int device, const event::Train& e) {
  update(device, [&](DeviceStats& d) {
    if (d.name.empty()) d.name = std::string(e.profile);
    d.straggler = e.straggler;
    d.volume = e.volume;
    ++d.cycles;
    d.trained_neurons = e.trained_neurons;
    d.neuron_total = e.neuron_total;
    d.compute_seconds += e.train_seconds;
    d.comm_seconds += e.upload_seconds;
    d.upload_mb += e.upload_mb;
    d.last_loss = e.mean_loss;
  });
}

void StragglerDashboard::apply(int device, const event::Agg& e) {
  update(device, [&](DeviceStats& d) {
    d.r_n = e.r_n;
    d.r_n_sum += e.r_n;
    ++d.r_n_count;
    d.alpha_n = e.alpha_share;
  });
}

void StragglerDashboard::apply(int device, const event::Rot& e) {
  update(device, [&](DeviceStats& d) {
    d.forced_neurons += e.forced;
    d.cs_hist = e.cs_hist;
  });
}

void StragglerDashboard::apply(int device, const event::Xfer& e) {
  update(device, [&](DeviceStats& d) { add_transfer(d, e); });
}

void StragglerDashboard::apply(int device, const event::Codec& e) {
  update(device, [&](DeviceStats& d) {
    d.bytes_saved += static_cast<long long>(e.raw_bytes) -
                     static_cast<long long>(e.wire_bytes);
  });
}

void StragglerDashboard::apply(int /*device*/, const event::Merge& e) {
  std::lock_guard<std::mutex> lock(mu_);
  tiers_[std::string(e.tier)].add(e);
}

TierTotals StragglerDashboard::tier(std::string_view tier) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tiers_.find(tier);
  return it != tiers_.end() ? it->second : TierTotals{};
}

void StragglerDashboard::render(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (devices_.size() > summary_threshold_) {
    render_summary(os);
  } else {
    render_devices(os);
  }
}

void StragglerDashboard::render_devices(std::ostream& os) const {
  util::Table table({"device", "role", "volume", "cycles", "r_n", "alpha_n",
                     "forced", "C_s 0/1/2/3+", "compute (s)", "comm (s)",
                     "upload (MB)", "wire (MB)", "saved (MB)", "retx",
                     "drops"});
  for (const auto& [id, d] : devices_) {
    const std::string cs = std::to_string(d.cs_hist[0]) + "/" +
                           std::to_string(d.cs_hist[1]) + "/" +
                           std::to_string(d.cs_hist[2]) + "/" +
                           std::to_string(d.cs_hist[3]);
    std::string role = d.straggler ? "straggler" : "capable";
    if (d.dead) role += " (dead)";
    table.add_row({d.name.empty() ? std::to_string(id) : d.name, role,
                   util::Table::num(d.volume, 2), std::to_string(d.cycles),
                   util::Table::num(d.r_n, 3), util::Table::num(d.alpha_n, 3),
                   std::to_string(d.forced_neurons), cs,
                   util::Table::num(d.compute_seconds, 3),
                   util::Table::num(d.comm_seconds, 3),
                   util::Table::num(d.upload_mb, 2),
                   util::Table::num(static_cast<double>(d.wire_bytes) / 1e6, 2),
                   util::Table::num(static_cast<double>(d.bytes_saved) / 1e6,
                                    2),
                   std::to_string(d.retransmits), std::to_string(d.drops)});
  }
  table.print(os);
}

namespace {

/// Everything the fleet summary reports, computed once and shared between
/// the console rendering and the JSON export so the two never drift.
struct FleetSummary {
  std::vector<double> r_n;
  std::vector<double> alpha_n;
  std::vector<double> wire_mb;
  std::vector<double> compute_s;
  std::vector<double> comm_s;
  std::size_t devices = 0;
  std::size_t stragglers = 0;
  std::size_t dead = 0;
  long long cycles = 0;
  long long forced = 0;
  long long drops = 0;
  long long retransmits = 0;
  long long bytes_saved = 0;  // fleet total the wire codec avoided
};

FleetSummary collect_summary(const std::map<int, DeviceStats>& devices) {
  FleetSummary s;
  s.devices = devices.size();
  for (const auto& [id, d] : devices) {
    s.r_n.push_back(d.mean_r_n());
    s.alpha_n.push_back(d.alpha_n);
    s.wire_mb.push_back(static_cast<double>(d.wire_bytes) / 1e6);
    s.compute_s.push_back(d.compute_seconds);
    s.comm_s.push_back(d.comm_seconds);
    s.stragglers += d.straggler ? 1 : 0;
    s.dead += d.dead ? 1 : 0;
    s.cycles += d.cycles;
    s.forced += d.forced_neurons;
    s.drops += d.drops;
    s.retransmits += d.retransmits;
    s.bytes_saved += d.bytes_saved;
  }
  return s;
}

/// The summary's metric rows, in render order.
struct SummaryRow {
  const char* label;      // console label
  const char* json_key;   // JSON object key
  std::span<const double> values;
  int precision;
};

std::array<SummaryRow, 5> summary_rows(const FleetSummary& s) {
  return {SummaryRow{"r_n (run mean)", "r_n", s.r_n, 3},
          SummaryRow{"alpha_n", "alpha_n", s.alpha_n, 4},
          SummaryRow{"wire (MB)", "wire_mb", s.wire_mb, 2},
          SummaryRow{"compute (s)", "compute_seconds", s.compute_s, 3},
          SummaryRow{"comm (s)", "comm_seconds", s.comm_s, 3}};
}

}  // namespace

void StragglerDashboard::render_summary(std::ostream& os) const {
  const FleetSummary s = collect_summary(devices_);

  os << "fleet: " << s.devices << " devices (" << s.stragglers
     << " stragglers, " << s.dead << " dead), " << s.cycles << " cycles, "
     << s.forced << " forced neurons, " << s.retransmits << " retx, "
     << s.drops << " drops";
  if (s.bytes_saved != 0) {
    os << ", codec saved "
       << util::Table::num(static_cast<double>(s.bytes_saved) / 1e6, 2)
       << " MB";
  }
  os << "\n";

  util::Table table({"metric", "p50", "p90", "p99", "mean", "max"});
  for (const SummaryRow& r : summary_rows(s)) {
    if (r.values.empty()) continue;
    table.add_row(
        {r.label, util::Table::num(util::percentile(r.values, 50.0), r.precision),
         util::Table::num(util::percentile(r.values, 90.0), r.precision),
         util::Table::num(util::percentile(r.values, 99.0), r.precision),
         util::Table::num(util::mean(r.values), r.precision),
         util::Table::num(
             *std::max_element(r.values.begin(), r.values.end()),
             r.precision)});
  }
  table.print(os);
  render_tier_table(os, tiers_);
}

void render_tier_table(std::ostream& os, const TierMap& tiers) {
  if (tiers.empty()) return;
  util::Table table({"tier", "merges", "frames folded", "fwd (MB)",
                     "raw (MB)", "tier misses", "retx", "lost", "fold (s)"});
  for (const auto& [name, t] : tiers) {
    table.add_row(
        {name, std::to_string(t.merges), std::to_string(t.frames_folded),
         util::Table::num(static_cast<double>(t.bytes_forwarded) / 1e6, 2),
         util::Table::num(static_cast<double>(t.raw_bytes) / 1e6, 2),
         std::to_string(t.deadline_misses), std::to_string(t.retransmits),
         std::to_string(t.lost_frames), util::Table::num(t.fold_seconds, 3)});
  }
  table.print(os);
}

void StragglerDashboard::write_summary_json(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  const FleetSummary s = collect_summary(devices_);
  os << "{\n  \"devices\": " << s.devices
     << ",\n  \"stragglers\": " << s.stragglers << ",\n  \"dead\": " << s.dead
     << ",\n  \"cycles\": " << s.cycles
     << ",\n  \"forced_neurons\": " << s.forced
     << ",\n  \"retransmits\": " << s.retransmits
     << ",\n  \"drops\": " << s.drops
     << ",\n  \"bytes_saved\": " << s.bytes_saved << ",\n  \"metrics\": {";
  bool first = true;
  for (const SummaryRow& r : summary_rows(s)) {
    if (r.values.empty()) continue;
    if (!first) os << ',';
    first = false;
    os << "\n    \"" << r.json_key
       << "\": {\"p50\": " << util::percentile(r.values, 50.0)
       << ", \"p90\": " << util::percentile(r.values, 90.0)
       << ", \"p99\": " << util::percentile(r.values, 99.0)
       << ", \"mean\": " << util::mean(r.values) << ", \"max\": "
       << *std::max_element(r.values.begin(), r.values.end()) << '}';
  }
  os << "\n  }";
  if (!tiers_.empty()) {
    os << ",\n  \"tiers\": {";
    bool first_tier = true;
    for (const auto& [name, t] : tiers_) {
      if (!first_tier) os << ',';
      first_tier = false;
      os << "\n    \"";
      json_escape(os, name);
      os << "\": {\"merges\": " << t.merges
         << ", \"frames_folded\": " << t.frames_folded
         << ", \"bytes_forwarded\": " << t.bytes_forwarded
         << ", \"deadline_misses\": " << t.deadline_misses
         << ", \"retransmits\": " << t.retransmits
         << ", \"lost_frames\": " << t.lost_frames
         << ", \"fold_seconds\": " << t.fold_seconds << '}';
    }
    os << "\n  }";
  }
  os << "\n}\n";
}

void StragglerDashboard::write_json(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  os << "[\n";
  bool first = true;
  for (const auto& [id, d] : devices_) {
    if (!first) os << ",\n";
    first = false;
    os << "  {\"device_id\":" << id << ",\"name\":\"";
    json_escape(os, d.name);
    os << "\",\"straggler\":" << (d.straggler ? "true" : "false")
       << ",\"volume\":" << d.volume << ",\"cycles\":" << d.cycles
       << ",\"trained_neurons\":" << d.trained_neurons
       << ",\"neuron_total\":" << d.neuron_total << ",\"r_n\":" << d.r_n
       << ",\"mean_r_n\":" << d.mean_r_n() << ",\"alpha_n\":" << d.alpha_n
       << ",\"forced_neurons\":" << d.forced_neurons
       << ",\"cs_hist\":[" << d.cs_hist[0] << ',' << d.cs_hist[1] << ','
       << d.cs_hist[2] << ',' << d.cs_hist[3] << ']'
       << ",\"compute_seconds\":" << d.compute_seconds
       << ",\"comm_seconds\":" << d.comm_seconds
       << ",\"upload_mb\":" << d.upload_mb
       << ",\"wire_bytes\":" << d.wire_bytes
       << ",\"bytes_saved\":" << d.bytes_saved
       << ",\"frames_sent\":" << d.frames_sent
       << ",\"frames_lost\":" << d.frames_lost
       << ",\"retransmits\":" << d.retransmits
       << ",\"drops\":" << d.drops
       << ",\"dead\":" << (d.dead ? "true" : "false")
       << ",\"last_loss\":" << d.last_loss << '}';
  }
  os << "\n]\n";
}

}  // namespace helios::obs
