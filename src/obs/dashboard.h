// Per-device straggler dashboard (paper Secs. IV-VI as *observed*, not as
// configured): for every device the trained-neuron fraction r_n it actually
// uploaded, the aggregation weight share alpha_n the server actually used,
// rotation-regulation pressure (forced neuron count, skipped-cycle C_s
// distribution), and the virtual-time split between compute and
// communication. Rendered as a util::Table for the console and as JSON next
// to the CSV traces.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>

#include "obs/event.h"

namespace helios::obs {

/// Accumulated per-tier aggregator-tree statistics (hierarchical
/// aggregation runs only; empty otherwise). Keyed by tier name —
/// "edge" / "regional" / "root".
struct TierTotals {
  long long merges = 0;           // rounds this tier reported
  long long frames_folded = 0;
  long long bytes_forwarded = 0;
  /// f64-equivalent cost of the forwarded merge payloads — what the uplink
  /// would have carried without a quantized merge codec.
  long long raw_bytes = 0;
  long long deadline_misses = 0;
  long long retransmits = 0;
  long long lost_frames = 0;
  double fold_seconds = 0.0;      // wall-clock folding/merging time

  /// Folds one tier's round rollup into the totals.
  void add(const event::Merge& e);
};

/// Tier totals by name — conveniently ordered edge < regional < root.
using TierMap = std::map<std::string, TierTotals, std::less<>>;

/// The per-tier table the dashboard's fleet summary and the journal
/// summary both print (nothing when `tiers` is empty).
void render_tier_table(std::ostream& os, const TierMap& tiers);

/// Accumulated per-device run statistics. All times are virtual seconds.
struct DeviceStats {
  int device_id = -1;
  std::string name;          // resource profile name, when known
  bool straggler = false;
  double volume = 1.0;       // last expected model volume P

  // Client-side, accumulated by run_cycle.
  int cycles = 0;
  int trained_neurons = 0;   // last cycle
  int neuron_total = 0;
  double compute_seconds = 0.0;
  double comm_seconds = 0.0;
  double upload_mb = 0.0;
  double last_loss = 0.0;

  // Server-side, recorded by aggregation (Eq. 10).
  double r_n = 1.0;          // last trained fraction used by aggregate()
  double r_n_sum = 0.0;      // for the run mean
  int r_n_count = 0;
  double alpha_n = 0.0;      // last normalized weight share (sums to 1)

  // Rotation regulation: cumulative forced pull-backs and the latest
  // skipped-cycle distribution (neurons with C_s = 0, 1, 2, >= 3).
  long long forced_neurons = 0;
  std::array<int, 4> cs_hist{0, 0, 0, 0};

  // Network simulation, accumulated per transfer (zero unless a
  // NetworkSession is attached).
  long long wire_bytes = 0;     // bytes that actually transited the wire
  long long bytes_saved = 0;    // fp32-dense bytes the wire codec avoided
  int frames_sent = 0;          // transmissions (retransmits included)
  int frames_lost = 0;
  int retransmits = 0;
  int drops = 0;                // transfers the server never accepted
  bool dead = false;            // device's channel died permanently

  double mean_r_n() const {
    return r_n_count > 0 ? r_n_sum / r_n_count : r_n;
  }
};

/// Folds one transfer into a device's network totals: shared by the
/// dashboard's DeviceStats and the journal summary's DeviceJournal.
template <class Totals>
void add_transfer(Totals& d, const event::Xfer& e) {
  d.wire_bytes += static_cast<long long>(e.bytes_on_wire);
  d.frames_sent += e.transmissions;
  d.frames_lost += e.lost_frames;
  d.retransmits += e.transmissions > 1 ? e.transmissions - 1 : 0;
  if (!e.delivered) ++d.drops;
  if (e.died) d.dead = true;
}

/// Thread-safe collection of DeviceStats keyed by device id.
///
/// Small fleets render one row per device; populations larger than the
/// summary threshold render a fleet summary instead (p50/p90/p99 across
/// devices of r_n, alpha_n, wire bytes and time splits, plus straggler
/// and churn counts) so a 1024-device run stays readable.
class StragglerDashboard {
 public:
  /// Above this many devices render() switches to the fleet summary.
  static constexpr std::size_t kDefaultSummaryThreshold = 32;

  /// Mutates under the dashboard lock; callers use the returned reference
  /// only within the update lambda passed to `update`.
  template <typename Fn>
  void update(int device_id, Fn&& fn) {
    std::lock_guard<std::mutex> lock(mu_);
    DeviceStats& d = devices_[device_id];
    d.device_id = device_id;
    fn(d);
  }

  /// The dashboard's reducer: folds one event (obs/event.h) into the
  /// device's (or, for a merge, the tier's) totals. TelemetrySink calls it
  /// live and replay_dashboard calls it on decoded journal lines, so the two
  /// dashboards agree by construction. Events the dashboard does not track
  /// are no-ops.
  void apply(int device, const event::Train& e);
  void apply(int device, const event::Agg& e);
  void apply(int device, const event::Rot& e);
  void apply(int device, const event::Xfer& e);
  void apply(int device, const event::Codec& e);
  void apply(int device, const event::Merge& e);
  template <class Event>
  void apply(int /*device*/, const Event& /*e*/) {}

  /// Copy of a device's stats (zero-valued default if never seen).
  DeviceStats device(int device_id) const;
  std::size_t device_count() const;

  /// Copy of a tier's totals (zero-valued default if never seen).
  TierTotals tier(std::string_view tier) const;

  /// Console rendering via util::Table: per-device rows up to the summary
  /// threshold, percentile fleet summary beyond it.
  void render(std::ostream& os) const;
  /// Machine-readable dump, one object per device.
  void write_json(std::ostream& os) const;
  /// Machine-readable fleet percentile summary: the same p50/p90/p99/mean/max
  /// rows render_summary prints, plus the header counts, as one JSON object.
  void write_summary_json(std::ostream& os) const;

  /// Override the per-device vs fleet-summary cutover (device count).
  void set_summary_threshold(std::size_t n) { summary_threshold_ = n; }
  std::size_t summary_threshold() const { return summary_threshold_; }

 private:
  void render_devices(std::ostream& os) const;  // callers hold mu_
  void render_summary(std::ostream& os) const;  // callers hold mu_

  mutable std::mutex mu_;
  std::map<int, DeviceStats> devices_;  // ordered by device id
  TierMap tiers_;
  std::size_t summary_threshold_ = kDefaultSummaryThreshold;
};

}  // namespace helios::obs
