// TelemetrySink — the one handle a run needs for observability.
//
// Bundles the four pillars:
//   * MetricsRegistry   — counters / gauges / histograms, exported as JSON
//                         and Prometheus text,
//   * TraceWriter       — Chrome trace_event JSONL (chrome://tracing,
//                         Perfetto), wall-clock spans + a virtual-time
//                         device Gantt,
//   * StragglerDashboard — the per-device r_n / alpha_n / rotation / time
//                         split table,
//   * RunJournal        — the flight recorder: an append-only JSONL event
//                         stream of every round's lifecycle (opt-in via
//                         TelemetryConfig::journal; see obs/journal.h and
//                         the `helios-journal` CLI).
//
// Opt-in is one line: construct a sink and hand it to the fleet —
//
//   obs::TelemetrySink telemetry(obs::TelemetryConfig{.artifact_prefix =
//                                                     "helios_run"});
//   fleet.set_telemetry(&telemetry);
//   ...
//   telemetry.flush();   // writes <prefix>.trace.json/.metrics.json/
//                        // .metrics.prom/.dashboard.json
//
// Fleet::set_telemetry installs the sink globally so the HELIOS_TRACE_SPAN
// macros in the nn kernels and strategies see it. With no sink installed,
// every instrumentation point reduces to a relaxed atomic load and a branch.
#pragma once

#include <atomic>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>

#include "obs/dashboard.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace helios::obs {

struct TelemetryConfig {
  /// Emit trace events (spans, instants, virtual-time Gantt).
  bool tracing = true;
  /// Record the run journal (flight recorder, obs/journal.h). With an
  /// artifact prefix it lands in <prefix>.journal.jsonl; without one it
  /// accumulates in memory (see journal_text()). Off by default: every
  /// record call then reduces to a null-pointer branch.
  bool journal = false;
  /// When non-empty, artifacts land in <prefix>.trace.json,
  /// <prefix>.metrics.json, <prefix>.metrics.prom, <prefix>.dashboard.json,
  /// <prefix>.summary.json and (with journal) <prefix>.journal.jsonl.
  /// When empty, the trace accumulates in memory (see trace_text()).
  std::string artifact_prefix;
  /// Checkpoint/resume continuation of an existing <prefix>.journal.jsonl:
  /// the file is truncated to `journal_resume_offset` bytes (discarding any
  /// partial tail from the crashed process), reopened in append mode, and
  /// the journal continues counting from `journal_resume_events` with no new
  /// run_start line — so the resumed file reads as ONE uninterrupted run.
  /// Both values come from the checkpoint (fl::peek_checkpoint).
  bool journal_resume = false;
  std::uint64_t journal_resume_offset = 0;
  std::uint64_t journal_resume_events = 0;
};

class TelemetrySink {
 public:
  TelemetrySink() : TelemetrySink(TelemetryConfig{}) {}
  explicit TelemetrySink(TelemetryConfig config);
  ~TelemetrySink();

  TelemetrySink(const TelemetrySink&) = delete;
  TelemetrySink& operator=(const TelemetrySink&) = delete;

  MetricsRegistry& metrics() { return metrics_; }
  StragglerDashboard& dashboard() { return dashboard_; }
  TraceWriter* tracer() { return tracer_.get(); }
  /// The run journal (nullptr when TelemetryConfig::journal is off).
  RunJournal* journal() { return journal_.get(); }

  /// Makes this sink the process-global one: HELIOS_TRACE_SPAN targets its
  /// tracer and util::log lines gain cycle/device context. Fleet calls this
  /// from set_telemetry; idempotent.
  void install();
  /// Clears the global hooks if they point at this sink.
  void uninstall();

  /// Simulation time, attached to trace events and the run gauges. The
  /// strategies set it as their cycle loop advances the fleet clock.
  void set_virtual_time(double seconds);
  double virtual_time() const {
    return virtual_time_.load(std::memory_order_relaxed);
  }

  /// Log-context fields (shown on every util::log line while installed).
  void set_cycle(int cycle) {
    cycle_.store(cycle, std::memory_order_relaxed);
  }
  void set_device(int device) {
    device_.store(device, std::memory_order_relaxed);
  }

  // ---- Recorders called from the instrumented layers ----

  /// Client::run_cycle completion: updates the dashboard's client-side
  /// columns, the per-device metrics, and draws the cycle on the
  /// virtual-time Gantt track.
  void record_client_cycle(int device, std::string_view profile_name,
                           bool straggler, double volume, int trained_neurons,
                           int neuron_total, double train_seconds,
                           double upload_seconds, double upload_mb,
                           double mean_loss);

  /// Server::aggregate per-update weights: r_n is the trained fraction of
  /// Eq. 10, alpha_share the normalized weight actually applied (shares sum
  /// to 1 across a cycle's participants).
  void record_aggregation_weight(int device, double r_n, double alpha_share);

  /// Rotation regulation snapshot: how many neurons were force-included
  /// this cycle and the current skipped-cycle distribution
  /// (C_s = 0 / 1 / 2 / >= 3).
  void record_rotation(int device, int forced_count,
                       const std::array<int, 4>& cs_hist);

  /// One strategy cycle completed (accuracy evaluated).
  void record_cycle_result(std::string_view strategy, int cycle,
                           double virtual_time, double accuracy,
                           double mean_loss, double upload_mb);

  /// One device's upload transfer across the simulated network (attempts
  /// collapsed): actual bytes on the wire, transmissions incl. retransmits,
  /// whether the server accepted the frame, whether the round deadline was
  /// missed, and whether the channel died.
  void record_device_transfer(int device, std::size_t bytes_on_wire,
                              int transmissions, int lost_frames,
                              bool delivered, bool deadline_missed, bool died,
                              double comm_seconds);

  /// One synchronous round's network totals.
  void record_network_round(std::size_t bytes_on_wire, int participants,
                            int delivered, int lost_frames, int retransmits,
                            int deadline_misses, int deaths);

  /// One quantized upload encode (src/codec): the bytes a v1 fp32-dense
  /// frame would have cost, the actual wire bytes, and the client's carried
  /// error-feedback residual L2 norm. Exported as the helios.codec.*
  /// metrics, the dashboard's bytes-saved column, and the journal's
  /// "codec" event.
  void record_codec(int device, std::size_t raw_bytes, std::size_t wire_bytes,
                    double residual_norm);

  /// One aggregator-tree tier's rollup for the round (hierarchical
  /// aggregation runs; `tier` is "edge", "regional" or "root"). Exported as
  /// the helios.agg.* counters labeled {tier=<name>}, the dashboard's
  /// per-tier breakdown, and the journal's "merge" event. `raw_bytes` is
  /// what the forwarded merge payloads would have cost at f64 — the
  /// quantized-uplink savings baseline (equal to bytes_forwarded minus
  /// riders/retransmits when the tree runs the kF64 codec).
  void record_tier_merge(std::string_view tier, std::uint64_t frames_folded,
                         std::uint64_t bytes_forwarded, int deadline_misses,
                         int retransmits, int lost_frames, double fold_seconds,
                         std::uint64_t raw_bytes = 0);

  /// One round's cohort draw (population-scale simulation): fleet size,
  /// active roster, and how many clients were sampled to participate.
  void record_cohort(int round, std::size_t population, std::size_t active,
                     std::size_t sampled);

  /// Churn applied to the fleet around round `round`: devices that arrived
  /// (admitted joiners) and departed (deactivated / killed).
  void record_churn(int round, int arrivals, int departures,
                    std::size_t population);

  /// A device sitting round `round` out. `dead` distinguishes a
  /// deactivated device from an active-but-unsampled (hollow) one.
  void record_device_skipped(int round, int device, bool dead);

  /// Which SIMD kernel backend the tensor layer dispatched to at startup
  /// ("scalar", "avx2", ...). Exported as the gauge
  /// `helios.kernel.backend{backend=<name>}` = 1 so dashboards can tell
  /// runs on different hardware (or HELIOS_KERNEL_BACKEND overrides) apart.
  void record_kernel_backend(std::string_view name);

  // ---- Exports ----

  void write_metrics_json(std::ostream& os) const { metrics_.write_json(os); }
  void write_metrics_prometheus(std::ostream& os) const {
    metrics_.write_prometheus(os);
  }
  void write_dashboard_json(std::ostream& os) const {
    dashboard_.write_json(os);
  }
  void render_dashboard(std::ostream& os) const { dashboard_.render(os); }

  /// Closes the trace and journal, samples the process RSS gauges one last
  /// time, and — when an artifact prefix is configured — writes the
  /// metrics / dashboard / summary files. Safe to call more than once.
  void flush();

  /// In-memory trace contents (only when no artifact prefix was given).
  std::string trace_text() const;
  /// In-memory journal contents (only when no artifact prefix was given).
  std::string journal_text() const;

  /// Current journal position for checkpointing: the durable byte offset of
  /// the journal file (flushed first) and the number of events committed so
  /// far. {0, 0} when the journal is off. A checkpoint stores this pair so a
  /// resumed process can truncate the file past any torn tail and continue
  /// the event stream exactly where the snapshot left it.
  struct JournalPosition {
    std::uint64_t byte_offset = 0;
    std::uint64_t events = 0;
  };
  JournalPosition journal_position();

 private:
  /// Stamps shared by every journal event: current cycle as the round id
  /// plus the virtual clock.
  RunJournal::Stamp journal_stamp(int device) const {
    return RunJournal::Stamp{cycle_.load(std::memory_order_relaxed), device,
                             virtual_time()};
  }

  /// Hands one event to its two consumers: the dashboard reducer and,
  /// when enabled, the journal.
  template <class Event>
  void publish(const RunJournal::Stamp& s, const Event& e) {
    dashboard_.apply(s.device, e);
    if (journal_) journal_->write(s, e);
  }

  TelemetryConfig config_;
  MetricsRegistry metrics_;
  StragglerDashboard dashboard_;
  std::unique_ptr<std::ofstream> trace_file_;
  std::ostringstream trace_buffer_;
  std::unique_ptr<TraceWriter> tracer_;
  std::unique_ptr<std::ofstream> journal_file_;
  std::ostringstream journal_buffer_;
  std::unique_ptr<RunJournal> journal_;
  std::atomic<double> virtual_time_{0.0};
  std::atomic<int> cycle_{-1};
  std::atomic<int> device_{-1};
  bool flushed_ = false;
};

/// Globally installed sink (nullptr when telemetry is off). Deep layers
/// that cannot be handed a sink explicitly read this.
TelemetrySink* global_sink();

}  // namespace helios::obs
