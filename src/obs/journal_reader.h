// Reading side of the run journal (obs/journal.h): parse a JSONL stream
// back into events, aggregate them into a run summary (per-device
// participation, straggler drift, loss / retransmit breakdown), diff two
// runs, and replay a journal into a StragglerDashboard that matches the
// live run's dashboard bit-for-bit.
//
// Summaries aggregate per device before rendering, so two journals of the
// same run recorded at different thread counts — whose lines interleave
// differently — summarize identically.
#pragma once

#include <cstdint>
#include <istream>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "obs/dashboard.h"
#include "obs/event.h"
#include "util/json.h"

namespace helios::obs {

/// One parsed journal line: the common stamps plus the raw fields.
struct JournalEvent {
  std::string type;
  int round = -1;
  int device = -1;
  double vt = 0.0;
  double wall_ms = 0.0;
  util::JsonValue fields;  // the whole line object (stamps included)
};

/// Parses every line of a journal. Throws std::runtime_error on a
/// malformed line (with its line number) or an unsupported schema version.
/// Unknown event types are preserved — summaries simply ignore them — so
/// old readers tolerate newer writers.
std::vector<JournalEvent> read_journal(std::istream& is);

/// The typed event (obs/event.h) a parsed line carries, or nothing for
/// lifecycle lines and unknown types. Absent or out-of-range fields keep
/// their defaults; string fields view into `ev`, which must outlive the
/// result.
std::optional<event::Any> decode(const JournalEvent& ev);

/// Per-device aggregates a summary reports (a superset of what the
/// dashboard keeps, plus participation bookkeeping).
struct DeviceJournal {
  int device = -1;
  std::string profile;
  bool straggler = false;
  int trained_rounds = 0;
  int skipped_hollow = 0;
  int skipped_dead = 0;
  double first_volume = -1.0;  // straggler drift: volume at first
  double last_volume = -1.0;   // participation vs at last
  double r_n_sum = 0.0;
  int r_n_count = 0;
  double compute_seconds = 0.0;
  double comm_seconds = 0.0;
  long long wire_bytes = 0;
  /// From "codec" events: fp32-dense bytes the update would have cost vs
  /// what the wire codec actually encoded (equal when the codec is fp32).
  long long codec_raw_bytes = 0;
  long long codec_wire_bytes = 0;
  int frames_sent = 0;
  int frames_lost = 0;
  int retransmits = 0;
  int drops = 0;
  int deadline_misses = 0;
  bool dead = false;

  double mean_r_n() const {
    return r_n_count > 0 ? r_n_sum / r_n_count : 1.0;
  }
};

struct JournalSummary {
  int schema = 0;
  std::uint64_t events = 0;
  int rounds = 0;  // max round id + 1 over round events
  std::string strategy;
  double final_accuracy = 0.0;
  double final_virtual_time = 0.0;
  double wall_seconds = 0.0;  // last event's wall stamp

  // Fleet-level totals.
  long long bytes_on_wire = 0;
  int frames_sent = 0;
  int frames_lost = 0;
  int retransmits = 0;
  int drops = 0;
  int deadline_misses = 0;
  int deaths = 0;
  int renormalized_rounds = 0;
  int churn_arrivals = 0;
  int churn_departures = 0;
  /// Wire-codec totals over "codec" events (zero when the run never
  /// quantized): fp32-dense baseline vs encoded bytes.
  long long codec_raw_bytes = 0;
  long long codec_wire_bytes = 0;

  std::map<int, DeviceJournal> devices;  // ordered by device id

  /// Per-tier rollups from "merge" events (hierarchical aggregation runs
  /// only; empty for flat runs). Keyed by tier name ("edge" < "regional" <
  /// "root"), same shape as the live dashboard's TierTotals.
  TierMap tiers;
};

JournalSummary summarize_journal(const std::vector<JournalEvent>& events);

/// Human-readable summary: run header, loss/retx breakdown, per-device
/// participation percentiles and the straggler-drift table.
void write_summary(std::ostream& os, const JournalSummary& s);
/// Machine-readable equivalent.
void write_summary_json(std::ostream& os, const JournalSummary& s);

/// Replays a journal into a dashboard: decodes each line and feeds it to
/// StragglerDashboard::apply, the reducer the live TelemetrySink uses, so
/// rendering the result matches the live run's dashboard output
/// byte-for-byte. Fills `dash` in place (the dashboard owns a mutex, so it
/// cannot be returned by value).
void replay_dashboard(const std::vector<JournalEvent>& events,
                      StragglerDashboard& dash);

/// Field-by-field numeric diff of two run summaries; returns the number of
/// differing fields (0 = the runs agree on everything compared).
int write_diff(std::ostream& os, const JournalSummary& a,
               const JournalSummary& b);

}  // namespace helios::obs
