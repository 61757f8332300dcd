// Telemetry events — the one typed record behind every journal line.
//
// Each struct below is one journal event type. `kType` is its "t" name and
// `fields(e, f)` calls `f(key, member)` for each of its journal keys, in
// line order. That visitor is the only place an event's keys are spelled:
//   * RunJournal::write formats the fields into a JSONL line,
//   * decode() (obs/journal_reader.h) parses a line back into the struct,
//   * StragglerDashboard::apply folds the struct into the dashboard,
// and TelemetrySink's record_* hooks build one event each and hand it to
// both the dashboard and the journal. A replayed dashboard therefore runs
// the same reducer over the same values as the live one. Adding an event
// type is one struct here plus its entry in `Any`.
//
// Strings are views: live events point at the caller's arguments, decoded
// events into the parsed line, so neither path copies them.
//
// Line format (schema v1) — one flat JSON object per line, short keys:
//   {"v":1,"t":"train","r":3,"dev":7,"vt":1.25,"w":18.4, ...fields...}
//     v    schema version (on every line, so a file tail is self-describing)
//     t    event type
//     r    round / cycle id (-1 when not in a round)
//     dev  device id (-1 for fleet-level events)
//     vt   virtual-clock seconds at emission
//     w    wall-clock milliseconds since the journal opened
// Integers and flags print as integers, doubles with %.17g (so a parse ->
// replay round trip is bit-exact), strings JSON-escaped. The lifecycle
// lines run_start {schema} and run_end {events} are written by RunJournal
// itself. Readers skip event types they do not know, so adding one keeps
// the schema at v1.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <variant>

namespace helios::obs::event {

/// One round's cohort draw: fleet size, active roster, clients sampled.
struct Cohort {
  static constexpr std::string_view kType = "cohort";
  std::size_t population = 0, active = 0, sampled = 0;

  template <class E, class F> static void fields(E& e, F&& f) {
    f("pop", e.population);
    f("act", e.active);
    f("sam", e.sampled);
  }
};

/// A device sitting a round out: "hollow" (active but not sampled, replica
/// hibernated) or "dead" (deactivated).
struct Skip {
  static constexpr std::string_view kType = "skip";
  std::string_view why;

  template <class E, class F> static void fields(E& e, F&& f) {
    f("why", e.why);
  }
};

/// One client cycle: the submodel it trained and its virtual-time split.
struct Train {
  static constexpr std::string_view kType = "train";
  std::string_view profile;
  bool straggler = false;
  double volume = 1.0;
  int trained_neurons = 0, neuron_total = 0;
  double train_seconds = 0.0, upload_seconds = 0.0;  // virtual time
  double upload_mb = 0.0, mean_loss = 0.0;

  template <class E, class F> static void fields(E& e, F&& f) {
    f("prof", e.profile);
    f("strag", e.straggler);
    f("vol", e.volume);
    f("mask", e.trained_neurons);
    f("tot", e.neuron_total);
    f("train_s", e.train_seconds);
    f("up_s", e.upload_seconds);
    f("up_mb", e.upload_mb);
    f("loss", e.mean_loss);
  }
};

/// One device's upload across the simulated network, attempts collapsed.
struct Xfer {
  static constexpr std::string_view kType = "xfer";
  std::size_t bytes_on_wire = 0;
  int transmissions = 0, lost_frames = 0;  // transmissions count retries
  bool delivered = true, deadline_missed = false, died = false;
  double comm_seconds = 0.0;

  template <class E, class F> static void fields(E& e, F&& f) {
    f("bytes", e.bytes_on_wire);
    f("tx", e.transmissions);
    f("lost", e.lost_frames);
    f("ok", e.delivered);
    f("miss", e.deadline_missed);
    f("dead", e.died);
    f("comm_s", e.comm_seconds);
  }
};

/// One quantized upload encode: fp32-dense bytes in, wire bytes out, and
/// the client's carried error-feedback residual L2 norm.
struct Codec {
  static constexpr std::string_view kType = "codec";
  std::size_t raw_bytes = 0, wire_bytes = 0;
  double residual_norm = 0.0;

  template <class E, class F> static void fields(E& e, F&& f) {
    f("in", e.raw_bytes);
    f("out", e.wire_bytes);
    f("res", e.residual_norm);
  }
};

/// The aggregation weight actually used: r_n of Eq. 10 and the normalized
/// alpha share (shares sum to 1 across a cycle's participants).
struct Agg {
  static constexpr std::string_view kType = "agg";
  double r_n = 1.0;
  double alpha_share = 0.0;

  template <class E, class F> static void fields(E& e, F&& f) {
    f("r_n", e.r_n);
    f("alpha", e.alpha_share);
  }
};

/// Rotation regulation snapshot: neurons force-included this cycle and the
/// skipped-cycle distribution (C_s = 0 / 1 / 2 / >= 3).
struct Rot {
  static constexpr std::string_view kType = "rot";
  int forced = 0;
  std::array<int, 4> cs_hist{0, 0, 0, 0};

  template <class E, class F> static void fields(E& e, F&& f) {
    f("forced", e.forced);
    f("cs0", e.cs_hist[0]);
    f("cs1", e.cs_hist[1]);
    f("cs2", e.cs_hist[2]);
    f("cs3", e.cs_hist[3]);
  }
};

/// One synchronous round's network closure; `renormalized` marks a partial
/// round (fewer arrivals than participants, weights re-spread).
struct NetRound {
  static constexpr std::string_view kType = "net_round";
  std::size_t bytes_on_wire = 0;
  int participants = 0, delivered = 0, lost_frames = 0, retransmits = 0;
  int deadline_misses = 0, deaths = 0;
  bool renormalized = false;

  template <class E, class F> static void fields(E& e, F&& f) {
    f("bytes", e.bytes_on_wire);
    f("n", e.participants);
    f("okn", e.delivered);
    f("lost", e.lost_frames);
    f("retx", e.retransmits);
    f("miss", e.deadline_misses);
    f("dead", e.deaths);
    f("renorm", e.renormalized);
  }
};

/// One aggregator-tree tier's round rollup (hierarchical runs only; `tier`
/// is "edge", "regional" or "root"). `raw_bytes` is what the forwarded
/// merge payloads would have cost at f64; `fold_seconds` is wall clock.
struct Merge {
  static constexpr std::string_view kType = "merge";
  std::string_view tier = "?";
  std::uint64_t frames_folded = 0, bytes_forwarded = 0, raw_bytes = 0;
  int deadline_misses = 0, retransmits = 0, lost_frames = 0;
  double fold_seconds = 0.0;

  template <class E, class F> static void fields(E& e, F&& f) {
    f("tier", e.tier);
    f("frames", e.frames_folded);
    f("bytes", e.bytes_forwarded);
    f("raw", e.raw_bytes);
    f("miss", e.deadline_misses);
    f("retx", e.retransmits);
    f("lost", e.lost_frames);
    f("fold_s", e.fold_seconds);
  }
};

/// Churn applied around a round: devices admitted and departed.
struct Churn {
  static constexpr std::string_view kType = "churn";
  int arrivals = 0, departures = 0;
  std::size_t population = 0;

  template <class E, class F> static void fields(E& e, F&& f) {
    f("in", e.arrivals);
    f("out", e.departures);
    f("pop", e.population);
  }
};

/// One strategy cycle completed (accuracy evaluated).
struct Round {
  static constexpr std::string_view kType = "round";
  std::string_view strategy;
  double accuracy = 0.0, mean_loss = 0.0, upload_mb = 0.0;

  template <class E, class F> static void fields(E& e, F&& f) {
    f("strat", e.strategy);
    f("acc", e.accuracy);
    f("loss", e.mean_loss);
    f("up_mb", e.upload_mb);
  }
};

/// Every event type, for decoding and generic consumers.
using Any = std::variant<Cohort, Skip, Train, Xfer, Codec, Agg, Rot, NetRound,
                         Merge, Churn, Round>;

}  // namespace helios::obs::event
