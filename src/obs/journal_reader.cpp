#include "obs/journal_reader.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <type_traits>

#include "obs/journal.h"
#include "obs/metrics.h"  // json_escape
#include "util/stats.h"
#include "util/table.h"

namespace helios::obs {

namespace {

/// Reads JSON members into event fields: numbers into arithmetic fields
/// (non-zero = true for flags; integers only when in range, so hostile
/// values cannot overflow a cast), strings into views of the parsed line.
/// Absent or wrong-typed members leave the field's default.
struct FieldReader {
  const util::JsonValue& obj;

  void operator()(const char* key, std::string_view& v) const {
    const util::JsonValue* m = obj.find(key);
    if (m != nullptr && m->is_string()) v = m->as_string();
  }
  template <class T>
  void operator()(const char* key, T& v) const {
    const util::JsonValue* m = obj.find(key);
    if (m == nullptr || !m->is_number()) return;
    const double x = m->as_number();
    if constexpr (std::is_same_v<T, bool>) {
      v = x != 0.0;
    } else if constexpr (std::is_floating_point_v<T>) {
      v = x;
    } else {
      const double hi = std::ldexp(1.0, std::numeric_limits<T>::digits);
      if (x >= (std::is_signed_v<T> ? -hi : 0.0) && x < hi) {
        v = static_cast<T>(x);
      }
    }
  }
};

template <class... Event>
std::optional<event::Any> decode_any(const JournalEvent& ev,
                                     std::variant<Event...>* /*tag*/) {
  std::optional<event::Any> out;
  const auto read = [&]<class E>(E e) {
    E::fields(e, FieldReader{ev.fields});
    out = e;
    return true;
  };
  ((ev.type == Event::kType && read(Event{})) || ...);
  return out;
}

}  // namespace

std::vector<JournalEvent> read_journal(std::istream& is) {
  std::vector<JournalEvent> events;
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    util::JsonValue v;
    try {
      v = util::JsonValue::parse(line);
    } catch (const std::exception& e) {
      throw std::runtime_error("journal line " + std::to_string(lineno) +
                               ": " + e.what());
    }
    if (!v.is_object()) {
      throw std::runtime_error("journal line " + std::to_string(lineno) +
                               ": not an object");
    }
    const FieldReader read{v};
    int schema = 0;
    read("v", schema);
    if (schema != RunJournal::kSchemaVersion) {
      throw std::runtime_error("journal line " + std::to_string(lineno) +
                               ": unsupported schema v" +
                               std::to_string(schema));
    }
    JournalEvent ev;
    ev.type = v.string_or("t", "");
    read("r", ev.round);
    read("dev", ev.device);
    read("vt", ev.vt);
    read("w", ev.wall_ms);
    ev.fields = std::move(v);
    events.push_back(std::move(ev));
  }
  return events;
}

std::optional<event::Any> decode(const JournalEvent& ev) {
  return decode_any(ev, static_cast<event::Any*>(nullptr));
}

namespace {

/// Folds one decoded event into a run summary.
struct Summarizer {
  JournalSummary& s;
  const JournalEvent& ev;

  DeviceJournal& device() {
    DeviceJournal& d = s.devices[ev.device];
    d.device = ev.device;
    return d;
  }

  void operator()(const event::Train& e) {
    DeviceJournal& d = device();
    if (d.profile.empty()) d.profile = e.profile;
    d.straggler = e.straggler;
    ++d.trained_rounds;
    if (d.first_volume < 0.0) d.first_volume = e.volume;
    d.last_volume = e.volume;
    d.compute_seconds += e.train_seconds;
    d.comm_seconds += e.upload_seconds;
  }
  void operator()(const event::Skip& e) {
    DeviceJournal& d = device();
    if (e.why == "dead") {
      ++d.skipped_dead;
    } else {
      ++d.skipped_hollow;
    }
  }
  void operator()(const event::Agg& e) {
    DeviceJournal& d = device();
    d.r_n_sum += e.r_n;
    ++d.r_n_count;
  }
  void operator()(const event::Xfer& e) {
    DeviceJournal& d = device();
    add_transfer(d, e);
    if (e.deadline_missed) ++d.deadline_misses;
    s.bytes_on_wire += static_cast<long long>(e.bytes_on_wire);
    s.frames_sent += e.transmissions;
    s.frames_lost += e.lost_frames;
    s.retransmits += std::max(0, e.transmissions - 1);
    if (!e.delivered) ++s.drops;
    if (e.deadline_missed) ++s.deadline_misses;
    if (e.died) ++s.deaths;
  }
  void operator()(const event::NetRound& e) {
    if (e.renormalized) ++s.renormalized_rounds;
  }
  void operator()(const event::Merge& e) {
    s.tiers[std::string(e.tier)].add(e);
  }
  void operator()(const event::Codec& e) {
    DeviceJournal& d = device();
    d.codec_raw_bytes += static_cast<long long>(e.raw_bytes);
    d.codec_wire_bytes += static_cast<long long>(e.wire_bytes);
    s.codec_raw_bytes += static_cast<long long>(e.raw_bytes);
    s.codec_wire_bytes += static_cast<long long>(e.wire_bytes);
  }
  void operator()(const event::Churn& e) {
    s.churn_arrivals += e.arrivals;
    s.churn_departures += e.departures;
  }
  void operator()(const event::Round& e) {
    s.rounds = std::max(s.rounds, ev.round + 1);
    s.strategy = e.strategy;
    s.final_accuracy = e.accuracy;
    s.final_virtual_time = ev.vt;
  }
  template <class Event>
  void operator()(const Event& /*e*/) {}
};

}  // namespace

JournalSummary summarize_journal(const std::vector<JournalEvent>& events) {
  JournalSummary s;
  s.events = events.size();
  for (const JournalEvent& ev : events) {
    int schema = 0;
    FieldReader{ev.fields}("v", schema);
    s.schema = std::max(s.schema, schema);
    s.wall_seconds = std::max(s.wall_seconds, ev.wall_ms / 1e3);
    // Unknown types (newer writers) decode to nothing and are ignored.
    if (const auto e = decode(ev)) std::visit(Summarizer{s, ev}, *e);
  }
  return s;
}

namespace {

struct Percentiles {
  double p50 = 0.0, p90 = 0.0, max = 0.0;
};

Percentiles percentiles_of(std::vector<double>& xs) {
  Percentiles p;
  if (xs.empty()) return p;
  p.p50 = util::percentile(xs, 50.0);
  p.p90 = util::percentile(xs, 90.0);
  p.max = *std::max_element(xs.begin(), xs.end());
  return p;
}

}  // namespace

void write_summary(std::ostream& os, const JournalSummary& s) {
  os << "run: " << (s.strategy.empty() ? "?" : s.strategy) << ", "
     << s.rounds << " rounds, " << s.devices.size() << " devices, "
     << s.events << " events (schema v" << s.schema << ")\n";
  os << "final: accuracy " << util::Table::num(s.final_accuracy * 100.0, 2)
     << "%, virtual time " << util::Table::num(s.final_virtual_time, 3)
     << " s, wall " << util::Table::num(s.wall_seconds, 2) << " s\n";
  os << "network: " << util::Table::num(
            static_cast<double>(s.bytes_on_wire) / 1e6, 2)
     << " MB on wire, " << s.frames_sent << " frames (" << s.frames_lost
     << " lost, " << s.retransmits << " retx), " << s.drops << " drops, "
     << s.deadline_misses << " deadline misses, " << s.deaths << " deaths, "
     << s.renormalized_rounds << " renormalized rounds\n";
  if (s.codec_raw_bytes > 0 && s.codec_raw_bytes != s.codec_wire_bytes) {
    const double ratio =
        s.codec_wire_bytes > 0
            ? static_cast<double>(s.codec_raw_bytes) /
                  static_cast<double>(s.codec_wire_bytes)
            : 0.0;
    os << "codec: "
       << util::Table::num(static_cast<double>(s.codec_raw_bytes) / 1e6, 2)
       << " MB fp32-dense -> "
       << util::Table::num(static_cast<double>(s.codec_wire_bytes) / 1e6, 2)
       << " MB on wire (" << util::Table::num(ratio, 2) << "x, saved "
       << util::Table::num(
              static_cast<double>(s.codec_raw_bytes - s.codec_wire_bytes) /
                  1e6,
              2)
       << " MB)\n";
  }
  if (s.churn_arrivals > 0 || s.churn_departures > 0) {
    os << "churn: +" << s.churn_arrivals << " / -" << s.churn_departures
       << " devices\n";
  }
  if (!s.tiers.empty()) {
    os << "hierarchy:\n";
    render_tier_table(os, s.tiers);
  }

  std::vector<double> trained, skipped, drift, r_n;
  int stragglers = 0, dead = 0;
  for (const auto& [id, d] : s.devices) {
    trained.push_back(d.trained_rounds);
    skipped.push_back(d.skipped_hollow + d.skipped_dead);
    if (d.straggler && d.first_volume > 0.0) {
      drift.push_back(d.last_volume - d.first_volume);
    }
    if (d.r_n_count > 0) r_n.push_back(d.mean_r_n());
    stragglers += d.straggler ? 1 : 0;
    dead += d.dead ? 1 : 0;
  }
  os << "participation: " << stragglers << " stragglers, " << dead
     << " dead\n";
  util::Table table({"per device", "p50", "p90", "max"});
  auto row = [&](const char* name, std::vector<double>& xs, int prec) {
    if (xs.empty()) return;
    const Percentiles p = percentiles_of(xs);
    table.add_row({name, util::Table::num(p.p50, prec),
                   util::Table::num(p.p90, prec),
                   util::Table::num(p.max, prec)});
  };
  row("rounds trained", trained, 0);
  row("rounds skipped", skipped, 0);
  row("mean r_n", r_n, 3);
  row("volume drift", drift, 3);
  table.print(os);
}

void write_summary_json(std::ostream& os, const JournalSummary& s) {
  os << "{\"schema\":" << s.schema << ",\"strategy\":\"";
  json_escape(os, s.strategy);
  os << "\",\"rounds\":" << s.rounds << ",\"events\":" << s.events
     << ",\"devices\":" << s.devices.size()
     << ",\"final_accuracy\":" << s.final_accuracy
     << ",\"final_virtual_time\":" << s.final_virtual_time
     << ",\"wall_seconds\":" << s.wall_seconds
     << ",\"bytes_on_wire\":" << s.bytes_on_wire
     << ",\"frames_sent\":" << s.frames_sent
     << ",\"frames_lost\":" << s.frames_lost
     << ",\"retransmits\":" << s.retransmits << ",\"drops\":" << s.drops
     << ",\"deadline_misses\":" << s.deadline_misses
     << ",\"deaths\":" << s.deaths
     << ",\"renormalized_rounds\":" << s.renormalized_rounds
     << ",\"churn_arrivals\":" << s.churn_arrivals
     << ",\"churn_departures\":" << s.churn_departures
     << ",\"codec_raw_bytes\":" << s.codec_raw_bytes
     << ",\"codec_wire_bytes\":" << s.codec_wire_bytes;
  if (!s.tiers.empty()) {
    os << ",\"tiers\":{";
    bool first_tier = true;
    for (const auto& [name, t] : s.tiers) {
      if (!first_tier) os << ',';
      first_tier = false;
      os << '"';
      json_escape(os, name);
      os << "\":{\"merges\":" << t.merges
         << ",\"frames_folded\":" << t.frames_folded
         << ",\"bytes_forwarded\":" << t.bytes_forwarded
         << ",\"raw_bytes\":" << t.raw_bytes
         << ",\"deadline_misses\":" << t.deadline_misses
         << ",\"retransmits\":" << t.retransmits
         << ",\"lost_frames\":" << t.lost_frames
         << ",\"fold_seconds\":" << t.fold_seconds << '}';
    }
    os << '}';
  }
  os << ",\"per_device\":[";
  bool first = true;
  for (const auto& [id, d] : s.devices) {
    if (!first) os << ',';
    first = false;
    os << "{\"device\":" << id << ",\"profile\":\"";
    json_escape(os, d.profile);
    os << "\",\"straggler\":" << (d.straggler ? "true" : "false")
       << ",\"trained_rounds\":" << d.trained_rounds
       << ",\"skipped_hollow\":" << d.skipped_hollow
       << ",\"skipped_dead\":" << d.skipped_dead
       << ",\"first_volume\":" << d.first_volume
       << ",\"last_volume\":" << d.last_volume
       << ",\"mean_r_n\":" << d.mean_r_n()
       << ",\"compute_seconds\":" << d.compute_seconds
       << ",\"comm_seconds\":" << d.comm_seconds
       << ",\"wire_bytes\":" << d.wire_bytes
       << ",\"codec_raw_bytes\":" << d.codec_raw_bytes
       << ",\"codec_wire_bytes\":" << d.codec_wire_bytes
       << ",\"frames_sent\":" << d.frames_sent
       << ",\"frames_lost\":" << d.frames_lost
       << ",\"retransmits\":" << d.retransmits << ",\"drops\":" << d.drops
       << ",\"deadline_misses\":" << d.deadline_misses
       << ",\"dead\":" << (d.dead ? "true" : "false") << '}';
  }
  os << "]}\n";
}

void replay_dashboard(const std::vector<JournalEvent>& events,
                      StragglerDashboard& dash) {
  for (const JournalEvent& ev : events) {
    if (const auto e = decode(ev)) {
      std::visit([&](const auto& x) { dash.apply(ev.device, x); }, *e);
    }
  }
}

namespace {

struct DiffRow {
  const char* field;
  double a;
  double b;
};

int emit_diff_rows(std::ostream& os, const char* scope,
                   std::span<const DiffRow> rows) {
  int differing = 0;
  util::Table table({"field", "a", "b", "delta"});
  for (const DiffRow& r : rows) {
    if (r.a == r.b) continue;
    ++differing;
    table.add_row({r.field, util::Table::num(r.a, 4),
                   util::Table::num(r.b, 4),
                   util::Table::num(r.b - r.a, 4)});
  }
  if (differing > 0) {
    os << scope << ":\n";
    table.print(os);
  }
  return differing;
}

}  // namespace

int write_diff(std::ostream& os, const JournalSummary& a,
               const JournalSummary& b) {
  const DiffRow run_rows[] = {
      {"rounds", static_cast<double>(a.rounds), static_cast<double>(b.rounds)},
      {"devices", static_cast<double>(a.devices.size()),
       static_cast<double>(b.devices.size())},
      {"final_accuracy", a.final_accuracy, b.final_accuracy},
      {"final_virtual_time", a.final_virtual_time, b.final_virtual_time},
      {"bytes_on_wire", static_cast<double>(a.bytes_on_wire),
       static_cast<double>(b.bytes_on_wire)},
      {"frames_sent", static_cast<double>(a.frames_sent),
       static_cast<double>(b.frames_sent)},
      {"frames_lost", static_cast<double>(a.frames_lost),
       static_cast<double>(b.frames_lost)},
      {"retransmits", static_cast<double>(a.retransmits),
       static_cast<double>(b.retransmits)},
      {"drops", static_cast<double>(a.drops), static_cast<double>(b.drops)},
      {"deadline_misses", static_cast<double>(a.deadline_misses),
       static_cast<double>(b.deadline_misses)},
      {"deaths", static_cast<double>(a.deaths),
       static_cast<double>(b.deaths)},
      {"renormalized_rounds", static_cast<double>(a.renormalized_rounds),
       static_cast<double>(b.renormalized_rounds)},
      {"churn_arrivals", static_cast<double>(a.churn_arrivals),
       static_cast<double>(b.churn_arrivals)},
      {"churn_departures", static_cast<double>(a.churn_departures),
       static_cast<double>(b.churn_departures)},
      {"codec_raw_bytes", static_cast<double>(a.codec_raw_bytes),
       static_cast<double>(b.codec_raw_bytes)},
      {"codec_wire_bytes", static_cast<double>(a.codec_wire_bytes),
       static_cast<double>(b.codec_wire_bytes)},
  };
  int differing = emit_diff_rows(os, "run", run_rows);

  // Per-device diff over the union of device ids.
  for (auto ita = a.devices.begin(), itb = b.devices.begin();
       ita != a.devices.end() || itb != b.devices.end();) {
    int id = 0;
    const DeviceJournal* da = nullptr;
    const DeviceJournal* db = nullptr;
    if (itb == b.devices.end() ||
        (ita != a.devices.end() && ita->first <= itb->first)) {
      id = ita->first;
      da = &ita->second;
      if (itb != b.devices.end() && itb->first == id) db = &itb->second;
    } else {
      id = itb->first;
      db = &itb->second;
    }
    static const DeviceJournal kEmpty;
    const DeviceJournal& x = da != nullptr ? *da : kEmpty;
    const DeviceJournal& y = db != nullptr ? *db : kEmpty;
    const DiffRow device_rows[] = {
        {"trained_rounds", static_cast<double>(x.trained_rounds),
         static_cast<double>(y.trained_rounds)},
        {"skipped", static_cast<double>(x.skipped_hollow + x.skipped_dead),
         static_cast<double>(y.skipped_hollow + y.skipped_dead)},
        {"mean_r_n", x.mean_r_n(), y.mean_r_n()},
        {"last_volume", x.last_volume, y.last_volume},
        {"wire_bytes", static_cast<double>(x.wire_bytes),
         static_cast<double>(y.wire_bytes)},
        {"retransmits", static_cast<double>(x.retransmits),
         static_cast<double>(y.retransmits)},
        {"drops", static_cast<double>(x.drops),
         static_cast<double>(y.drops)},
        {"dead", x.dead ? 1.0 : 0.0, y.dead ? 1.0 : 0.0},
    };
    const std::string scope = "device " + std::to_string(id);
    differing += emit_diff_rows(os, scope.c_str(), device_rows);
    if (da != nullptr) ++ita;
    if (db != nullptr) ++itb;
  }
  if (differing == 0) os << "journals agree on all compared fields\n";
  return differing;
}

}  // namespace helios::obs
