// Run journal — the flight recorder.
//
// An append-only JSONL event stream recording every round's lifecycle at
// per-device granularity: cohort draws, devices trained or skipped (hollow /
// dead), submodel mask sizes, upload attempts / retransmits / drops /
// deadline misses, frame wire bytes, aggregation weights and renormalized
// partial rounds, rotation pressure and churn. Where the metrics registry
// keeps aggregates and the dashboard keeps per-device *totals*, the journal
// keeps the individual events, so a finished run can be summarized, diffed
// against another run, or replayed into the dashboard after the fact
// (see obs/journal_reader.h and the `helios-journal` CLI). The event types
// and the line format are defined in obs/event.h.
//
// Threading: writes are serialized by one mutex (journaling is for insight;
// events are rare next to kernel work). Per-device causality is preserved —
// one device's events appear in their program order — while events of
// different devices may interleave differently across thread counts, which
// is why the reader's summaries aggregate per device before comparing.
//
// Disabled path: a RunJournal constructed with a null stream ignores every
// call after one branch — no clock read, no allocation, no I/O.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>

#include "obs/event.h"

namespace helios::obs {

class RunJournal {
 public:
  static constexpr int kSchemaVersion = 1;

  /// Journals to `os` (not owned; must outlive the journal). A null stream
  /// produces a disabled journal: every write returns after one branch.
  /// Writes the run_start line immediately when enabled.
  ///
  /// With `resumed_events` (checkpoint/resume) it continues an existing
  /// journal whose first `resumed_events` events are already on disk: no
  /// run_start line is written and the event counter starts there, so the
  /// eventual run_end's count covers the whole run seamlessly, with no
  /// duplicated or missing events across the crash.
  explicit RunJournal(std::ostream* os,
                      std::optional<std::uint64_t> resumed_events = {});
  ~RunJournal();

  RunJournal(const RunJournal&) = delete;
  RunJournal& operator=(const RunJournal&) = delete;

  bool enabled() const { return os_ != nullptr; }
  std::uint64_t event_count() const { return events_; }

  /// Common stamps carried by every event. `round` / `device` use -1 for
  /// "not applicable"; `vt` is the virtual clock in seconds.
  struct Stamp {
    int round = -1;
    int device = -1;
    double vt = 0.0;
  };

  /// Appends one event line (obs/event.h); a no-op when disabled.
  template <class Event>
  void write(const Stamp& s, const Event& e) {
    if (os_ == nullptr) return;
    Line line = open_line(Event::kType, s, wall_ms());
    Event::fields(e, line);
    commit(line.text);
  }

  /// Writes the run_end line (once); further events are dropped.
  void close();

 private:
  /// Formats one line's fields: integers and flags as integers, doubles
  /// with %.17g, strings JSON-escaped.
  struct Line {
    std::string text;
    void key(const char* k);
    void operator()(const char* k, double v);
    void operator()(const char* k, long long v);
    void operator()(const char* k, std::string_view v);
    template <class T>
      requires std::is_integral_v<T>
    void operator()(const char* k, T v) {
      (*this)(k, static_cast<long long>(v));
    }
  };

  /// Starts a line with the schema version, type and stamps. The wall
  /// clock is passed in because only enabled paths may read clocks.
  static Line open_line(std::string_view type, const Stamp& s,
                        double wall_ms);
  /// Appends one finished line under the lock and counts it.
  void commit(std::string& line);
  double wall_ms() const;

  std::ostream* os_;  // null = disabled
  std::mutex mu_;
  std::chrono::steady_clock::time_point epoch_;
  std::uint64_t events_ = 0;
  bool closed_ = false;
};

}  // namespace helios::obs
