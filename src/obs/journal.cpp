#include "obs/journal.h"

#include <cstdio>

#include "obs/metrics.h"  // json_escape

namespace helios::obs {

void RunJournal::Line::key(const char* k) {
  text += ",\"";
  text += k;
  text += "\":";
}

void RunJournal::Line::operator()(const char* k, double v) {
  // %.17g: enough digits that strtod returns the exact same double, so a
  // journal parse -> replay round trip accumulates bit-identical sums.
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  key(k);
  text += buf;
}

void RunJournal::Line::operator()(const char* k, long long v) {
  key(k);
  text += std::to_string(v);
}

void RunJournal::Line::operator()(const char* k, std::string_view v) {
  key(k);
  text += '"';
  json_escape(text, v);
  text += '"';
}

RunJournal::Line RunJournal::open_line(std::string_view type, const Stamp& s,
                                       double wall_ms) {
  Line line;
  line.text.reserve(192);
  line.text = "{\"v\":1,\"t\":\"";
  line.text += type;
  line.text += '"';
  line("r", s.round);
  line("dev", s.device);
  line("vt", s.vt);
  line("w", wall_ms);
  return line;
}

RunJournal::RunJournal(std::ostream* os,
                       std::optional<std::uint64_t> resumed_events)
    : os_(os), epoch_(std::chrono::steady_clock::now()) {
  if (os_ == nullptr) return;
  if (resumed_events) {
    events_ = *resumed_events;
    return;
  }
  Line line = open_line("run_start", Stamp{}, 0.0);
  line("schema", kSchemaVersion);
  commit(line.text);
}

RunJournal::~RunJournal() { close(); }

double RunJournal::wall_ms() const {
  const std::chrono::duration<double, std::milli> dt =
      std::chrono::steady_clock::now() - epoch_;
  return dt.count();
}

void RunJournal::commit(std::string& line) {
  line += "}\n";
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return;
  os_->write(line.data(), static_cast<std::streamsize>(line.size()));
  ++events_;
}

void RunJournal::close() {
  if (os_ == nullptr) return;
  Line line = open_line("run_end", Stamp{}, wall_ms());
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return;
  line("events", events_ + 1);
  line.text += "}\n";
  os_->write(line.text.data(), static_cast<std::streamsize>(line.text.size()));
  os_->flush();
  ++events_;
  closed_ = true;
}

}  // namespace helios::obs
