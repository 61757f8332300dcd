// The recording host of a benchmark snapshot.
//
// Every BENCH_*.json carries a "host" object so a baseline recorded on one
// machine, compiler or build type is not silently compared as if it came
// from another: wall-clock keys are host-bound, and bench_compare prints a
// "host differs" note when the two fingerprints disagree (its verdicts and
// thresholds do not change).
#pragma once

#include <optional>
#include <string>

#include "util/json.h"

namespace helios::util {

struct HostFingerprint {
  int nproc = 0;            // logical CPUs (std::thread::hardware_concurrency)
  std::string cpu_model;    // "model name" from /proc/cpuinfo, or "unknown"
  std::string compiler;     // e.g. "gcc 13.2.0"
  std::string build_type;   // CMake build type of this binary, e.g. "Release"

  bool operator==(const HostFingerprint&) const = default;
};

/// The fingerprint of the running binary on this machine.
HostFingerprint this_host();

/// JSON object text for the fingerprint, e.g.
/// {"nproc": 4, "cpu_model": "...", "compiler": "...", "build_type": "..."}.
std::string host_json(const HostFingerprint& host);

/// The "host" member of a BENCH_*.json document; nullopt when the document
/// predates host stamping (or the member is not an object).
std::optional<HostFingerprint> host_from_json(const JsonValue& doc);

/// "host differs: baseline {...} vs new {...}" when the fingerprints
/// disagree (an unrecorded one never matches); empty when they agree. Each
/// side renders as nproc=4 cpu="..." compiler="..." build=Release, or as
/// "(not recorded)".
std::string host_mismatch_line(const std::optional<HostFingerprint>& baseline,
                               const std::optional<HostFingerprint>& fresh);

}  // namespace helios::util
