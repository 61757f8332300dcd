// bench_compare — the perf-trajectory regression gate.
//
//   bench_compare [--check] [--baseline-dir <dir>] [--new-dir <dir>]
//                 [file...]
//
// Diffs freshly generated BENCH_*.json snapshots (from bench_all, in
// --new-dir, default ".") against the committed baselines (--baseline-dir,
// default "bench/baselines"). Every numeric leaf is flattened to a dotted
// path (array elements keyed by their name / devices / threads / loss
// fields) and judged with a per-metric noise threshold:
//
//   *seconds*            regression when new > old * 1.8 + 2 ms
//   rounds_per_second    regression when new < old / 1.8 - slack
//   *accuracy*           regression when new < old - 0.05
//   *rss_mb, *replica_mb regression when new > old * 2 + 16 MB
//   *_gflops             regression when new < old / 1.8 (throughput)
//   speedup_*_vs_scalar  regression when a matmul case drops below 2x
//                        while the baseline held it, or any case falls
//                        under old / 1.5
//   wire_reduction_vs_fp32   regression when the int8pn codec drops below
//                        its 4x acceptance floor, or any codec falls
//                        under old / 1.5
//   accuracy_delta_vs_fp32   regression when int8 quantization costs more
//                        than 0.5% final accuracy vs the fp32 run; other
//                        codecs ride the 0.05 drift rule
//   *_cycles_per_call    informational only (machine-dependent)
//   counts / bytes / MB  regression when off by > 20% + small abs slack
//
// The wide time tolerance absorbs machine noise (a repeat run on the same
// box passes) while still tripping on a genuine 2x slowdown. Each snapshot
// records its host (nproc, CPU model, compiler, build type); when baseline
// and fresh run disagree, one "host differs" note names both, so a verdict
// a host change explains shows next to its cause (verdicts and thresholds
// do not depend on the host). Scale or
// schema mismatches and metrics missing from the fresh run are structural
// failures. Informational drifts are reported but never fail the gate.
// Exit: 0 by default; with --check, 1 when any regression was found.
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "util/host.h"
#include "util/json.h"

namespace {

using helios::util::JsonValue;

struct Metric {
  std::string path;
  double value = 0.0;
};

/// Array elements are keyed by their discriminating field so paths stay
/// stable when ordering or counts change.
std::string element_key(const JsonValue& v, std::size_t index) {
  if (v.is_object()) {
    for (const char* key : {"name", "devices", "threads", "loss"}) {
      if (const JsonValue* f = v.find(key)) {
        if (f->is_string()) return f->as_string();
        if (f->is_number()) {
          std::ostringstream os;
          os << key << '=' << f->as_number();
          return os.str();
        }
      }
    }
  }
  return std::to_string(index);
}

void flatten(const JsonValue& v, const std::string& prefix,
             std::vector<Metric>& out) {
  if (v.is_number()) {
    out.push_back({prefix, v.as_number()});
  } else if (v.is_object()) {
    for (const auto& [k, child] : v.members()) {
      // The recording host is environment, compared by its own note.
      if (prefix.empty() && k == "host") continue;
      flatten(child, prefix.empty() ? k : prefix + "." + k, out);
    }
  } else if (v.is_array()) {
    for (std::size_t i = 0; i < v.items().size(); ++i) {
      flatten(v.items()[i], prefix + "[" + element_key(v.items()[i], i) + "]",
              out);
    }
  }
  // Strings/bools/nulls are configuration, compared structurally via
  // "scale"/"schema" before flattening.
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// The leaf key (text after the last '.'), for classification.
std::string leaf(const std::string& path) {
  const std::size_t dot = path.find_last_of('.');
  return dot == std::string::npos ? path : path.substr(dot + 1);
}

enum class Verdict { kOk, kRegression, kInfo };

/// Applies the per-metric thresholds documented in the header comment.
Verdict judge(const std::string& path, double oldv, double newv,
              std::string& why) {
  const std::string key = leaf(path);
  std::ostringstream os;
  if (key == "speedup_4_vs_1" || key == "hardware_concurrency" ||
      key == "schema") {
    return Verdict::kOk;  // schema checked structurally; the rest is env
  }
  if (key.find("seconds") != std::string::npos) {
    if (newv > oldv * 1.8 + 0.002) {
      os << "time " << oldv << " -> " << newv << " s (> 1.8x + 2 ms)";
      why = os.str();
      return Verdict::kRegression;
    }
    return Verdict::kOk;
  }
  if (ends_with(key, "_cycles_per_call")) {
    return Verdict::kOk;  // cycle counts are CPU-model-specific
  }
  if (key.rfind("speedup_", 0) == 0 && ends_with(key, "_vs_scalar")) {
    // The SIMD backend's reason to exist is the >= 2x single-thread win on
    // the matmul kernels; losing it (or most of the baseline's ratio) is a
    // regression even if absolute times still pass the loose seconds rule.
    // The hard 2x floor is armed only for matmul cases — the optimizer
    // kernels are memory-bound and sit close enough to 2x that the floor
    // would flake on machine noise; the ratio rule still covers them.
    const bool matmul_case = path.find("matmul") != std::string::npos;
    if ((matmul_case && oldv >= 2.0 && newv < 2.0) || newv < oldv / 1.5) {
      os << "speedup " << oldv << "x -> " << newv << "x vs scalar";
      why = os.str();
      return Verdict::kRegression;
    }
    return Verdict::kOk;
  }
  if (ends_with(key, "_gflops")) {
    if (newv < oldv / 1.8) {
      os << "throughput " << oldv << " -> " << newv << " GFLOP/s (< 1/1.8x)";
      why = os.str();
      return Verdict::kRegression;
    }
    return Verdict::kOk;
  }
  if (key == "rounds_per_second") {
    if (newv < oldv / 1.8 - 1e-9) {
      os << "throughput " << oldv << " -> " << newv << " rounds/s (< 1/1.8x)";
      why = os.str();
      return Verdict::kRegression;
    }
    return Verdict::kOk;
  }
  if (key == "wire_reduction_vs_fp32") {
    // The quantized wire codec's acceptance floor: int8 per-neuron must
    // keep a >= 4x measured wire-byte reduction over fp32 dense. Other
    // codecs (fp16 sits near 2x) just must not lose most of their
    // baseline's ratio.
    const bool int8_case = path.find("int8pn") != std::string::npos;
    if ((int8_case && newv < 4.0) || newv < oldv / 1.5) {
      os << "wire reduction " << oldv << "x -> " << newv << "x vs fp32"
         << (int8_case && newv < 4.0 ? " (below the 4x int8pn floor)" : "");
      why = os.str();
      return Verdict::kRegression;
    }
    return Verdict::kOk;
  }
  if (key == "accuracy_delta_vs_fp32") {
    // The acceptance claim: int8 per-neuron with error feedback costs less
    // than 0.5% final accuracy vs the fp32 run at the same loss rate — an
    // absolute floor, not relative to the baseline value. fp16 rows ride
    // the looser drift rule instead: on the toy sweep task their deltas
    // are trajectory noise (a handful of eval samples), not codec cost.
    const bool int8_case = path.find("int8") != std::string::npos;
    if (int8_case && newv < -0.005) {
      os << "accuracy delta vs fp32 " << oldv << " -> " << newv
         << " (quantization cost exceeds the 0.5% floor)";
      why = os.str();
      return Verdict::kRegression;
    }
    if (newv < oldv - 0.05) {
      os << "accuracy delta vs fp32 " << oldv << " -> " << newv
         << " (dropped > 0.05 vs baseline)";
      why = os.str();
      return Verdict::kRegression;
    }
    return Verdict::kOk;
  }
  if (key.find("accuracy") != std::string::npos) {
    if (newv < oldv - 0.05) {
      os << "accuracy " << oldv << " -> " << newv << " (dropped > 0.05)";
      why = os.str();
      return Verdict::kRegression;
    }
    return Verdict::kOk;
  }
  if (ends_with(key, "rss_mb") || ends_with(key, "replica_mb")) {
    if (newv > oldv * 2.0 + 16.0) {
      os << "memory " << oldv << " -> " << newv << " MB (> 2x + 16 MB)";
      why = os.str();
      return Verdict::kRegression;
    }
    return Verdict::kOk;
  }
  // Counts, bytes and MB totals: deterministic under fixed seeds, so a
  // drift beyond noise means the workload itself changed.
  if (std::abs(newv - oldv) > std::abs(oldv) * 0.2 + 5.0) {
    os << "count " << oldv << " -> " << newv << " (off > 20% + 5)";
    why = os.str();
    return Verdict::kInfo;
  }
  return Verdict::kOk;
}

struct FileReport {
  int regressions = 0;
  int infos = 0;
  int compared = 0;
};

JsonValue load(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open " + path);
  std::ostringstream buf;
  buf << is.rdbuf();
  return JsonValue::parse(buf.str());
}

FileReport compare_file(const std::string& name, const std::string& old_path,
                        const std::string& new_path) {
  FileReport r;
  const JsonValue oldv = load(old_path);
  const JsonValue newv = load(new_path);

  // Structural gates: comparing different schemas or bench scales would
  // make every threshold meaningless.
  for (const char* key : {"schema", "scale"}) {
    const JsonValue* a = oldv.find(key);
    const JsonValue* b = newv.find(key);
    const std::string as = a ? (a->is_string() ? a->as_string()
                                               : std::to_string(static_cast<long long>(a->as_number())))
                             : "<absent>";
    const std::string bs = b ? (b->is_string() ? b->as_string()
                                               : std::to_string(static_cast<long long>(b->as_number())))
                             : "<absent>";
    if (as != bs) {
      std::cout << "REGRESSION " << name << " " << key << ": baseline " << as
                << " vs new " << bs << " (structural mismatch)\n";
      ++r.regressions;
    }
  }

  // A different host explains time drifts without changing any verdict.
  const std::string host_line = helios::util::host_mismatch_line(
      helios::util::host_from_json(oldv), helios::util::host_from_json(newv));
  if (!host_line.empty()) {
    std::cout << "note       " << name << " " << host_line << "\n";
    ++r.infos;
  }

  std::vector<Metric> old_metrics;
  std::vector<Metric> new_metrics;
  flatten(oldv, "", old_metrics);
  flatten(newv, "", new_metrics);

  auto find_new = [&](const std::string& path) -> const Metric* {
    for (const Metric& m : new_metrics) {
      if (m.path == path) return &m;
    }
    return nullptr;
  };

  for (const Metric& m : old_metrics) {
    const Metric* n = find_new(m.path);
    if (n == nullptr) {
      std::cout << "REGRESSION " << name << " " << m.path
                << ": missing from the new run\n";
      ++r.regressions;
      continue;
    }
    ++r.compared;
    std::string why;
    switch (judge(m.path, m.value, n->value, why)) {
      case Verdict::kRegression:
        std::cout << "REGRESSION " << name << " " << m.path << ": " << why
                  << "\n";
        ++r.regressions;
        break;
      case Verdict::kInfo:
        std::cout << "note       " << name << " " << m.path << ": " << why
                  << "\n";
        ++r.infos;
        break;
      case Verdict::kOk:
        break;
    }
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  std::string baseline_dir = "bench/baselines";
  std::string new_dir = ".";
  std::vector<std::string> files;
  std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--check") {
      check = true;
    } else if (args[i] == "--baseline-dir" && i + 1 < args.size()) {
      baseline_dir = args[++i];
    } else if (args[i] == "--new-dir" && i + 1 < args.size()) {
      new_dir = args[++i];
    } else if (!args[i].empty() && args[i][0] == '-') {
      std::cerr << "usage: bench_compare [--check] [--baseline-dir <dir>]"
                << " [--new-dir <dir>] [file...]\n";
      return 2;
    } else {
      files.push_back(args[i]);
    }
  }
  if (files.empty()) {
    files = {"BENCH_parallel.json", "BENCH_net.json", "BENCH_scale.json",
             "BENCH_kernels.json"};
  }

  int regressions = 0;
  int compared = 0;
  try {
    for (const std::string& f : files) {
      const FileReport r =
          compare_file(f, baseline_dir + "/" + f, new_dir + "/" + f);
      regressions += r.regressions;
      compared += r.compared;
      std::cout << f << ": " << r.compared << " metrics compared, "
                << r.regressions << " regression(s), " << r.infos
                << " note(s)\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "bench_compare: " << e.what() << "\n";
    return 1;
  }
  if (regressions > 0) {
    std::cout << "bench_compare: " << regressions << " regression(s) across "
              << compared << " compared metrics\n";
    return check ? 1 : 0;
  }
  std::cout << "bench_compare: no regressions across " << compared
            << " compared metrics\n";
  return 0;
}
