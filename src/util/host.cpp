#include "util/host.h"

#include <fstream>
#include <sstream>
#include <thread>

#ifndef HELIOS_BUILD_TYPE
#define HELIOS_BUILD_TYPE ""
#endif

namespace helios::util {
namespace {

std::string cpu_model_name() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    const std::size_t start = line.find_first_not_of(" \t", colon + 1);
    return start == std::string::npos ? "unknown" : line.substr(start);
  }
  return "unknown";
}

std::string compiler_name() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

void write_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      os << '\\' << ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      os << ' ';  // control characters carry nothing worth keeping here
    } else {
      os << ch;
    }
  }
  os << '"';
}

std::string describe_host(const std::optional<HostFingerprint>& host) {
  if (!host) return "(not recorded)";
  std::ostringstream os;
  os << "nproc=" << host->nproc << " cpu=";
  write_string(os, host->cpu_model);
  os << " compiler=";
  write_string(os, host->compiler);
  os << " build=" << (host->build_type.empty() ? "-" : host->build_type);
  return os.str();
}

}  // namespace

HostFingerprint this_host() {
  HostFingerprint h;
  h.nproc = static_cast<int>(std::thread::hardware_concurrency());
  h.cpu_model = cpu_model_name();
  h.compiler = compiler_name();
  h.build_type = HELIOS_BUILD_TYPE;
  return h;
}

std::string host_json(const HostFingerprint& host) {
  std::ostringstream os;
  os << "{\"nproc\": " << host.nproc << ", \"cpu_model\": ";
  write_string(os, host.cpu_model);
  os << ", \"compiler\": ";
  write_string(os, host.compiler);
  os << ", \"build_type\": ";
  write_string(os, host.build_type);
  os << '}';
  return os.str();
}

std::optional<HostFingerprint> host_from_json(const JsonValue& doc) {
  const JsonValue* h = doc.find("host");
  if (h == nullptr || !h->is_object()) return std::nullopt;
  HostFingerprint out;
  out.nproc = static_cast<int>(h->number_or("nproc", 0.0));
  out.cpu_model = h->string_or("cpu_model", "");
  out.compiler = h->string_or("compiler", "");
  out.build_type = h->string_or("build_type", "");
  return out;
}

std::string host_mismatch_line(const std::optional<HostFingerprint>& baseline,
                               const std::optional<HostFingerprint>& fresh) {
  if (baseline && fresh && *baseline == *fresh) return "";
  return "host differs: baseline {" + describe_host(baseline) + "} vs new {" +
         describe_host(fresh) + "}";
}

}  // namespace helios::util
