// The recording-host fingerprint stamped into BENCH_*.json and the one-line
// "host differs" note bench_compare prints when two snapshots disagree.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "util/host.h"
#include "util/json.h"

namespace helios::util {
namespace {

HostFingerprint sample_host() {
  HostFingerprint h;
  h.nproc = 4;
  h.cpu_model = "Example CPU @ 2.00GHz";
  h.compiler = "gcc 13.2.0";
  h.build_type = "Release";
  return h;
}

TEST(Host, JsonRoundTripsThroughTheBenchDocument) {
  HostFingerprint h = sample_host();
  h.cpu_model = "quote \" and backslash \\";
  const JsonValue doc =
      JsonValue::parse("{\"schema\": 1, \"host\": " + host_json(h) + "}");
  const std::optional<HostFingerprint> back = host_from_json(doc);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, h);
}

TEST(Host, ThisHostIsFilledIn) {
  const HostFingerprint h = this_host();
  EXPECT_GE(h.nproc, 0);
  EXPECT_FALSE(h.cpu_model.empty());
  EXPECT_FALSE(h.compiler.empty());
  EXPECT_EQ(host_from_json(JsonValue::parse("{\"host\": " + host_json(h) +
                                            "}")),
            h);
}

TEST(Host, MatchingHostsPrintNothing) {
  EXPECT_EQ(host_mismatch_line(sample_host(), sample_host()), "");
}

TEST(Host, MismatchLineNamesBothFingerprints) {
  HostFingerprint other = sample_host();
  other.nproc = 1;
  other.build_type = "RelWithDebInfo";
  EXPECT_EQ(host_mismatch_line(sample_host(), other),
            "host differs: baseline {nproc=4 cpu=\"Example CPU @ 2.00GHz\" "
            "compiler=\"gcc 13.2.0\" build=Release} vs new {nproc=1 "
            "cpu=\"Example CPU @ 2.00GHz\" compiler=\"gcc 13.2.0\" "
            "build=RelWithDebInfo}");
  // Any one field is enough.
  for (int field = 0; field < 4; ++field) {
    HostFingerprint h = sample_host();
    if (field == 0) h.nproc = 8;
    if (field == 1) h.cpu_model = "Other CPU";
    if (field == 2) h.compiler = "clang 17.0.6";
    if (field == 3) h.build_type = "Debug";
    EXPECT_NE(host_mismatch_line(sample_host(), h), "") << "field " << field;
  }
}

TEST(Host, UnrecordedHostNeverMatches) {
  const JsonValue legacy = JsonValue::parse("{\"schema\": 1, \"cases\": []}");
  EXPECT_FALSE(host_from_json(legacy).has_value());
  EXPECT_EQ(host_mismatch_line(std::nullopt, sample_host()),
            "host differs: baseline {(not recorded)} vs new {nproc=4 "
            "cpu=\"Example CPU @ 2.00GHz\" compiler=\"gcc 13.2.0\" "
            "build=Release}");
  EXPECT_NE(host_mismatch_line(std::nullopt, std::nullopt), "");
}

}  // namespace
}  // namespace helios::util
