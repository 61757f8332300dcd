#include "net/wire.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <limits>

namespace helios::net {
namespace {

// ---- CRC32 (IEEE 802.3, reflected) ----------------------------------------

// Slicing-by-8 tables for the reflected IEEE polynomial: kCrcTables[0] is
// the classic byte-at-a-time table, and kCrcTables[k][b] is the CRC of byte
// b followed by k zero bytes, so eight table lookups advance eight bytes.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = t[k - 1][i];
      t[k][i] = (prev >> 8) ^ t[0][prev & 0xFFU];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

// ---- Little-endian byte IO -------------------------------------------------

class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(out) {}

  void u16(std::uint16_t v) {
    out_.push_back(static_cast<std::uint8_t>(v));
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void f32(float v) { u32(std::bit_cast<std::uint32_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

 private:
  std::vector<std::uint8_t>& out_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint16_t u16() {
    require(2);
    const std::uint16_t v = static_cast<std::uint16_t>(
        bytes_[pos_] | (static_cast<std::uint16_t>(bytes_[pos_ + 1]) << 8));
    pos_ += 2;
    return v;
  }
  std::uint32_t u32() {
    require(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(bytes_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }
  std::uint64_t u64() {
    require(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(bytes_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }
  float f32() { return std::bit_cast<float>(u32()); }
  double f64() { return std::bit_cast<double>(u64()); }
  std::span<const std::uint8_t> raw(std::size_t n) {
    require(n);
    auto s = bytes_.subspan(pos_, n);
    pos_ += n;
    return s;
  }
  std::size_t pos() const { return pos_; }

 private:
  void require(std::size_t n) const {
    if (pos_ + n > bytes_.size()) throw WireError("wire: truncated frame");
  }
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

/// True when flat index `f` ships in a dense frame under `mask`.
inline bool shipped(const WireLayout& layout,
                    std::span<const std::uint8_t> mask, std::size_t f) {
  const std::uint32_t n = layout.neuron_of[f];
  return mask.empty() || n == WireLayout::kCommonParam || mask[n] != 0;
}

void write_header(Writer& w, std::uint16_t version, std::uint16_t flags,
                  std::int32_t client_id, std::uint32_t neuron_total,
                  std::uint64_t param_count, std::uint64_t buffer_count,
                  std::uint64_t payload_count, std::uint64_t sample_count,
                  double mean_loss) {
  w.u32(kWireMagic);
  w.u16(version);
  w.u16(flags);
  w.u32(std::bit_cast<std::uint32_t>(client_id));
  w.u32(neuron_total);
  w.u64(param_count);
  w.u64(buffer_count);
  w.u64(payload_count);
  w.u64(sample_count);
  w.f64(mean_loss);
}

void append_packed_mask(std::vector<std::uint8_t>& out,
                        std::span<const std::uint8_t> mask) {
  const std::size_t bytes = mask_wire_bytes(static_cast<int>(mask.size()));
  for (std::size_t b = 0; b < bytes; ++b) {
    std::uint8_t packed = 0;
    for (std::size_t bit = 0; bit < 8; ++bit) {
      const std::size_t i = b * 8 + bit;
      if (i < mask.size() && mask[i] != 0) {
        packed |= static_cast<std::uint8_t>(1U << bit);
      }
    }
    out.push_back(packed);
  }
}

void check_message(const WireMessage& msg, const WireLayout& layout) {
  if (msg.params.size() != layout.param_count) {
    throw WireError("wire: message param count does not match layout");
  }
  if (msg.buffers.size() != layout.buffer_count) {
    throw WireError("wire: message buffer count does not match layout");
  }
  if (!msg.neuron_mask.empty() &&
      msg.neuron_mask.size() != static_cast<std::size_t>(layout.neuron_total)) {
    throw WireError("wire: message mask size does not match layout");
  }
}

// ---- v2 quantized payloads -------------------------------------------------

/// Sorted unique scale-group keys; a key's dense group id is its index
/// here. Keys are owning-neuron ids with WireLayout::kCommonParam (the max
/// u32) for common parameters, so ascending order puts the common group
/// last — deterministically on both sides.
std::vector<std::uint32_t> unique_keys(std::vector<std::uint32_t> keys) {
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

/// Group tagging of a shipped-index list for `info`'s scale layout: one
/// group per distinct key (per-neuron codecs) or a single group 0.
struct GroupTags {
  std::vector<std::uint32_t> keys;    // per dense group id
  std::vector<std::uint32_t> groups;  // per value
};

GroupTags derive_groups(const WireLayout& layout,
                        std::span<const std::uint32_t> ship,
                        const codec::CodecInfo& info) {
  GroupTags t;
  if (!info.scaled) return t;
  if (!info.per_neuron_groups) {
    if (!ship.empty()) t.keys.assign(1, 0U);
    t.groups.assign(ship.size(), 0U);
    return t;
  }
  std::vector<std::uint32_t> raw;
  raw.reserve(ship.size());
  for (std::uint32_t f : ship) raw.push_back(layout.neuron_of[f]);
  t.keys = unique_keys(raw);
  t.groups.reserve(raw.size());
  for (std::uint32_t k : raw) {
    t.groups.push_back(static_cast<std::uint32_t>(
        std::lower_bound(t.keys.begin(), t.keys.end(), k) - t.keys.begin()));
  }
  return t;
}

/// The value stream a quantized frame carries: every shipped flat index in
/// ascending order with its delta (or absolute value, without a base).
struct QuantStream {
  std::vector<std::uint32_t> ship;
  std::vector<float> values;
  GroupTags tags;
  bool delta = false;
};

QuantStream build_quant_stream(const WireMessage& msg,
                               std::span<const float> base,
                               const WireLayout& layout,
                               const codec::CodecInfo& info) {
  QuantStream s;
  s.delta = base.size() == layout.param_count;
  for (std::size_t f = 0; f < layout.param_count; ++f) {
    if (!shipped(layout, msg.neuron_mask, f)) continue;
    s.ship.push_back(static_cast<std::uint32_t>(f));
    s.values.push_back(s.delta ? msg.params[f] - base[f] : msg.params[f]);
  }
  s.tags = derive_groups(layout, s.ship, info);
  return s;
}

std::size_t quant_frame_overhead(const WireLayout& layout, bool has_mask,
                                 std::size_t scale_count) {
  return kHeaderBytesV2 + mask_wire_bytes(has_mask ? layout.neuron_total : 0) +
         2 * scale_count + layout.buffer_count * sizeof(float) + kTrailerBytes;
}

std::vector<std::uint8_t> encode_frame_quant(const WireMessage& msg,
                                             std::span<const float> base,
                                             const WireLayout& layout,
                                             codec::CodecId id,
                                             CodecResult* result) {
  const codec::CodecInfo& info = codec::codec_info(id);
  const QuantStream s = build_quant_stream(msg, base, layout, info);
  const codec::QuantPlan plan = codec::plan_quantization(
      id, s.values, s.tags.groups, s.tags.keys.size());
  const std::vector<float> dq =
      codec::dequantized_values(plan, s.values, s.tags.groups);

  const bool has_mask = !msg.neuron_mask.empty();
  const std::size_t dense_payload =
      codec::payload_bytes(plan, s.values, s.tags.groups);
  const std::size_t dense_total =
      quant_frame_overhead(layout, has_mask, plan.scale_bits.size()) +
      dense_payload;

  // Sparse candidate (needs the base): only entries whose quantized value
  // is non-zero ship; dropped entries decode to the base exactly like the
  // dense frame's zero deltas, so both encodings reconstruct identically.
  // The scales stay the full stream's — they are what quantized the values.
  std::vector<std::uint32_t> kept_ship;
  std::vector<float> kept_values;
  codec::QuantPlan kept_plan;
  GroupTags kept_tags;
  std::size_t sparse_total = std::numeric_limits<std::size_t>::max();
  if (s.delta) {
    std::vector<std::size_t> kept;
    for (std::size_t i = 0; i < dq.size(); ++i) {
      if (dq[i] != 0.0f) kept.push_back(i);
    }
    kept_ship.reserve(kept.size());
    kept_values.reserve(kept.size());
    for (std::size_t i : kept) {
      kept_ship.push_back(s.ship[i]);
      kept_values.push_back(s.values[i]);
    }
    kept_tags = derive_groups(layout, kept_ship, info);
    kept_plan.id = id;
    if (info.scaled) {
      kept_plan.scale_bits.reserve(kept_tags.keys.size());
      for (std::uint32_t k : kept_tags.keys) {
        const auto at = static_cast<std::size_t>(
            std::lower_bound(s.tags.keys.begin(), s.tags.keys.end(), k) -
            s.tags.keys.begin());
        kept_plan.scale_bits.push_back(plan.scale_bits[at]);
      }
    }
    const std::size_t sparse_payload =
        codec::payload_bytes(kept_plan, kept_values, kept_tags.groups);
    sparse_total =
        quant_frame_overhead(layout, has_mask, kept_plan.scale_bits.size()) +
        kept_ship.size() * sizeof(std::uint32_t) + sparse_payload;
  }

  const bool use_sparse = sparse_total < dense_total;
  std::vector<std::uint8_t> out;
  out.reserve(use_sparse ? sparse_total : dense_total);
  Writer w(out);
  std::uint16_t flags = has_mask ? kFlagHasMask : 0;
  if (s.delta) flags |= kFlagDelta;
  if (use_sparse) flags |= kFlagSparse;
  const std::span<const float> values =
      use_sparse ? std::span<const float>(kept_values)
                 : std::span<const float>(s.values);
  const GroupTags& tags = use_sparse ? kept_tags : s.tags;
  const codec::QuantPlan& wire_plan = use_sparse ? kept_plan : plan;
  write_header(w, kWireVersionQuant, flags, msg.client_id,
               has_mask ? static_cast<std::uint32_t>(layout.neuron_total) : 0,
               layout.param_count, layout.buffer_count, values.size(),
               msg.sample_count, msg.mean_loss);
  w.u32(static_cast<std::uint32_t>(id));
  w.u32(static_cast<std::uint32_t>(
      codec::payload_bytes(wire_plan, values, tags.groups)));
  if (has_mask) append_packed_mask(out, msg.neuron_mask);
  if (use_sparse) {
    for (std::uint32_t f : kept_ship) w.u32(f);
  }
  for (std::uint16_t bits : wire_plan.scale_bits) w.u16(bits);
  codec::encode_values(wire_plan, values, tags.groups, out);
  for (float v : msg.buffers) w.f32(v);
  w.u32(crc32(out));

  if (result != nullptr) {
    result->codec = id;
    result->sparse = use_sparse;
    if (s.delta) {
      result->dequantized.assign(base.begin(), base.end());
    } else {
      // Without a base the encoder cannot know what the decoder fills
      // unshipped entries with; shipped entries are still exact.
      result->dequantized.assign(layout.param_count, 0.0f);
    }
    for (std::size_t i = 0; i < s.ship.size(); ++i) {
      const std::uint32_t f = s.ship[i];
      result->dequantized[f] =
          s.delta ? base[f] + dq[i] : dq[i];
    }
  }
  return out;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes) {
  const CrcTables& t = kCrcTables;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  std::uint32_t c = 0xFFFFFFFFU;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = c ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xFFU] ^ t[6][(lo >> 8) & 0xFFU] ^
        t[5][(lo >> 16) & 0xFFU] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFU] ^
        t[2][(hi >> 8) & 0xFFU] ^ t[1][(hi >> 16) & 0xFFU] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ *p) & 0xFFU] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFU;
}

WireLayout make_wire_layout(nn::Model& model) {
  WireLayout layout;
  layout.param_count = model.param_count();
  layout.buffer_count = model.buffer_count();
  layout.neuron_total = model.neuron_total();
  layout.neuron_of.assign(layout.param_count, WireLayout::kCommonParam);
  const auto& neurons = model.neurons();
  for (std::size_t j = 0; j < neurons.size(); ++j) {
    for (const nn::FlatSlice& s : neurons[j].slices) {
      std::fill_n(layout.neuron_of.begin() +
                      static_cast<std::ptrdiff_t>(s.offset),
                  s.length, static_cast<std::uint32_t>(j));
    }
  }
  return layout;
}

std::size_t mask_wire_bytes(int neuron_total) {
  return neuron_total <= 0
             ? 0
             : (static_cast<std::size_t>(neuron_total) + 7) / 8;
}

std::size_t dense_payload_count(const WireLayout& layout,
                                std::span<const std::uint8_t> mask) {
  if (mask.empty()) return layout.param_count;
  std::size_t count = 0;
  for (std::size_t f = 0; f < layout.param_count; ++f) {
    count += shipped(layout, mask, f);
  }
  return count;
}

std::size_t dense_frame_bytes(const WireLayout& layout,
                              std::span<const std::uint8_t> mask) {
  return kHeaderBytes +
         mask_wire_bytes(static_cast<int>(mask.size())) +
         dense_payload_count(layout, mask) * sizeof(float) +
         layout.buffer_count * sizeof(float) + kTrailerBytes;
}

std::size_t sparse_frame_bytes(std::size_t entries, std::size_t buffer_count,
                               int masked_neuron_total) {
  return kHeaderBytes + mask_wire_bytes(masked_neuron_total) +
         entries * (sizeof(std::uint32_t) + sizeof(float)) +
         buffer_count * sizeof(float) + kTrailerBytes;
}

std::size_t sparse_frame_bytes(std::size_t entries, std::size_t buffer_count,
                               int masked_neuron_total, codec::CodecId codec,
                               std::size_t scale_count) {
  if (codec == codec::CodecId::kFp32) {
    return sparse_frame_bytes(entries, buffer_count, masked_neuron_total);
  }
  const codec::CodecInfo& info = codec::codec_info(codec);
  // Zero-run coding never expands, so the unpacked width is the sparse
  // payload's exact size (sparse entries are non-zero by construction).
  const std::size_t payload = (entries * info.value_bits + 7) / 8;
  return kHeaderBytesV2 + mask_wire_bytes(masked_neuron_total) +
         entries * sizeof(std::uint32_t) +
         (info.scaled ? 2 * scale_count : 0) + payload +
         buffer_count * sizeof(float) + kTrailerBytes;
}

std::vector<std::uint8_t> encode_frame(const WireMessage& msg,
                                       const WireLayout& layout) {
  check_message(msg, layout);
  std::vector<std::uint8_t> out;
  out.reserve(dense_frame_bytes(layout, msg.neuron_mask));
  Writer w(out);
  const bool has_mask = !msg.neuron_mask.empty();
  const std::size_t payload = dense_payload_count(layout, msg.neuron_mask);
  write_header(w, kWireVersion, has_mask ? kFlagHasMask : 0, msg.client_id,
               has_mask ? static_cast<std::uint32_t>(layout.neuron_total) : 0,
               layout.param_count, layout.buffer_count, payload,
               msg.sample_count, msg.mean_loss);
  if (has_mask) append_packed_mask(out, msg.neuron_mask);
  for (std::size_t f = 0; f < layout.param_count; ++f) {
    if (shipped(layout, msg.neuron_mask, f)) w.f32(msg.params[f]);
  }
  for (float v : msg.buffers) w.f32(v);
  w.u32(crc32(out));
  return out;
}

std::vector<std::uint8_t> encode_frame_sparse(const WireMessage& msg,
                                              std::span<const float> base,
                                              const WireLayout& layout) {
  check_message(msg, layout);
  if (base.size() != layout.param_count) {
    throw WireError("wire: sparse base does not match layout");
  }
  std::vector<std::uint32_t> changed;
  for (std::size_t f = 0; f < layout.param_count; ++f) {
    if (msg.params[f] != base[f]) {
      changed.push_back(static_cast<std::uint32_t>(f));
    }
  }
  std::vector<std::uint8_t> out;
  const bool has_mask = !msg.neuron_mask.empty();
  out.reserve(sparse_frame_bytes(changed.size(), layout.buffer_count,
                                 has_mask ? layout.neuron_total : 0));
  Writer w(out);
  write_header(w, kWireVersion,
               static_cast<std::uint16_t>(
                   kFlagSparse | (has_mask ? kFlagHasMask : 0)),
               msg.client_id,
               has_mask ? static_cast<std::uint32_t>(layout.neuron_total) : 0,
               layout.param_count, layout.buffer_count, changed.size(),
               msg.sample_count, msg.mean_loss);
  if (has_mask) append_packed_mask(out, msg.neuron_mask);
  for (std::uint32_t f : changed) {
    w.u32(f);
    w.f32(msg.params[f]);
  }
  for (float v : msg.buffers) w.f32(v);
  w.u32(crc32(out));
  return out;
}

std::vector<std::uint8_t> encode_frame_auto(const WireMessage& msg,
                                            std::span<const float> base,
                                            const WireLayout& layout) {
  check_message(msg, layout);
  if (base.size() != layout.param_count) return encode_frame(msg, layout);
  std::size_t changed = 0;
  for (std::size_t f = 0; f < layout.param_count; ++f) {
    changed += (msg.params[f] != base[f]);
  }
  const std::size_t sparse = sparse_frame_bytes(
      changed, layout.buffer_count,
      msg.neuron_mask.empty() ? 0 : layout.neuron_total);
  const std::size_t dense = dense_frame_bytes(layout, msg.neuron_mask);
  return sparse < dense ? encode_frame_sparse(msg, base, layout)
                        : encode_frame(msg, layout);
}

namespace {

void fill_fp32_result(CodecResult* result,
                      std::span<const std::uint8_t> frame) {
  if (result == nullptr) return;
  result->codec = codec::CodecId::kFp32;
  result->sparse = frame.size() > 6 && (frame[6] & kFlagSparse) != 0;
  result->dequantized.clear();
}

constexpr codec::CodecId kQuantCandidates[] = {
    codec::CodecId::kFp16,
    codec::CodecId::kInt8PerTensor,
    codec::CodecId::kInt8PerNeuron,
};

}  // namespace

std::vector<std::uint8_t> encode_frame(const WireMessage& msg,
                                       const WireLayout& layout,
                                       codec::CodecId codec,
                                       CodecResult* result) {
  check_message(msg, layout);
  if (codec == codec::CodecId::kFp32) {
    std::vector<std::uint8_t> out = encode_frame(msg, layout);
    fill_fp32_result(result, out);
    return out;
  }
  if (codec == codec::CodecId::kAuto) {
    std::vector<std::uint8_t> best = encode_frame(msg, layout);
    CodecResult best_result;
    fill_fp32_result(&best_result, best);
    for (codec::CodecId id : kQuantCandidates) {
      CodecResult cand_result;
      std::vector<std::uint8_t> cand =
          encode_frame_quant(msg, {}, layout, id, &cand_result);
      if (cand.size() < best.size()) {
        best = std::move(cand);
        best_result = std::move(cand_result);
      }
    }
    if (result != nullptr) *result = std::move(best_result);
    return best;
  }
  return encode_frame_quant(msg, {}, layout, codec, result);
}

std::vector<std::uint8_t> encode_frame_auto(const WireMessage& msg,
                                            std::span<const float> base,
                                            const WireLayout& layout,
                                            codec::CodecId codec,
                                            CodecResult* result) {
  check_message(msg, layout);
  if (codec == codec::CodecId::kFp32) {
    std::vector<std::uint8_t> out = encode_frame_auto(msg, base, layout);
    fill_fp32_result(result, out);
    return out;
  }
  if (base.size() != layout.param_count) {
    return encode_frame(msg, layout, codec, result);
  }
  if (codec == codec::CodecId::kAuto) {
    std::vector<std::uint8_t> best = encode_frame_auto(msg, base, layout);
    CodecResult best_result;
    fill_fp32_result(&best_result, best);
    for (codec::CodecId id : kQuantCandidates) {
      CodecResult cand_result;
      std::vector<std::uint8_t> cand =
          encode_frame_quant(msg, base, layout, id, &cand_result);
      if (cand.size() < best.size()) {
        best = std::move(cand);
        best_result = std::move(cand_result);
      }
    }
    if (result != nullptr) *result = std::move(best_result);
    return best;
  }
  return encode_frame_quant(msg, base, layout, codec, result);
}

DecodedMessage decode_frame(std::span<const std::uint8_t> frame,
                            const WireLayout& layout,
                            std::span<const float> base_params) {
  if (frame.size() < kHeaderBytes + kTrailerBytes) {
    throw WireError("wire: frame shorter than header + trailer");
  }
  // Integrity first: a flipped bit anywhere (header included) must be
  // rejected before any field is trusted.
  Reader crc_reader(frame.subspan(frame.size() - kTrailerBytes));
  const std::uint32_t stored_crc = crc_reader.u32();
  if (crc32(frame.first(frame.size() - kTrailerBytes)) != stored_crc) {
    throw WireError("wire: CRC mismatch");
  }

  Reader r(frame);
  if (r.u32() != kWireMagic) throw WireError("wire: bad magic");
  const std::uint16_t version = r.u16();
  if (version != kWireVersion && version != kWireVersionQuant) {
    throw WireError("wire: unsupported version " + std::to_string(version));
  }
  const std::uint16_t flags = r.u16();
  DecodedMessage msg;
  msg.client_id = std::bit_cast<std::int32_t>(r.u32());
  const std::uint32_t neuron_total = r.u32();
  const std::uint64_t param_count = r.u64();
  const std::uint64_t buffer_count = r.u64();
  const std::uint64_t payload_count = r.u64();
  msg.sample_count = r.u64();
  msg.mean_loss = r.f64();
  msg.sparse = (flags & kFlagSparse) != 0;
  const bool has_mask = (flags & kFlagHasMask) != 0;
  const bool delta = (flags & kFlagDelta) != 0;

  codec::CodecId payload_codec = codec::CodecId::kFp32;
  std::size_t packed_bytes = 0;
  if (version == kWireVersionQuant) {
    const std::uint32_t codec_raw = r.u32();
    packed_bytes = r.u32();
    if (!codec::codec_known(codec_raw)) {
      throw WireError("wire: unknown payload codec " +
                      std::to_string(codec_raw));
    }
    payload_codec = static_cast<codec::CodecId>(codec_raw);
    if (payload_codec == codec::CodecId::kFp32) {
      // fp32 payloads canonically ship as version-1 frames.
      throw WireError("wire: v2 frame with fp32 codec");
    }
  } else if (delta) {
    throw WireError("wire: v1 frame with delta flag");
  }

  if (param_count != layout.param_count ||
      buffer_count != layout.buffer_count) {
    throw WireError("wire: frame built for a different architecture");
  }
  if (has_mask &&
      neuron_total != static_cast<std::uint32_t>(layout.neuron_total)) {
    throw WireError("wire: frame mask sized for a different architecture");
  }
  if (!has_mask && neuron_total != 0) {
    throw WireError("wire: stray neuron_total without mask flag");
  }

  if (has_mask) {
    const std::span<const std::uint8_t> packed =
        r.raw(mask_wire_bytes(static_cast<int>(neuron_total)));
    msg.neuron_mask.resize(neuron_total);
    for (std::size_t i = 0; i < msg.neuron_mask.size(); ++i) {
      msg.neuron_mask[i] = (packed[i / 8] >> (i % 8)) & 1U;
    }
  }

  const bool needs_base =
      msg.sparse || delta ||
      (has_mask && dense_payload_count(layout, msg.neuron_mask) <
                       layout.param_count);
  if (needs_base && base_params.size() != layout.param_count) {
    throw WireError("wire: partial frame requires the base snapshot");
  }

  if (version == kWireVersionQuant) {
    // Quantized payload: gather the shipped flat indices, re-derive the
    // scale groups exactly as the encoder did, then unpack.
    std::vector<std::uint32_t> ship;
    if (msg.sparse) {
      if (!delta) {
        throw WireError("wire: sparse quantized frame without delta flag");
      }
      ship.reserve(payload_count);
      for (std::uint64_t i = 0; i < payload_count; ++i) {
        const std::uint32_t f = r.u32();
        if (f >= layout.param_count) {
          throw WireError("wire: sparse index out of range");
        }
        if (!ship.empty() && f <= ship.back()) {
          throw WireError("wire: sparse indices not strictly ascending");
        }
        if (!shipped(layout, msg.neuron_mask, f)) {
          throw WireError("wire: sparse index outside the shipped mask");
        }
        ship.push_back(f);
      }
    } else {
      if (payload_count != dense_payload_count(layout, msg.neuron_mask)) {
        throw WireError("wire: dense payload count does not match mask");
      }
      ship.reserve(payload_count);
      for (std::size_t f = 0; f < layout.param_count; ++f) {
        if (shipped(layout, msg.neuron_mask, f)) {
          ship.push_back(static_cast<std::uint32_t>(f));
        }
      }
    }

    const codec::CodecInfo& info = codec::codec_info(payload_codec);
    const GroupTags tags = derive_groups(layout, ship, info);
    codec::QuantPlan plan;
    plan.id = payload_codec;
    plan.scale_bits.reserve(tags.keys.size());
    for (std::size_t g = 0; g < tags.keys.size(); ++g) {
      plan.scale_bits.push_back(r.u16());
    }
    const std::span<const std::uint8_t> payload = r.raw(packed_bytes);
    std::vector<float> values;
    try {
      values = codec::decode_values(plan, payload, tags.groups, ship.size());
    } catch (const codec::CodecError& e) {
      throw WireError(std::string("wire: ") + e.what());
    }

    if (delta || has_mask || msg.sparse) {
      msg.params.assign(base_params.begin(), base_params.end());
    } else {
      msg.params.assign(layout.param_count, 0.0f);
    }
    for (std::size_t i = 0; i < ship.size(); ++i) {
      const std::uint32_t f = ship[i];
      msg.params[f] = delta ? base_params[f] + values[i] : values[i];
    }
  } else if (msg.sparse) {
    msg.params.assign(base_params.begin(), base_params.end());
    for (std::uint64_t i = 0; i < payload_count; ++i) {
      const std::uint32_t f = r.u32();
      const float v = r.f32();
      if (f >= layout.param_count) {
        throw WireError("wire: sparse index out of range");
      }
      msg.params[f] = v;
    }
  } else {
    if (payload_count != dense_payload_count(layout, msg.neuron_mask)) {
      throw WireError("wire: dense payload count does not match mask");
    }
    if (has_mask) {
      msg.params.assign(base_params.begin(), base_params.end());
    } else {
      msg.params.resize(layout.param_count);
    }
    for (std::size_t f = 0; f < layout.param_count; ++f) {
      if (shipped(layout, msg.neuron_mask, f)) msg.params[f] = r.f32();
    }
  }

  msg.buffers.resize(layout.buffer_count);
  for (std::size_t i = 0; i < layout.buffer_count; ++i) {
    msg.buffers[i] = r.f32();
  }
  if (r.pos() != frame.size() - kTrailerBytes) {
    throw WireError("wire: frame length does not match payload counts");
  }
  return msg;
}

}  // namespace helios::net
