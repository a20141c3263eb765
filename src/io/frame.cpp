#include "io/frame.h"

#include "io/crc32c.h"
#include "io/wire.h"

namespace astro::io {

namespace {

constexpr std::uint32_t kMagic = 0x41535446;  // "ASTF"
constexpr std::size_t kCrcOffset = 20;        // crc field within the header

// Append helpers: one per wire type, all little-endian regardless of host
// byte order (io/wire.h).
void append_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}
void append_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  std::uint8_t b[2];
  store_le16(b, v);
  out.insert(out.end(), b, b + 2);
}
void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  std::uint8_t b[4];
  store_le32(b, v);
  out.insert(out.end(), b, b + 4);
}
void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  std::uint8_t b[8];
  store_le64(b, v);
  out.insert(out.end(), b, b + 8);
}

// Checked little-endian reads that consume from the span.
[[nodiscard]] bool read_u32(std::span<const std::uint8_t>& in,
                            std::uint32_t* v) {
  if (in.size() < 4) return false;
  *v = load_le32(in.data());
  in = in.subspan(4);
  return true;
}
[[nodiscard]] bool read_u64(std::span<const std::uint8_t>& in,
                            std::uint64_t* v) {
  if (in.size() < 8) return false;
  *v = load_le64(in.data());
  in = in.subspan(8);
  return true;
}
[[nodiscard]] bool read_f64(std::span<const std::uint8_t>& in, double* v) {
  if (in.size() < 8) return false;
  *v = load_le_f64(in.data());
  in = in.subspan(8);
  return true;
}

bool known_type(std::uint8_t t) noexcept {
  return t <= std::uint8_t(FrameType::kBye);
}

[[nodiscard]] std::uint32_t tuple_mask_bytes(
    const stream::DataTuple& t) noexcept {
  return t.mask.empty() ? 0 : std::uint32_t((t.mask.size() + 7) / 8);
}

// CRC over header-with-zeroed-crc-field + payload.
std::uint32_t frame_crc(const std::uint8_t* header,
                        std::span<const std::uint8_t> payload) noexcept {
  std::uint32_t state = crc32c_init();
  state = crc32c_update(state, header, kCrcOffset);
  const std::uint8_t zeros[4] = {0, 0, 0, 0};
  state = crc32c_update(state, zeros, 4);
  state = crc32c_update(state, payload.data(), payload.size());
  return crc32c_finish(state);
}

// Header into a raw buffer (dst holds >= kFrameHeaderBytes); the crc field
// is written as zero and patched after the payload is in place.
void write_header(std::uint8_t* dst, FrameType type,
                  std::uint32_t payload_bytes, std::uint64_t seq) noexcept {
  store_le32(dst, kMagic);
  dst[4] = kFrameVersion;
  dst[5] = std::uint8_t(type);
  store_le16(dst + 6, 0);  // reserved
  store_le32(dst + 8, payload_bytes);
  store_le64(dst + 12, seq);
  store_le32(dst + kCrcOffset, 0);  // crc placeholder
}

void append_tuple_payload(std::vector<std::uint8_t>& out,
                          const stream::DataTuple& t) {
  const std::uint32_t dim = std::uint32_t(t.values.size());
  const std::uint32_t mask_bytes = tuple_mask_bytes(t);
  append_u64(out, std::uint64_t(t.seq));
  append_u64(out, std::uint64_t(t.timestamp_us));
  append_u32(out, dim);
  append_u32(out, mask_bytes);
  std::uint8_t b[8];
  for (double v : t.values) {
    store_le_f64(b, v);
    out.insert(out.end(), b, b + 8);
  }
  for (std::uint32_t byte = 0; byte < mask_bytes; ++byte) {
    std::uint8_t bits = 0;
    for (std::uint32_t k = 0; k < 8; ++k) {
      const std::size_t i = std::size_t(byte) * 8 + k;
      if (i < t.mask.size() && t.mask[i]) bits |= std::uint8_t(1u << k);
    }
    out.push_back(bits);
  }
}

std::vector<std::uint8_t> encode_with_payload_inline(
    FrameType type, std::uint64_t seq,
    const stream::DataTuple* tuple,
    std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> out;
  std::uint32_t payload_bytes;
  if (tuple != nullptr) {
    payload_bytes = std::uint32_t(
        kTuplePayloadFixed + tuple->values.size() * sizeof(double) +
        tuple_mask_bytes(*tuple));
  } else {
    payload_bytes = std::uint32_t(payload.size());
  }
  out.reserve(kFrameHeaderBytes + payload_bytes);
  append_u32(out, kMagic);
  append_u8(out, kFrameVersion);
  append_u8(out, std::uint8_t(type));
  append_u16(out, 0);  // reserved
  append_u32(out, payload_bytes);
  append_u64(out, seq);
  append_u32(out, 0);  // crc placeholder
  if (tuple != nullptr) {
    append_tuple_payload(out, *tuple);
  } else {
    out.insert(out.end(), payload.begin(), payload.end());
  }
  const std::uint32_t crc = frame_crc(
      out.data(), std::span<const std::uint8_t>(out).subspan(kFrameHeaderBytes));
  store_le32(out.data() + kCrcOffset, crc);
  return out;
}

}  // namespace

std::vector<std::uint8_t> encode_frame(FrameType type, std::uint64_t seq,
                                       std::span<const std::uint8_t> payload) {
  return encode_with_payload_inline(type, seq, nullptr, payload);
}

std::vector<std::uint8_t> encode_control_frame(FrameType type,
                                               std::uint64_t seq) {
  const ControlFrame frame = control_frame(type, seq);
  return {frame.begin(), frame.end()};
}

ControlFrame control_frame(FrameType type, std::uint64_t seq) {
  ControlFrame frame;
  write_header(frame.data(), type, 0, seq);
  store_le32(frame.data() + kCrcOffset, frame_crc(frame.data(), {}));
  return frame;
}

std::vector<std::uint8_t> encode_tuple(const stream::DataTuple& t,
                                       std::uint64_t transport_seq) {
  return encode_with_payload_inline(FrameType::kTuple, transport_seq, &t, {});
}

std::size_t encoded_tuple_bytes(const stream::DataTuple& t) {
  return kFrameHeaderBytes + kTuplePayloadFixed +
         t.values.size() * sizeof(double) + tuple_mask_bytes(t);
}

std::size_t encode_tuple_into(std::span<std::uint8_t> dst,
                              const stream::DataTuple& t,
                              std::uint64_t transport_seq) {
  const std::size_t total = encoded_tuple_bytes(t);
  if (dst.size() < total) return 0;
  const std::uint32_t dim = std::uint32_t(t.values.size());
  const std::uint32_t mask_bytes = tuple_mask_bytes(t);
  std::uint8_t* p = dst.data();
  write_header(p, FrameType::kTuple,
               std::uint32_t(total - kFrameHeaderBytes), transport_seq);
  p += kFrameHeaderBytes;
  store_le64(p, std::uint64_t(t.seq));
  store_le64(p + 8, std::uint64_t(t.timestamp_us));
  store_le32(p + 16, dim);
  store_le32(p + 20, mask_bytes);
  p += kTuplePayloadFixed;
  for (std::uint32_t i = 0; i < dim; ++i) {
    store_le_f64(p + std::size_t(i) * 8, t.values[i]);
  }
  p += std::size_t(dim) * 8;
  for (std::uint32_t byte = 0; byte < mask_bytes; ++byte) {
    std::uint8_t bits = 0;
    for (std::uint32_t k = 0; k < 8; ++k) {
      const std::size_t i = std::size_t(byte) * 8 + k;
      if (i < t.mask.size() && t.mask[i]) bits |= std::uint8_t(1u << k);
    }
    p[byte] = bits;
  }
  const std::uint32_t crc = frame_crc(
      dst.data(), dst.subspan(kFrameHeaderBytes, total - kFrameHeaderBytes));
  store_le32(dst.data() + kCrcOffset, crc);
  return total;
}

std::optional<FrameHeader> decode_frame_header(
    std::span<const std::uint8_t> header) {
  if (header.size() != kFrameHeaderBytes) return std::nullopt;
  if (load_le32(header.data()) != kMagic) return std::nullopt;
  FrameHeader h;
  h.version = header[4];
  if (h.version != kFrameVersion) return std::nullopt;
  if (!known_type(header[5])) return std::nullopt;
  h.type = FrameType(header[5]);
  h.payload_bytes = load_le32(header.data() + 8);
  if (std::size_t(h.payload_bytes) > kMaxFramePayload) return std::nullopt;
  h.seq = load_le64(header.data() + 12);
  h.crc = load_le32(header.data() + kCrcOffset);
  return h;
}

bool verify_frame_crc(std::span<const std::uint8_t> header,
                      std::span<const std::uint8_t> payload) {
  if (header.size() != kFrameHeaderBytes) return false;
  const std::uint32_t stored = load_le32(header.data() + kCrcOffset);
  return frame_crc(header.data(), payload) == stored;
}

bool decode_tuple_payload_into(std::span<const std::uint8_t> payload,
                               stream::DataTuple& t) {
  std::uint64_t seq = 0, ts = 0;
  std::uint32_t dim = 0, mask_bytes = 0;
  if (!read_u64(payload, &seq) || !read_u64(payload, &ts) ||
      !read_u32(payload, &dim) || !read_u32(payload, &mask_bytes)) {
    return false;
  }
  if (dim > kMaxFramePayload / sizeof(double)) return false;
  if (payload.size() != std::size_t(dim) * sizeof(double) + mask_bytes) {
    return false;
  }
  t.seq = seq;
  t.timestamp_us = std::int64_t(ts);
  t.values.resize_no_shrink(dim);
  // Every read checked: the size equation above makes a short buffer
  // impossible today, but a future format change must fail loudly here
  // instead of decoding garbage doubles.
  for (std::uint32_t i = 0; i < dim; ++i) {
    double v = 0;
    if (!read_f64(payload, &v)) return false;
    t.values[i] = v;
  }
  if (mask_bytes > 0) {
    if (mask_bytes < (dim + 7) / 8) return false;
    t.mask.assign(dim, false);
    for (std::uint32_t i = 0; i < dim; ++i) {
      t.mask[i] = (payload[i / 8] >> (i % 8)) & 1u;
    }
  } else {
    t.mask.clear();
  }
  return true;
}

std::optional<stream::DataTuple> decode_tuple_payload(
    std::span<const std::uint8_t> payload) {
  stream::DataTuple t;
  if (!decode_tuple_payload_into(payload, t)) return std::nullopt;
  return t;
}

std::optional<stream::DataTuple> decode_tuple(
    std::span<const std::uint8_t> frame) {
  if (frame.size() < kFrameHeaderBytes) return std::nullopt;
  const auto header = decode_frame_header(frame.first(kFrameHeaderBytes));
  if (!header.has_value()) return std::nullopt;
  if (header->type != FrameType::kTuple) return std::nullopt;
  if (frame.size() != kFrameHeaderBytes + header->payload_bytes) {
    return std::nullopt;
  }
  const auto payload = frame.subspan(kFrameHeaderBytes);
  if (!verify_frame_crc(frame.first(kFrameHeaderBytes), payload)) {
    return std::nullopt;
  }
  return decode_tuple_payload(payload);
}

}  // namespace astro::io
