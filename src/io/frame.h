#pragma once

// Wire framing for DataTuples: the binary format used by the TCP transport
// (stream/net.h) and the binary replay files.  Little-endian, self-
// delimiting, version 2 (DESIGN.md "Transport"):
//
//   u32 magic 'ASTF' | u8 version | u8 type | u16 reserved
//   | u32 payload_bytes | u64 seq | u32 crc32c
//
// followed by `payload_bytes` payload bytes.  For kTuple frames the payload
// is the tuple body:
//
//   u64 tuple_seq | i64 timestamp_us | u32 dim | u32 mask_bytes
//   | dim f64 values | mask bitset (LSB first)
//
// `seq` in the header is the *transport* sequence number (the retransmit /
// ack key of the session protocol; equal to the tuple's own seq for replay
// files); control frames (kAck, kHello, kHelloAck, kBye) carry their
// cumulative-ack / resume value there and have an empty payload.  The
// crc32c field covers the whole header (with the crc field itself zeroed)
// plus the payload, so any bit flip on the wire — header or body — is
// detected and the frame rejected with typed accounting instead of
// poisoning the stream.

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "stream/tuple.h"

namespace astro::io {

/// Current wire format version (the v1 format had no version byte, no CRC
/// and no transport seq; both ends of a link are always the same build, so
/// v1 frames are simply rejected).
inline constexpr std::uint8_t kFrameVersion = 2;

/// Bytes of the fixed header (magic + version/type + length + seq + crc).
inline constexpr std::size_t kFrameHeaderBytes = 24;

/// Fixed prefix of a kTuple payload: u64 tuple seq | i64 timestamp |
/// u32 dim | u32 mask_bytes (the values and mask bits follow).
inline constexpr std::size_t kTuplePayloadFixed = 8 + 8 + 4 + 4;

/// Upper bound a decoder accepts for payload_bytes — anything larger is a
/// corrupt or hostile length field, rejected before any allocation.
inline constexpr std::size_t kMaxFramePayload = std::size_t(1) << 26;

enum class FrameType : std::uint8_t {
  kTuple = 0,     ///< data frame: payload is a tuple body
  kAck = 1,       ///< receiver -> sender: cumulative ack, seq = highest applied
  kHello = 2,     ///< sender -> receiver: session open/resume request
  kHelloAck = 3,  ///< receiver -> sender: resume point, seq = last applied
  kBye = 4,       ///< sender -> receiver: clean end of stream
};

/// Decoded fixed header.
struct FrameHeader {
  std::uint8_t version = 0;
  FrameType type = FrameType::kTuple;
  std::uint32_t payload_bytes = 0;
  std::uint64_t seq = 0;
  std::uint32_t crc = 0;
};

/// Serializes one frame: header (with computed CRC) + payload.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(
    FrameType type, std::uint64_t seq, std::span<const std::uint8_t> payload);

/// Control frame (empty payload): kAck / kHello / kHelloAck / kBye.
[[nodiscard]] std::vector<std::uint8_t> encode_control_frame(FrameType type,
                                                             std::uint64_t seq);

/// The same control frame by value: a control frame is a bare header, so
/// acks and handshakes cost no allocation.
using ControlFrame = std::array<std::uint8_t, kFrameHeaderBytes>;
[[nodiscard]] ControlFrame control_frame(FrameType type, std::uint64_t seq);

/// Serializes a tuple into a kTuple frame whose header carries
/// `transport_seq` (the session protocol's retransmit key).
[[nodiscard]] std::vector<std::uint8_t> encode_tuple(
    const stream::DataTuple& t, std::uint64_t transport_seq);

/// Convenience for replay files: transport seq = the tuple's own seq.
[[nodiscard]] inline std::vector<std::uint8_t> encode_tuple(
    const stream::DataTuple& t) {
  return encode_tuple(t, t.seq);
}

/// Exact frame size (header + payload) encode_tuple would produce for `t`.
[[nodiscard]] std::size_t encoded_tuple_bytes(const stream::DataTuple& t);

/// Zero-allocation encode: serializes the kTuple frame for `t` directly
/// into caller-owned storage (e.g. a shared-memory ring slot).  Returns the
/// bytes written, or 0 when `dst` is smaller than encoded_tuple_bytes(t).
std::size_t encode_tuple_into(std::span<std::uint8_t> dst,
                              const stream::DataTuple& t,
                              std::uint64_t transport_seq);

/// Parses and sanity-checks the fixed header; returns nullopt when the
/// magic, version, or type is wrong or payload_bytes exceeds
/// kMaxFramePayload.  A nullopt here means the byte stream is desynced or
/// damaged in the length-critical prefix — the caller cannot trust any
/// subsequent framing.  `header` must hold exactly kFrameHeaderBytes.
[[nodiscard]] std::optional<FrameHeader> decode_frame_header(
    std::span<const std::uint8_t> header);

/// Recomputes the CRC32C over header (crc field zeroed) + payload and
/// compares with the header's crc field.  `header` must hold exactly
/// kFrameHeaderBytes.
[[nodiscard]] bool verify_frame_crc(std::span<const std::uint8_t> header,
                                    std::span<const std::uint8_t> payload);

/// Decodes a kTuple payload (everything after the header).  Returns
/// nullopt on malformed input (inconsistent sizes).
[[nodiscard]] std::optional<stream::DataTuple> decode_tuple_payload(
    std::span<const std::uint8_t> payload);

/// Zero-allocation decode: fills a recycled tuple in place (values resized
/// without shrinking, mask reused), so an arena-leased payload survives the
/// transport hop.  Returns false on malformed input, leaving `t` in an
/// unspecified but destructible state.
[[nodiscard]] bool decode_tuple_payload_into(
    std::span<const std::uint8_t> payload, stream::DataTuple& t);

/// Full round trip over one frame (header + payload): header decode, CRC
/// verification, payload decode.  Rejects non-kTuple frames.
[[nodiscard]] std::optional<stream::DataTuple> decode_tuple(
    std::span<const std::uint8_t> frame);

}  // namespace astro::io
