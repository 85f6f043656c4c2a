// wbsn-wire — the compact binary serialization that puts a socket (or a
// radio) under the reconstruction fabric.  This implementation speaks one
// version, 8, whose only data path is batched: SUBMIT_BATCH carries K
// windows in, and its SUBMIT_BATCH_ACK carries the results ready by then;
// POLL_MANY/RESULT_BATCH carry up to N results out (a long-poll: a
// threaded shard answers when a result is ready), and SNAPSHOT answers
// the audit, the liveness probe and the CR advisory in one frame.
//
// The normative specification lives in docs/WIRE_FORMAT.md and is written
// to be implementable without reading this file; this header is the
// reference implementation.  The format in one breath:
//
//   frame  := magic(2) version(1) type(1) payload_len(u32 LE)
//             payload(payload_len bytes) crc32c(u32 LE, over everything
//             before it)
//
// Payload integers are unsigned LEB128 varints (patient ids, tickets,
// seeds, counts); floating-point scalars are raw IEEE-754 little-endian
// (bit-preserving, NaNs included); sample vectors travel in one of four
// value codings — FLOAT64 (lossless for anything), FIXED16/FIXED32
// (little-endian fixed-point integers plus one f64 scale, the node's
// native radio format), and WAVELET_RESIDUAL (reconstructed signals only:
// the significant Db4 coefficients plus per-sample exact residuals, both
// Rice-coded in one bitstream).  The
// encoder only ever picks a fixed coding when every value reconstructs
// *bit-exactly* as integer * scale — transport is lossless by
// construction, never a quantizer — and falls back to FLOAT64 otherwise,
// so decode(encode(w)) == w bitwise for arbitrary windows while
// paper-style fixed-point traffic ships at 2 bytes/sample.
// WAVELET_RESIDUAL is exact for any input by construction: the residuals
// carry whatever the coefficients do not.
//
// Zero-copy discipline: encoders append into a caller-owned byte buffer
// (reused across frames — no allocation at steady state once the buffer
// reached its high-water mark) straight from the window's payload vectors;
// decoders write sample data straight from the receive buffer into vectors
// drawn from a host::PayloadPool when one is provided, so a decoded window
// is pool-recycled exactly like a locally produced one.
//
// Version negotiation: a connection starts with HELLO(min,max supported) →
// HELLO_ACK(chosen) before anything else.  Every frame's header byte
// carries kWireVersion; a receiver refuses any other value with
// ERROR(UNSUPPORTED_VERSION) rather than guessing at the payload.  HELLO
// keeps its [min,max] range so a later version can still negotiate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cs/sensing_matrix.hpp"
#include "host/coordinator.hpp"
#include "host/reconstruction_engine.hpp"
#include "host/slo_tracker.hpp"

namespace wbsn::net {

// --- Protocol constants ------------------------------------------------------

inline constexpr std::uint8_t kMagic0 = 0x57;  ///< 'W'
inline constexpr std::uint8_t kMagic1 = 0x42;  ///< 'B'
/// The only protocol version this implementation speaks; every frame's
/// header byte carries it.
inline constexpr std::uint8_t kWireVersion = 8;
inline constexpr std::size_t kFrameHeaderBytes = 8;
inline constexpr std::size_t kFrameTrailerBytes = 4;
/// Frames longer than this are rejected before buffering the payload — a
/// corrupt or hostile length field must not become an allocation.
inline constexpr std::uint32_t kMaxPayloadBytes = 8u << 20;

/// Type numbers 4-9 belonged to the retired per-window verbs (SUBMIT_WINDOW,
/// SUBMIT_ACK, SUBMIT_REJECT, POLL, RESULT, POLL_END) and 24-27 to CR_HINT,
/// CR_HINT_ACK, HEALTH and HEALTH_ACK, which SNAPSHOT absorbed.  They are
/// never reused: a frame carrying one is answered ERROR(UNKNOWN_FRAME_TYPE).
enum class FrameType : std::uint8_t {
  kHello = 1,            ///< client → server: version range offer
  kHelloAck = 2,         ///< server → client: chosen version
  kError = 3,            ///< either direction: code + UTF-8 detail
  kDrainPatient = 10,    ///< client → server: block until patient quiesced
  kDrainDone = 11,       ///< server → client: drain_patient finished
  kExtractSlo = 12,      ///< client → server: take the patient's tracker
  kSloState = 13,        ///< server → client: extracted tracker state
  kAdoptSlo = 14,        ///< client → server: hand tracker state to shard
  kAdoptAck = 15,        ///< server → client: adoption outcome
  kSnapshotRequest = 16, ///< client → server: counters, liveness (nonce)
  kSnapshot = 17,        ///< server → client: nonce echo, counters, advisory
  kBye = 18,             ///< client → server: orderly goodbye
  kByeAck = 19,          ///< server → client: goodbye acknowledged
  kSubmitBatch = 20,     ///< client → server: K windows in one frame
  kSubmitBatchAck = 21,  ///< server → client: K per-window outcomes
  kPollMany = 22,        ///< client → server: request up to N results
  kResultBatch = 23,     ///< server → client: up to N results, one frame
};

enum class ErrorCode : std::uint8_t {
  kNone = 0,
  kUnsupportedVersion = 1,  ///< Header version outside the peer's range.
  kBadPayload = 2,          ///< Frame parsed but payload didn't.
  kUnknownFrameType = 3,
  kNotNegotiated = 4,  ///< Non-HELLO frame before version negotiation.
  kShuttingDown = 5,
};

/// Sample-vector codings.  FIXED* carry one f64 scale followed by
/// little-endian signed integers; the decoded value is integer * scale.
enum class ValueCoding : std::uint8_t {
  kAbsent = 0,   ///< Field not present (e.g. no SNR reference attached).
  kFloat64 = 1,  ///< Raw IEEE-754 doubles, bit-preserving.
  kFixed16 = 2,  ///< i16 LE * f64 scale — the node's radio format.
  kFixed32 = 3,  ///< i32 LE * f64 scale — fixed-point overflow fallback.
  /// Db4 support bitmap, then one bitstream: the kept coefficients (sign,
  /// Rice-coded exponent offset, raw mantissa) and, per block of 16
  /// samples, Rice-coded zigzag residuals bits(sample) − bits(inverse DWT
  /// of the coefficients), mod 2^64.  Bit-preserving for any input
  /// (docs/WIRE_FORMAT.md §3.1).
  kWaveletResidual = 4,
};

struct WireEncodeOptions {
  /// Fixed-point scale the encoder may use for sample vectors (mV per
  /// count — measurement_scale_mv(adc) on the node path).  0 disables the
  /// fixed codings entirely.  A fixed coding is only chosen when every
  /// value round-trips bit-exactly; otherwise the vector ships FLOAT64.
  double fixed_scale = 0.0;
};

// --- Low-level writers / reader ---------------------------------------------

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v);
void put_u32le(std::vector<std::uint8_t>& out, std::uint32_t v);
void put_f64le(std::vector<std::uint8_t>& out, double v);
/// Unsigned LEB128: 7 value bits per byte, high bit = continuation.
void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v);

/// Bounds-checked sequential reader over one frame payload.  Any overrun
/// or malformed varint latches ok() == false and makes every subsequent
/// read return 0 — decoders check ok() once at the end instead of after
/// every field.
class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> data) : data_(data) {}

  bool ok() const { return ok_; }
  std::size_t remaining() const { return data_.size() - pos_; }

  std::uint8_t u8();
  std::uint32_t u32le();
  std::int16_t i16le();
  std::int32_t i32le();
  double f64le();
  std::uint64_t varint();
  /// A varint for a 32-bit field: a value above UINT32_MAX marks the
  /// reader malformed (and reads 0) instead of wrapping.
  std::uint32_t varint_u32();
  /// Raw view of the next `n` bytes (for bulk sample copies).
  std::span<const std::uint8_t> bytes(std::size_t n);
  /// Every unread byte, not consumed: a bit-level decoder reads from it,
  /// then consumes what it used through bytes().
  std::span<const std::uint8_t> rest() const {
    return ok_ ? data_.subspan(pos_) : std::span<const std::uint8_t>{};
  }

 private:
  bool take(std::size_t n);

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// --- Framing -----------------------------------------------------------------

/// Starts a frame: appends the 8-byte header (length patched later) and
/// returns the payload start offset to pass to frame_end.  The payload is
/// then serialized directly into `out` — no staging buffer.
std::size_t frame_begin(std::vector<std::uint8_t>& out, FrameType type);

/// Finishes the frame begun at `payload_start`: patches the length field
/// and appends the CRC32C trailer (computed over header + payload).
void frame_end(std::vector<std::uint8_t>& out, std::size_t payload_start);

enum class FrameStatus : std::uint8_t {
  kOk = 0,
  kNeedMore,    ///< Buffer holds a prefix of a valid frame; read more.
  kBadMagic,    ///< First bytes are not 'W''B' — desynchronized stream.
  kBadVersion,  ///< Header version is not kWireVersion.
  kOversized,   ///< Length field exceeds the payload cap.
  kBadCrc,      ///< Trailer mismatch — corrupt frame.
};

struct FrameView {
  std::uint8_t version = 0;
  FrameType type{};
  std::span<const std::uint8_t> payload{};
  std::size_t frame_bytes = 0;  ///< Total frame size; consume this many.
};

/// Non-destructively parses the frame at the front of `buf`.  On kOk the
/// view aliases `buf` (valid until the buffer mutates) and frame_bytes
/// says how much to consume.  kBadVersion still fills `frame_bytes` and
/// `version` when the frame is structurally complete (magic, length, and
/// CRC all check out), so a server can skip the frame and answer
/// ERROR(UNSUPPORTED_VERSION) instead of dropping the connection blind.
FrameStatus peek_frame(std::span<const std::uint8_t> buf, FrameView& out,
                       std::uint32_t max_payload = kMaxPayloadBytes);

// --- Value-vector coding -----------------------------------------------------

/// Appends a coded sample vector: coding byte, then per the coding.  Picks
/// FIXED16 → FIXED32 → FLOAT64, taking a fixed coding only when every
/// value is bit-exactly integer * fixed_scale (see WireEncodeOptions).
void encode_values(std::vector<std::uint8_t>& out, std::span<const double> values,
                   const WireEncodeOptions& opts);

/// Appends the ABSENT coding (field carried but empty).
void encode_values_absent(std::vector<std::uint8_t>& out);

/// Appends a reconstructed-signal vector: WAVELET_RESIDUAL when that is
/// strictly smaller than FLOAT64, FLOAT64 otherwise.  Returns the coding
/// written.  Steady state allocates nothing beyond `out` (per-thread
/// scratch, grown to the largest vector seen).
ValueCoding encode_signal_values(std::vector<std::uint8_t>& out,
                                 std::span<const double> values);

/// Decodes a coded sample vector into `out` (resized to fit; cleared for
/// ABSENT).  Returns false on malformed input.  `out` keeps its capacity;
/// when it has none and `pool` is set, a present vector is decoded into a
/// buffer drawn from `pool` (ABSENT draws nothing).  WAVELET_RESIDUAL
/// decodes through the same per-thread scratch as encode_signal_values.
bool decode_values(WireReader& r, std::vector<double>& out,
                   host::PayloadPool* pool = nullptr);

// --- Typed payloads ----------------------------------------------------------
// Each encode_* appends one complete frame (header..CRC) to `out`; each
// decode_* parses a FrameView payload and returns false on malformation.

struct HelloPayload {
  std::uint8_t min_version = kWireVersion;
  std::uint8_t max_version = kWireVersion;
};

struct ErrorPayload {
  ErrorCode code = ErrorCode::kNone;
  std::string detail;  ///< Human-readable; never parsed.
};

/// Engine counter snapshot — the conservation-audit payload: the shard's
/// host::ShardCounters.  `lost` is coordinator-side bookkeeping only (a
/// dead shard cannot report its own losses), so it is NOT part of the
/// SNAPSHOT wire layout: encode/decode ignore it.  The frame's nonce and
/// CR advisory travel beside the counters, not in them: the counters sum
/// across shards, those two do not.
using SnapshotPayload = host::ShardCounters;

struct SloStatePayload {
  std::uint32_t patient_id = 0;
  bool present = false;  ///< False: the patient had no tracker to move.
  host::SloTrackerState state;
};

void encode_hello(std::vector<std::uint8_t>& out, const HelloPayload& hello);
bool decode_hello(std::span<const std::uint8_t> payload, HelloPayload& out);

void encode_hello_ack(std::vector<std::uint8_t>& out, std::uint8_t version);
bool decode_hello_ack(std::span<const std::uint8_t> payload, std::uint8_t& version);

void encode_error(std::vector<std::uint8_t>& out, const ErrorPayload& error);
bool decode_error(std::span<const std::uint8_t> payload, ErrorPayload& out);

/// kDrainPatient / kDrainDone / kExtractSlo all carry one patient id.
void encode_patient_frame(std::vector<std::uint8_t>& out, FrameType type,
                          std::uint32_t patient_id);
bool decode_patient_frame(std::span<const std::uint8_t> payload, std::uint32_t& patient_id);

/// `type` is kSloState (server → client) or kAdoptSlo (client → server);
/// both directions carry the identical layout.
void encode_slo_state(std::vector<std::uint8_t>& out, FrameType type,
                      const SloStatePayload& slo);
bool decode_slo_state(std::span<const std::uint8_t> payload, SloStatePayload& out);

void encode_adopt_ack(std::vector<std::uint8_t>& out, bool adopted);
bool decode_adopt_ack(std::span<const std::uint8_t> payload, bool& adopted);

/// SNAPSHOT_REQUEST := nonce(varint).  SNAPSHOT := nonce(varint, echoed)
/// the nine counters (varints), then advisory_cr_centi(varint; 0 = no
/// advisory, else the CR% × 100 the shard asks its nodes to encode at).
/// One request serves the conservation audit, the liveness probe (a
/// stale answer cannot pass for a fresh one, since its nonce differs) and
/// the closed compression loop (docs/WIRE_FORMAT.md §4.3).
void encode_snapshot_request(std::vector<std::uint8_t>& out, std::uint64_t nonce);
bool decode_snapshot_request(std::span<const std::uint8_t> payload, std::uint64_t& nonce);
void encode_snapshot(std::vector<std::uint8_t>& out, std::uint64_t nonce,
                     const SnapshotPayload& snap, std::uint32_t advisory_cr_centi);
bool decode_snapshot(std::span<const std::uint8_t> payload, std::uint64_t& nonce,
                     SnapshotPayload& out, std::uint32_t& advisory_cr_centi);

void encode_bye(std::vector<std::uint8_t>& out);
void encode_bye_ack(std::vector<std::uint8_t>& out);

// --- Batched data frames -----------------------------------------------------
// SUBMIT_BATCH payload := flags(u8) count(varint) count × window-body.
// SUBMIT_BATCH_ACK carries count × (accepted(u8) [local_ticket(varint)
// when accepted]) in submit order, then result_count(varint)
// result_count × result-body: the results the shard had ready when it
// sent the ACK, delivered exactly as a RESULT_BATCH's.  POLL_MANY(max) is
// answered by exactly one RESULT_BATCH of count(varint) count ×
// result-body.  A threaded shard holds the answer until a result is ready
// or the next frame on the connection arrives; in the latter case count
// may be zero.
//
// The client pipeline stages window bodies incrementally
// (encode_submit_batch_entry into a reused buffer) and seals the frame
// without ever assembling it contiguously: encode_submit_batch_prefix
// builds header+flags+count, encode_submit_batch_trailer streams the CRC
// over prefix ∥ bodies, and the three pieces go out in one
// scatter-gather write (net::send_all_vec).

/// flags bit 0: blocking submit (server waits out backpressure like
/// ReconstructionEngine::submit instead of rejecting the window).
inline constexpr std::uint8_t kSubmitFlagBlocking = 0x01;

/// Window-shape limits a decoder enforces before a window reaches the
/// engine (docs/WIRE_FORMAT.md §5.1): 1 <= m <= n <= kMaxWindowSamples,
/// 1 <= d <= min(m, kMaxOnesPerColumn), and a reference that is either
/// ABSENT or exactly n samples.  A window outside them would make the
/// sensing-matrix build loop forever (d > m) or read past a buffer.
inline constexpr std::uint32_t kMaxWindowSamples = 4096;
inline constexpr std::uint32_t kMaxOnesPerColumn = 64;
static_assert(kMaxWindowSamples <= cs::kMaxSensingRows,
              "every decodable window must fit the sensing matrix's 16-bit row indices");

/// One per-window outcome inside a SUBMIT_BATCH_ACK.
struct SubmitBatchAckEntry {
  bool accepted = false;
  std::uint64_t local_ticket = 0;  ///< Meaningful only when accepted.
};

/// Appends one window body (no framing, no flags byte) to `staging`.
void encode_submit_batch_entry(std::vector<std::uint8_t>& staging,
                               const host::CompressedWindow& window,
                               const WireEncodeOptions& opts);

/// Appends the SUBMIT_BATCH header + `flags count` prefix for a frame
/// whose staged bodies total `bodies_len` bytes.  The header length field
/// is final — no later patching — so the prefix can ship before the
/// bodies in a scatter-gather write.
void encode_submit_batch_prefix(std::vector<std::uint8_t>& out, std::uint8_t flags,
                                std::uint64_t count, std::size_t bodies_len);

/// Appends the 4-byte CRC trailer for prefix ∥ bodies (streamed CRC —
/// the two spans never need to be contiguous).
void encode_submit_batch_trailer(std::vector<std::uint8_t>& out,
                                 std::span<const std::uint8_t> prefix,
                                 std::span<const std::uint8_t> bodies);

/// Whole-frame convenience (tests, golden fixtures): one contiguous
/// SUBMIT_BATCH frame for `windows`.
void encode_submit_batch(std::vector<std::uint8_t>& out,
                         std::span<const host::CompressedWindow> windows,
                         std::uint8_t flags, const WireEncodeOptions& opts);

/// Incremental decode: header first, then `count` entries off the same
/// reader.  The convenience form decodes the whole payload.  A window
/// outside the shape limits above decodes as malformed.
bool decode_submit_batch_header(WireReader& r, std::uint8_t& flags, std::uint64_t& count);
bool decode_submit_batch_entry(WireReader& r, host::CompressedWindow& out,
                               host::PayloadPool* pool);
bool decode_submit_batch(std::span<const std::uint8_t> payload, std::uint8_t& flags,
                         std::vector<host::CompressedWindow>& out, host::PayloadPool* pool);

/// Appends a SUBMIT_BATCH_ACK: the per-window entries, then
/// `result_count` staged result bodies (encode_result_entry, as for a
/// RESULT_BATCH) — the results the shard had ready when it acknowledged.
void encode_submit_batch_ack(std::vector<std::uint8_t>& out,
                             std::span<const SubmitBatchAckEntry> entries,
                             std::span<const std::uint8_t> result_bodies = {},
                             std::uint64_t result_count = 0);
/// Decodes the entries into `out` and the carried results into `results`
/// (signals drawn from `pool` when set).
bool decode_submit_batch_ack(std::span<const std::uint8_t> payload,
                             std::vector<SubmitBatchAckEntry>& out,
                             std::vector<host::WindowResult>& results, host::PayloadPool* pool);

void encode_poll_many(std::vector<std::uint8_t>& out, std::uint32_t max_results);
bool decode_poll_many(std::span<const std::uint8_t> payload, std::uint32_t& max_results);

/// Appends one result body (no framing) to `staging` — the server sizes a
/// RESULT_BATCH against its byte budget as it encodes.  The signal ships
/// through encode_signal_values (`opts` does not apply to it); returns the
/// signal's coding.
ValueCoding encode_result_entry(std::vector<std::uint8_t>& staging,
                                const host::WindowResult& result,
                                const WireEncodeOptions& opts);

/// Frames `count` staged result bodies as one RESULT_BATCH.
void encode_result_batch(std::vector<std::uint8_t>& out,
                         std::span<const std::uint8_t> bodies, std::uint64_t count);

bool decode_result_batch_header(WireReader& r, std::uint64_t& count);
bool decode_result_entry(WireReader& r, host::WindowResult& out, host::PayloadPool* pool);
bool decode_result_batch(std::span<const std::uint8_t> payload,
                         std::vector<host::WindowResult>& out, host::PayloadPool* pool);

}  // namespace wbsn::net
