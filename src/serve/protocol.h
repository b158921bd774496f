#ifndef FIXREP_SERVE_PROTOCOL_H_
#define FIXREP_SERVE_PROTOCOL_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "relation/csv.h"

// The daemon's wire protocol (docs/serving.md): a versioned
// length-prefixed binary framing grown out of the WAL's primitives
// (common/wal.h supplies the little-endian integer/string codecs),
// deliberately no heavyweight framework. Frames are protected by
// CRC-32C (common/crc32c.h — hardware-accelerated where the CPU has
// it; this is a link checksum, distinct from the WAL's on-disk CRC-32).
// Every frame is
//
//   u32 magic "FXRP" | u32 payload_len | payload | u32 crc32c(payload)
//
// and a payload starts with `u8 version`, then `u8 verb` (requests) or
// `u8 status_code` (responses), then the verb-specific body. The CRC
// covers the payload only — magic and length are checked structurally —
// so a frame can be routed (admission control) before it is verified
// and decoded on a worker thread.

namespace fixrep::serve {

inline constexpr char kFrameMagic[4] = {'F', 'X', 'R', 'P'};
inline constexpr uint8_t kProtocolVersion = 2;
// Caps a frame's payload; anything larger is treated as a garbage
// length prefix and the connection is dropped rather than buffered.
// Senders refuse a larger payload before writing anything.
inline constexpr uint32_t kMaxFramePayload = 1u << 30;

enum class Verb : uint8_t {
  kPing = 0,    // liveness + server totals
  kRepair = 1,  // repair one CSV batch against a named rule set
  kReload = 2,  // atomically swap a tenant's rule repository
  kList = 3,    // enumerate hosted rule sets
};

struct RepairRequest {
  std::string tenant;
  // RepairConfig settings as (key, value) pairs — the same grammar as
  // ParseRepairConfig (repair/config.h); the daemon rejects
  // session-local keys (wal, chunk-rows, ...).
  std::vector<std::pair<std::string, std::string>> config;
  // The dirty batch, as CSV with a header row (the tenant's schema). A
  // view: into the received frame after DecodeRequest, into the
  // caller's bytes when encoding.
  std::string_view csv;
};

struct ReloadRequest {
  std::string tenant;
  // Rule-set spec, same grammar as `serve --ruleset NAME=SPEC` minus
  // the name: a compiled-dictionary path, or "path@attr1,attr2,..."
  // for a text rules file with its schema.
  std::string spec;
};

struct Request {
  Verb verb = Verb::kPing;
  RepairRequest repair;  // meaningful iff verb == kRepair
  ReloadRequest reload;  // meaningful iff verb == kReload
};

struct PingInfo {
  uint64_t rule_sets = 0;
  uint64_t requests_served = 0;
  uint64_t requests_rejected = 0;
};

struct RepairResult {
  uint64_t rows = 0;
  uint64_t cells_changed = 0;
  uint64_t tuples_quarantined = 0;
  // Malformed records the batch read dropped (on-error=skip|quarantine).
  uint64_t records_dropped = 0;
  // The repaired batch as edits over the request's own CSV bytes: the
  // rows a repair changed, the records that do not re-emit verbatim,
  // and the dropped records. The repaired batch is the request CSV with
  // the splice applied (ApplyCsvSplice, or WriteCsvSplice to a file).
  CsvSplice splice;
  // One quarantine-format line per captured diagnostic (empty unless
  // the request asked for on-error=quarantine).
  std::string quarantine;
};

struct ReloadResult {
  uint64_t generation = 0;  // tenant generation after the swap
  uint64_t num_rules = 0;
};

struct RuleSetInfo {
  std::string name;
  uint64_t num_rules = 0;
  uint64_t generation = 0;
  bool dict_backed = false;  // mapped FXRDICT file vs heap image of text rules
};

struct Response {
  Status status;  // non-ok ⇒ the result fields are empty
  Verb verb = Verb::kPing;
  PingInfo ping;
  RepairResult repair;
  ReloadResult reload;
  std::vector<RuleSetInfo> rule_sets;
};

// --- framing ---

// Appends `payload` to `out` as one complete frame (magic, length,
// payload, CRC).
void AppendFrame(std::string* out, const std::string& payload);

// One received frame: the payload and its CRC trailer in one buffer
// (FrameReader sizes it from the header and receives straight into it).
// Decoders take views into payload(), so the frame must outlive what
// they return.
class Frame {
 public:
  std::string_view payload() const { return {bytes_.get(), size_}; }
  // kMalformedInput when the trailer does not match the payload.
  Status Verify() const;

 private:
  friend class FrameReader;
  struct Free {
    void operator()(char* p) const;
  };

  std::unique_ptr<char[], Free> bytes_;  // payload | u32 crc32c
  size_t size_ = 0;                      // payload bytes
};

enum class FrameParse {
  kNeedMore,  // no complete frame yet (Receive: the socket has no more)
  kFrame,     // a frame is complete; take it with TakeFrame()
  kClosed,    // Receive only: EOF (errno 0) or a recv error (errno set)
  kBadMagic,  // stream does not start with "FXRP": drop the connection
  kTooLarge,  // length prefix exceeds kMaxFramePayload: drop
  kNoMemory,  // the frame's buffer could not be allocated: drop
};

// Reassembles frames from a byte stream, for the daemon and the client
// alike. It takes the 8-byte header first, then allocates a buffer for
// the rest of the frame and receives into it directly, with no staging
// buffer. It never asks for more than the current frame needs, so a
// pipelined second frame stays in the socket until this one is taken.
//
// Growth rule: the first allocation holds the whole frame, up to
// kFrameFirstBlock; a larger frame doubles its buffer (realloc) each
// time the received bytes fill it. So a batch of up to 64 MiB takes one
// allocation and no copy. The buffer is never initialized, so its pages
// are committed only as bytes arrive: a header that announces
// kMaxFramePayload and then stalls holds the bytes received and no
// more. A failed allocation is kNoMemory, not an abort.
inline constexpr size_t kFrameFirstBlock = size_t{64} << 20;

class FrameReader {
 public:
  // recv(2)s from `fd` with `flags` until a frame is complete (kFrame),
  // the socket has nothing more (kNeedMore; errno EAGAIN or
  // EWOULDBLOCK: MSG_DONTWAIT, or a receive timeout on a blocking
  // socket), the peer is gone (kClosed) or the stream is garbage.
  FrameParse Receive(int fd, int flags);

  // The same state machine over bytes in memory: consumes from *bytes
  // until a frame completes or *bytes runs out (kNeedMore).
  FrameParse Feed(std::string_view* bytes);

  // The completed frame; the reader starts on the next header.
  Frame TakeFrame();

 private:
  bool complete() const {
    return frame_.bytes_ != nullptr && received_ == frame_.size_ + 4;
  }
  // Where the next received bytes go, and how many fit there.
  char* next();
  size_t room() const;
  // Accounts for `n` bytes written to next().
  FrameParse Advance(size_t n);
  // Resizes the frame buffer to `capacity` bytes, keeping what arrived.
  FrameParse Reserve(size_t capacity);

  char header_[8] = {};
  size_t header_filled_ = 0;
  size_t received_ = 0;  // frame bytes (payload, then trailer) received
  size_t capacity_ = 0;  // bytes allocated for them
  Frame frame_;
};

// Writes `payload` to `fd` as one complete frame with a gathered write
// (header | payload | trailer as an iovec) — the multi-MB payload is
// never copied into a staging frame. kMalformedInput, before a byte is
// sent, when the payload exceeds kMaxFramePayload; kIoError when the
// peer is gone or the send times out.
Status WriteFrameTo(int fd, const std::string& payload);
// Same, for a payload given as up to four concatenated parts: the CRC
// is chained across them and each part becomes its own iovec entry, so
// a frame around a multi-MB CSV needs no contiguous payload at all.
Status WriteFrameTo(int fd, std::initializer_list<std::string_view> parts);

// Gathered-write encoders for the two repair frames. The bytes on the
// wire are identical to framing EncodeRequest / EncodeResponse output,
// but the request CSV and the response's replacement bytes are never
// copied into (or allocated as part of) a staging payload. Like
// WriteFrameTo, they refuse a payload over the cap without sending.
Status WriteRepairRequestTo(
    int fd, const std::string& tenant,
    const std::vector<std::pair<std::string, std::string>>& config,
    std::string_view csv);
// Success responses only — errors have no bulk and go through
// EncodeResponse.
Status WriteRepairResponseTo(int fd, const RepairResult& result);

// --- payload codecs ---

std::string EncodeRequest(const Request& request);
// Encodes a kRepair request straight from the caller's CSV buffer,
// skipping the Request staging struct (and its multi-MB csv copy).
std::string EncodeRepairRequest(
    const std::string& tenant,
    const std::vector<std::pair<std::string, std::string>>& config,
    std::string_view csv);
// Decodes in place: a repair request's csv is a view into `payload`
// (the received frame), not a copy.
StatusOr<Request> DecodeRequest(std::string_view payload);

// A repair response carries a splice over the request CSV. DecodeResponse
// checks its wire structure only; CheckCsvSplice (which Client::Submit
// runs) checks the edits against the request CSV.
std::string EncodeResponse(const Response& response);
StatusOr<Response> DecodeResponse(std::string_view payload);

}  // namespace fixrep::serve

#endif  // FIXREP_SERVE_PROTOCOL_H_
