#ifndef FIXREP_SERVE_PROTOCOL_H_
#define FIXREP_SERVE_PROTOCOL_H_

#include <cstdint>
#include <initializer_list>
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
  // session-local keys (rules-dict, wal, ...).
  std::vector<std::pair<std::string, std::string>> config;
  // The dirty batch, as CSV with a header row (the tenant's schema).
  std::string csv;
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
  // and the dropped records. This is what travels on the wire.
  CsvSplice splice;
  // The repaired batch, header + rows: the request CSV with `splice`
  // applied. Client::Submit fills it in; it is not on the wire.
  std::string csv;
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
  bool dict_backed = false;  // mmap FXRDICT vs in-RAM CompiledRuleIndex
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

enum class FrameParse {
  kNeedMore,  // no complete frame buffered yet
  kFrame,     // one frame extracted and consumed from the buffer
  kBadMagic,  // stream does not start with "FXRP" — drop the connection
  kTooLarge,  // length prefix exceeds kMaxFramePayload — drop
};

// Extracts the first complete frame from `buffer`, consuming its bytes.
// On kFrame, `payload` and `crc` are set; the CRC is NOT verified here
// (VerifyFrame does that, typically on a worker thread).
FrameParse ExtractFrame(std::string* buffer, std::string* payload,
                        uint32_t* crc);

// kMalformedInput when crc does not match the payload.
Status VerifyFrame(const std::string& payload, uint32_t crc);

// Writes `payload` to `fd` as one complete frame with a gathered write
// (header | payload | trailer as an iovec) — the multi-MB payload is
// never copied into a staging frame. kIoError when the peer is gone or
// the send times out.
Status WriteFrameTo(int fd, const std::string& payload);
// Same, for a payload given as up to four concatenated parts: the CRC
// is chained across them and each part becomes its own iovec entry, so
// a frame around a multi-MB CSV needs no contiguous payload at all.
Status WriteFrameTo(int fd, std::initializer_list<std::string_view> parts);

// Gathered-write encoders for the two repair frames. The bytes on the
// wire are identical to framing EncodeRequest / EncodeResponse output,
// but the request CSV and the response's replacement bytes are never
// copied into (or allocated as part of) a staging payload.
Status WriteRepairRequestTo(
    int fd, const std::string& tenant,
    const std::vector<std::pair<std::string, std::string>>& config,
    std::string_view csv);
// Success responses only — errors have no bulk and go through
// EncodeResponse. Sends `result.splice`, not `result.csv`.
Status WriteRepairResponseTo(int fd, const RepairResult& result);

// --- payload codecs ---

std::string EncodeRequest(const Request& request);
// Encodes a kRepair request straight from the caller's CSV buffer,
// skipping the Request staging struct (and its multi-MB csv copy).
std::string EncodeRepairRequest(
    const std::string& tenant,
    const std::vector<std::pair<std::string, std::string>>& config,
    std::string_view csv);
StatusOr<Request> DecodeRequest(const std::string& payload);
// Reclaims `payload` for the repair CSV: the bytes are slid in place
// (memmove) instead of copied into a fresh multi-MB allocation.
StatusOr<Request> DecodeRequest(std::string&& payload);

// A repair response carries its splice, not its csv: DecodeResponse
// leaves RepairResult::csv empty. It checks the splice's wire structure
// only; ApplyCsvSplice (which Client::Submit runs) checks the edits
// against the request CSV.
std::string EncodeResponse(const Response& response);
StatusOr<Response> DecodeResponse(const std::string& payload);

}  // namespace fixrep::serve

#endif  // FIXREP_SERVE_PROTOCOL_H_
