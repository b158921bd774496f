#include "serve/protocol.h"

#include <sys/socket.h>
#include <sys/uio.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <utility>

#include "common/crc32c.h"
#include "common/wal.h"

namespace fixrep::serve {

namespace {

constexpr size_t kHeaderBytes = 8;   // magic + payload_len
constexpr size_t kTrailerBytes = 4;  // crc32
constexpr size_t kEditBytes = 24;    // one splice edit: three u64
// SpliceCsv merges edits closer than sizeof(CsvEdit), meaning one
// edit's wire size.
static_assert(sizeof(CsvEdit) == kEditBytes);

uint32_t ReadU32(const char* p) {
  uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;  // little-endian hosts only, like the WAL
}

Status Truncated(const char* what) {
  return Status::MalformedInput(std::string("truncated ") + what +
                                " payload");
}

}  // namespace

void AppendFrame(std::string* out, const std::string& payload) {
  out->reserve(out->size() + kHeaderBytes + payload.size() + kTrailerBytes);
  out->append(kFrameMagic, sizeof(kFrameMagic));
  WalPutU32(out, static_cast<uint32_t>(payload.size()));
  out->append(payload);
  WalPutU32(out, Crc32c(payload.data(), payload.size()));
}

Status Frame::Verify() const {
  if (Crc32c(bytes_.get(), size_) != ReadU32(bytes_.get() + size_)) {
    return Status::MalformedInput("frame CRC mismatch");
  }
  return Status::Ok();
}

void Frame::Free::operator()(char* p) const { std::free(p); }

char* FrameReader::next() {
  return frame_.bytes_ == nullptr ? header_ + header_filled_
                                  : frame_.bytes_.get() + received_;
}

size_t FrameReader::room() const {
  return frame_.bytes_ == nullptr ? kHeaderBytes - header_filled_
                                  : capacity_ - received_;
}

FrameParse FrameReader::Advance(size_t n) {
  if (frame_.bytes_ != nullptr) {
    received_ += n;
    const size_t total = frame_.size_ + kTrailerBytes;
    if (received_ == total) return FrameParse::kFrame;
    if (received_ < capacity_) return FrameParse::kNeedMore;
    return Reserve(std::min(2 * capacity_, total));
  }
  header_filled_ += n;
  // Reject a wrong prefix as soon as the bytes we do have disagree.
  if (std::memcmp(header_, kFrameMagic,
                  std::min(header_filled_, sizeof(kFrameMagic))) != 0) {
    return FrameParse::kBadMagic;
  }
  if (header_filled_ < kHeaderBytes) return FrameParse::kNeedMore;
  const uint32_t payload_len = ReadU32(header_ + sizeof(kFrameMagic));
  if (payload_len > kMaxFramePayload) return FrameParse::kTooLarge;
  frame_.size_ = payload_len;
  return Reserve(std::min(size_t{payload_len} + kTrailerBytes,
                          kFrameFirstBlock));
}

FrameParse FrameReader::Reserve(size_t capacity) {
  // realloc, not new: no zero-fill and no throw. A fresh large block is
  // an anonymous mapping whose pages are committed as recv writes them.
  char* bytes =
      static_cast<char*>(std::realloc(frame_.bytes_.get(), capacity));
  if (bytes == nullptr) return FrameParse::kNoMemory;  // the old one stays
  static_cast<void>(frame_.bytes_.release());  // realloc moved or kept it
  frame_.bytes_.reset(bytes);
  capacity_ = capacity;
  return FrameParse::kNeedMore;
}

FrameParse FrameReader::Receive(int fd, int flags) {
  while (!complete()) {
    const ssize_t n = recv(fd, next(), room(), flags);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno == EAGAIN || errno == EWOULDBLOCK ? FrameParse::kNeedMore
                                                     : FrameParse::kClosed;
    }
    if (n == 0) {
      errno = 0;
      return FrameParse::kClosed;
    }
    const FrameParse parse = Advance(static_cast<size_t>(n));
    if (parse != FrameParse::kNeedMore) return parse;
  }
  return FrameParse::kFrame;
}

FrameParse FrameReader::Feed(std::string_view* bytes) {
  while (!complete()) {
    if (bytes->empty()) return FrameParse::kNeedMore;
    const size_t n = std::min(room(), bytes->size());
    std::memcpy(next(), bytes->data(), n);
    bytes->remove_prefix(n);
    const FrameParse parse = Advance(n);
    if (parse != FrameParse::kNeedMore) return parse;
  }
  return FrameParse::kFrame;
}

Frame FrameReader::TakeFrame() {
  header_filled_ = 0;
  received_ = 0;
  capacity_ = 0;
  return std::move(frame_);
}

Status WriteFrameTo(int fd, std::initializer_list<std::string_view> parts) {
  // Header, up to four payload parts, trailer.
  constexpr size_t kMaxParts = 4;
  if (parts.size() > kMaxParts) {
    return Status::Internal("too many frame parts");
  }
  size_t payload_len = 0;
  for (const std::string_view part : parts) payload_len += part.size();
  // Checked before the CRC reads a byte: the length prefix is a u32 and
  // the daemon drops anything over the cap mid-upload.
  if (payload_len > kMaxFramePayload) {
    return Status::MalformedInput(
        "frame payload of " + std::to_string(payload_len) +
        " bytes exceeds the protocol's 1 GiB cap");
  }
  uint32_t crc = 0;
  for (const std::string_view part : parts) {
    crc = Crc32c(part.data(), part.size(), crc);
  }
  char header[kHeaderBytes];
  std::memcpy(header, kFrameMagic, sizeof(kFrameMagic));
  std::string prefix;  // u32 length, little-endian like the rest
  WalPutU32(&prefix, static_cast<uint32_t>(payload_len));
  std::memcpy(header + sizeof(kFrameMagic), prefix.data(), prefix.size());
  std::string trailer;
  WalPutU32(&trailer, crc);

  iovec iov[kMaxParts + 2];
  size_t chunks = 0;
  iov[chunks++] = {header, kHeaderBytes};
  for (const std::string_view part : parts) {
    if (part.empty()) continue;
    iov[chunks++] = {const_cast<char*>(part.data()), part.size()};
  }
  iov[chunks++] = {const_cast<char*>(trailer.data()), trailer.size()};

  size_t idx = 0;
  while (idx < chunks) {
    msghdr msg = {};
    msg.msg_iov = iov + idx;
    msg.msg_iovlen = chunks - idx;
    const ssize_t w = sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) {
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return Status::IoError("frame send timed out");
      }
      return Status::IoError(std::string("sendmsg: ") +
                             (w == 0 ? "connection closed"
                                     : std::strerror(errno)));
    }
    // Advance the iovec past the bytes the kernel took.
    size_t taken = static_cast<size_t>(w);
    while (idx < chunks && taken >= iov[idx].iov_len) {
      taken -= iov[idx].iov_len;
      ++idx;
    }
    if (idx < chunks && taken > 0) {
      iov[idx].iov_base = static_cast<char*>(iov[idx].iov_base) + taken;
      iov[idx].iov_len -= taken;
    }
  }
  return Status::Ok();
}

Status WriteFrameTo(int fd, const std::string& payload) {
  return WriteFrameTo(fd, {std::string_view(payload)});
}

Status WriteRepairRequestTo(
    int fd, const std::string& tenant,
    const std::vector<std::pair<std::string, std::string>>& config,
    std::string_view csv) {
  // Everything up to (and including) the CSV's length prefix; the CSV
  // bytes themselves ride as their own iovec part.
  std::string head;
  WalPutU8(&head, kProtocolVersion);
  WalPutU8(&head, static_cast<uint8_t>(Verb::kRepair));
  WalPutString(&head, tenant);
  WalPutU32(&head, static_cast<uint32_t>(config.size()));
  for (const auto& [key, value] : config) {
    WalPutString(&head, key);
    WalPutString(&head, value);
  }
  WalPutU32(&head, static_cast<uint32_t>(csv.size()));
  return WriteFrameTo(fd, {head, csv});
}

namespace {

// A repair result up to (and including) the length prefix of its
// replacement bytes:
//   u64 rows | u64 cells_changed | u64 tuples_quarantined
//   | u64 records_dropped | u64 output_size
//   | u32 edits | edits x (u64 begin | u64 erase | u64 insert)
//   | u32 inserts_len
// The replacement bytes and the quarantine string follow.
void PutRepairHead(std::string* out, const RepairResult& result) {
  const CsvSplice& splice = result.splice;
  out->reserve(out->size() + 48 + splice.edits.size() * kEditBytes);
  WalPutU64(out, result.rows);
  WalPutU64(out, result.cells_changed);
  WalPutU64(out, result.tuples_quarantined);
  WalPutU64(out, result.records_dropped);
  WalPutU64(out, splice.output_size);
  WalPutU32(out, static_cast<uint32_t>(splice.edits.size()));
  for (const CsvEdit& edit : splice.edits) {
    WalPutU64(out, edit.begin);
    WalPutU64(out, edit.erase);
    WalPutU64(out, edit.insert);
  }
  WalPutU32(out, static_cast<uint32_t>(splice.inserts.size()));
}

}  // namespace

Status WriteRepairResponseTo(int fd, const RepairResult& result) {
  std::string head;
  WalPutU8(&head, kProtocolVersion);
  WalPutU8(&head, static_cast<uint8_t>(StatusCode::kOk));
  WalPutString(&head, "");  // ok status carries no message
  WalPutU8(&head, static_cast<uint8_t>(Verb::kRepair));
  PutRepairHead(&head, result);
  std::string tail;
  WalPutU32(&tail, static_cast<uint32_t>(result.quarantine.size()));
  tail += result.quarantine;
  return WriteFrameTo(fd, {head, result.splice.inserts, tail});
}

std::string EncodeRepairRequest(
    const std::string& tenant,
    const std::vector<std::pair<std::string, std::string>>& config,
    std::string_view csv) {
  std::string out;
  out.reserve(csv.size() + 256);
  WalPutU8(&out, kProtocolVersion);
  WalPutU8(&out, static_cast<uint8_t>(Verb::kRepair));
  WalPutString(&out, tenant);
  WalPutU32(&out, static_cast<uint32_t>(config.size()));
  for (const auto& [key, value] : config) {
    WalPutString(&out, key);
    WalPutString(&out, value);
  }
  WalPutString(&out, csv);
  return out;
}

std::string EncodeRequest(const Request& request) {
  if (request.verb == Verb::kRepair) {
    return EncodeRepairRequest(request.repair.tenant, request.repair.config,
                               request.repair.csv);
  }
  std::string out;
  WalPutU8(&out, kProtocolVersion);
  WalPutU8(&out, static_cast<uint8_t>(request.verb));
  switch (request.verb) {
    case Verb::kPing:
    case Verb::kList:
    case Verb::kRepair:  // handled above
      break;
    case Verb::kReload:
      WalPutString(&out, request.reload.tenant);
      WalPutString(&out, request.reload.spec);
      break;
  }
  return out;
}

StatusOr<Request> DecodeRequest(std::string_view payload) {
  WalCursor cursor(payload);
  uint8_t version = 0;
  uint8_t verb = 0;
  if (!cursor.GetU8(&version)) return Truncated("request");
  if (version != kProtocolVersion) {
    return Status::MalformedInput("unsupported protocol version " +
                                  std::to_string(version) + " (speak " +
                                  std::to_string(kProtocolVersion) + ")");
  }
  if (!cursor.GetU8(&verb)) return Truncated("request");
  Request request;
  switch (verb) {
    case static_cast<uint8_t>(Verb::kPing):
    case static_cast<uint8_t>(Verb::kList):
      request.verb = static_cast<Verb>(verb);
      break;
    case static_cast<uint8_t>(Verb::kRepair): {
      request.verb = Verb::kRepair;
      uint32_t pairs = 0;
      if (!cursor.GetString(&request.repair.tenant) ||
          !cursor.GetU32(&pairs)) {
        return Truncated("repair request");
      }
      // The count is untrusted: reserve no more pairs than the payload
      // could hold (each needs at least two 4-byte length prefixes).
      request.repair.config.reserve(
          std::min<size_t>(pairs, cursor.remaining() / 8));
      for (uint32_t i = 0; i < pairs; ++i) {
        std::string key;
        std::string value;
        if (!cursor.GetString(&key) || !cursor.GetString(&value)) {
          return Truncated("repair request config");
        }
        request.repair.config.emplace_back(std::move(key), std::move(value));
      }
      // The payload's final, often multi-MB field: a view, not a copy.
      if (!cursor.GetStringView(&request.repair.csv)) {
        return Truncated("repair request");
      }
      break;
    }
    case static_cast<uint8_t>(Verb::kReload):
      request.verb = Verb::kReload;
      if (!cursor.GetString(&request.reload.tenant) ||
          !cursor.GetString(&request.reload.spec)) {
        return Truncated("reload request");
      }
      break;
    default:
      return Status::MalformedInput("unknown request verb " +
                                    std::to_string(verb));
  }
  if (!cursor.at_end()) {
    return Status::MalformedInput("trailing bytes after request payload");
  }
  return request;
}

std::string EncodeResponse(const Response& response) {
  std::string out;
  WalPutU8(&out, kProtocolVersion);
  WalPutU8(&out, static_cast<uint8_t>(response.status.code()));
  WalPutString(&out, response.status.message());
  WalPutU8(&out, static_cast<uint8_t>(response.verb));
  if (!response.status.ok()) return out;
  switch (response.verb) {
    case Verb::kPing:
      WalPutU64(&out, response.ping.rule_sets);
      WalPutU64(&out, response.ping.requests_served);
      WalPutU64(&out, response.ping.requests_rejected);
      break;
    case Verb::kRepair:
      PutRepairHead(&out, response.repair);
      out += response.repair.splice.inserts;
      WalPutString(&out, response.repair.quarantine);
      break;
    case Verb::kReload:
      WalPutU64(&out, response.reload.generation);
      WalPutU64(&out, response.reload.num_rules);
      break;
    case Verb::kList:
      WalPutU32(&out, static_cast<uint32_t>(response.rule_sets.size()));
      for (const RuleSetInfo& info : response.rule_sets) {
        WalPutString(&out, info.name);
        WalPutU64(&out, info.num_rules);
        WalPutU64(&out, info.generation);
        WalPutU8(&out, info.dict_backed ? 1 : 0);
      }
      break;
  }
  return out;
}

StatusOr<Response> DecodeResponse(std::string_view payload) {
  WalCursor cursor(payload);
  uint8_t version = 0;
  if (!cursor.GetU8(&version)) return Truncated("response");
  if (version != kProtocolVersion) {
    return Status::MalformedInput("unsupported protocol version " +
                                  std::to_string(version));
  }
  uint8_t code = 0;
  std::string message;
  uint8_t verb = 0;
  if (!cursor.GetU8(&code) || !cursor.GetString(&message) ||
      !cursor.GetU8(&verb)) {
    return Truncated("response");
  }
  if (code > static_cast<uint8_t>(StatusCode::kUnavailable)) {
    return Status::MalformedInput("unknown response status code " +
                                  std::to_string(code));
  }
  if (code == 0 && !message.empty()) {
    return Status::MalformedInput("ok response carries a status message");
  }
  Response response;
  if (code != 0) {
    response.status = Status(static_cast<StatusCode>(code),
                             std::move(message));
  }
  switch (verb) {
    case static_cast<uint8_t>(Verb::kPing):
    case static_cast<uint8_t>(Verb::kRepair):
    case static_cast<uint8_t>(Verb::kReload):
    case static_cast<uint8_t>(Verb::kList):
      response.verb = static_cast<Verb>(verb);
      break;
    default:
      return Status::MalformedInput("unknown response verb " +
                                    std::to_string(verb));
  }
  if (!response.status.ok()) {
    if (!cursor.at_end()) {
      return Status::MalformedInput("trailing bytes after error response");
    }
    return response;
  }
  switch (response.verb) {
    case Verb::kPing:
      if (!cursor.GetU64(&response.ping.rule_sets) ||
          !cursor.GetU64(&response.ping.requests_served) ||
          !cursor.GetU64(&response.ping.requests_rejected)) {
        return Truncated("ping response");
      }
      break;
    case Verb::kRepair: {
      RepairResult& repair = response.repair;
      CsvSplice& splice = repair.splice;
      uint32_t edits = 0;
      if (!cursor.GetU64(&repair.rows) ||
          !cursor.GetU64(&repair.cells_changed) ||
          !cursor.GetU64(&repair.tuples_quarantined) ||
          !cursor.GetU64(&repair.records_dropped) ||
          !cursor.GetU64(&splice.output_size) || !cursor.GetU32(&edits)) {
        return Truncated("repair response");
      }
      // Untrusted count: reserve no more edits than the payload holds.
      splice.edits.reserve(
          std::min<size_t>(edits, cursor.remaining() / kEditBytes));
      for (uint32_t i = 0; i < edits; ++i) {
        CsvEdit edit;
        if (!cursor.GetU64(&edit.begin) || !cursor.GetU64(&edit.erase) ||
            !cursor.GetU64(&edit.insert)) {
          return Truncated("repair response edits");
        }
        splice.edits.push_back(edit);
      }
      if (!cursor.GetString(&splice.inserts) ||
          !cursor.GetString(&repair.quarantine)) {
        return Truncated("repair response");
      }
      break;
    }
    case Verb::kReload:
      if (!cursor.GetU64(&response.reload.generation) ||
          !cursor.GetU64(&response.reload.num_rules)) {
        return Truncated("reload response");
      }
      break;
    case Verb::kList: {
      uint32_t count = 0;
      if (!cursor.GetU32(&count)) return Truncated("list response");
      // Untrusted count: each entry is at least 21 bytes on the wire.
      response.rule_sets.reserve(
          std::min<size_t>(count, cursor.remaining() / 21));
      for (uint32_t i = 0; i < count; ++i) {
        RuleSetInfo info;
        uint8_t dict_backed = 0;
        if (!cursor.GetString(&info.name) || !cursor.GetU64(&info.num_rules) ||
            !cursor.GetU64(&info.generation) || !cursor.GetU8(&dict_backed)) {
          return Truncated("list response");
        }
        if (dict_backed > 1) {
          return Status::MalformedInput("list response flag is not 0 or 1");
        }
        info.dict_backed = dict_backed != 0;
        response.rule_sets.push_back(std::move(info));
      }
      break;
    }
  }
  if (!cursor.at_end()) {
    return Status::MalformedInput("trailing bytes after response payload");
  }
  return response;
}

}  // namespace fixrep::serve
