#ifndef FIXREP_COMMON_WAL_H_
#define FIXREP_COMMON_WAL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

// Append-only write-ahead log file: the durability primitive under
// crash-recoverable streaming repair (repair/recovery.h, docs/durability.md).
//
// File layout:
//
//   magic (8 bytes "FXREPWAL") | record | record | ...
//
// and every record is a length-prefixed, CRC-protected frame:
//
//   u32 payload_length | u8 type | payload bytes | u32 crc32(type+payload)
//
// All integers are little-endian. Record types are owned by the layer
// above (recovery.h); this module only knows frames.
//
// Durability contract:
// * Append buffers a frame and writes it through to the file descriptor
//   once the buffer passes a watermark — write(2) only, no fsync, so an
//   appended-but-unsynced frame survives process death (page cache) but
//   not power loss.
// * Sync flushes the buffer and fsyncs: everything appended before a
//   successful Sync is durable. Callers group many Appends per Sync
//   (one fsync per committed chunk, not per record).
// * On replay, WalReader stops at the first frame that is incomplete or
//   fails its CRC — the torn tail a crash mid-write leaves behind — and
//   reports the byte offset of the last whole frame, which Truncate /
//   WalWriter::OpenForAppend uses to drop the tail before resuming.
//
// Fault-injection sites (docs/robustness.md): "wal.open", "wal.append"
// (short write), "wal.fsync" (failed fsync).

namespace fixrep {

// IEEE 802.3 CRC-32 (the zlib polynomial), table-driven.
// Chain blocks by passing the previous return value as `seed`.
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

// --- little-endian frame payload encoding helpers ---
void WalPutU8(std::string* out, uint8_t v);
void WalPutU32(std::string* out, uint32_t v);
void WalPutU64(std::string* out, uint64_t v);
// u32 length + raw bytes.
void WalPutString(std::string* out, std::string_view s);

// Sequential payload decoder. Get* return false on underflow, after
// which the cursor is poisoned (ok() stays false) so a parse can be
// validated once at the end.
class WalCursor {
 public:
  explicit WalCursor(std::string_view payload) : data_(payload) {}

  bool GetU8(uint8_t* v);
  bool GetU32(uint32_t* v);
  bool GetU64(uint64_t* v);
  bool GetString(std::string* s);
  // Like GetString but yields a view into the cursor's payload — valid
  // only while the payload outlives the view. Lets a decoder of a
  // multi-MB field defer (or entirely avoid) the copy.
  bool GetStringView(std::string_view* s);

  bool ok() const { return ok_; }
  bool at_end() const { return ok_ && pos_ == data_.size(); }
  // Bytes left to decode: an upper bound on what a length or count read
  // from the payload can honestly describe.
  size_t remaining() const { return ok_ ? data_.size() - pos_ : 0; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// One decoded frame.
struct WalRecord {
  uint8_t type = 0;
  std::string payload;
};

// Appends frames to a WAL file. Move-only; the destructor closes (but
// does not sync) the descriptor.
class WalWriter {
 public:
  // Creates or truncates `path` and writes the magic. The file is not
  // synced until the first Sync().
  static StatusOr<WalWriter> Create(const std::string& path);

  // Opens an existing WAL for appending after replay: truncates the file
  // to `durable_bytes` (discarding any torn tail the reader found) and
  // positions at the end. `durable_bytes` must cover the magic.
  static StatusOr<WalWriter> OpenForAppend(const std::string& path,
                                           uint64_t durable_bytes);

  WalWriter(WalWriter&& other) noexcept;
  WalWriter& operator=(WalWriter&& other) noexcept;
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;
  ~WalWriter();

  // Buffers one frame; spills the buffer to the descriptor past the
  // write-through watermark. Errors (including an injected short write)
  // are sticky: once Append or Sync fails, every later call fails.
  Status Append(uint8_t type, std::string_view payload);

  // Flushes buffered frames and fsyncs. The group-commit point.
  Status Sync();

  // Writes the buffer through to the descriptor WITHOUT fsync. Used by
  // crash-injection sites so a simulated kill leaves exactly the bytes a
  // real kill would leave in the page cache.
  Status FlushNoSync();

  // Crash-injection helper: writes only the FIRST HALF of the buffered
  // bytes through — the torn final frame an in-flight crash leaves. The
  // caller is expected to die immediately afterwards.
  void WriteTornBufferForCrash();

  // Bytes appended so far (magic included), counting buffered bytes.
  uint64_t appended_bytes() const { return appended_bytes_; }
  // Successful fsyncs so far (the per-chunk commit cost).
  uint64_t fsync_count() const { return fsync_count_; }

  Status Close();

 private:
  WalWriter() = default;

  int fd_ = -1;
  std::string path_;
  std::string buffer_;
  uint64_t appended_bytes_ = 0;
  uint64_t fsync_count_ = 0;
  Status sticky_error_;
};

// Replays a WAL file front to back, stopping cleanly at a torn tail.
class WalReader {
 public:
  // Opens and validates the magic. A file shorter than the magic (or
  // with the wrong one) is kMalformedInput — there is nothing to replay.
  static StatusOr<WalReader> Open(const std::string& path);

  // Reads the next complete frame into *record. Returns:
  // * true          — a frame was read;
  // * false         — end of replay: clean EOF, or a torn/corrupt tail
  //                   (check tail_truncated()).
  bool Next(WalRecord* record);

  // Byte offset just past the last successfully read frame — the durable
  // prefix OpenForAppend should keep.
  uint64_t durable_bytes() const { return durable_bytes_; }

  // True once Next hit an incomplete or CRC-failing frame: the tail
  // [durable_bytes, file size) is garbage from an interrupted write and
  // must be discarded before appending.
  bool tail_truncated() const { return tail_truncated_; }

 private:
  WalReader() = default;

  std::string data_;  // whole file; WALs are delta-sized, not data-sized
  size_t pos_ = 0;
  uint64_t durable_bytes_ = 0;
  bool tail_truncated_ = false;
};

}  // namespace fixrep

#endif  // FIXREP_COMMON_WAL_H_
