#ifndef FIXREP_COMMON_ATOMIC_FILE_H_
#define FIXREP_COMMON_ATOMIC_FILE_H_

#include <sys/types.h>

#include <fstream>
#include <span>
#include <string>
#include <string_view>

#include "common/status.h"

// Crash-atomic file replacement. Output written in place becomes a
// truncated-but-valid-looking file if the process dies mid-write; an
// AtomicFile stages everything in a temp file beside `path` and only a
// successful Commit() — flush, fsync, rename(2), fsync of the directory
// — makes it visible, durably, under the final name. A crash at any
// earlier point leaves the previous version of `path` (or its absence)
// untouched, and the destructor unlinks an uncommitted temp file.
//
// Each AtomicFile stages at its own unique name (`path.tmp.<pid>.<n>`,
// created with O_EXCL), so concurrent writers to one target never touch
// each other's staging file: every Commit succeeds and the target ends
// up holding exactly one writer's bytes (the last rename wins).
//
//   auto out = AtomicFile::Create(path);
//   if (!out.ok()) return out.status();
//   out->stream() << header << rows;
//   FIXREP_RETURN_IF_ERROR(out->Commit());
//
// Bytes already in memory can skip the stream's buffer: Append writes
// them with writev(2), after whatever stream() holds.

namespace fixrep {

class AtomicFile {
 public:
  // Creates a fresh, uniquely named temp file beside `path` for writing.
  static StatusOr<AtomicFile> Create(const std::string& path);

  AtomicFile(AtomicFile&& other) noexcept;
  AtomicFile& operator=(AtomicFile&& other) noexcept;
  AtomicFile(const AtomicFile&) = delete;
  AtomicFile& operator=(const AtomicFile&) = delete;
  // Unlinks the temp file if Commit was never (successfully) called.
  ~AtomicFile();

  std::ofstream& stream() { return stream_; }
  const std::string& path() const { return path_; }

  // Appends `pieces` in order with gathered writes (up to IOV_MAX
  // pieces per writev), after flushing stream(). kIoError on a failed
  // write, which also marks stream() bad so Commit refuses to publish.
  // Once a megabyte or more of whole pages has been written since the
  // last start, starts their writeback (sync_file_range), so a file
  // written in pieces is mostly on its way to disk by Commit.
  Status Append(std::span<const std::string_view> pieces);

  // Flushes, fsyncs, and renames the temp file onto `path`, then fsyncs
  // the parent directory so the rename itself survives a power cut.
  // After a failed write, fsync or rename the temp file is removed and
  // `path` is unchanged. Spans atomic_file.sync (the data fsync) and
  // atomic_file.publish (the rename and the directory fsync).
  Status Commit();

 private:
  AtomicFile() = default;
  void Discard();
  // Starts writeback of the whole pages written since the last start,
  // once there are kWritebackBytes of them.
  void StartWriteback();

  std::string path_;
  std::string tmp_path_;
  std::ofstream stream_;
  // The staging file opened O_APPEND (stream_ appends too), for Append.
  int fd_ = -1;
  // The file offset writeback has been started up to (page-aligned).
  off_t writeback_ = 0;
  bool committed_ = false;
  bool active_ = false;
};

}  // namespace fixrep

#endif  // FIXREP_COMMON_ATOMIC_FILE_H_
