#include "common/atomic_file.h"

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>

#include "common/fault.h"
#include "common/logging.h"
#include "common/trace.h"

namespace fixrep {

namespace {

// Whole pages that pile up past the last writeback start before Append
// starts writeback on them: about one kept stream chunk of output, so a
// chunked write reaches disk while the next chunk is read and Commit's
// fsync finds little left to write.
constexpr off_t kWritebackBytes = off_t{1} << 20;

// The directory holding `path`, for the post-rename fsync.
std::string ParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace

StatusOr<AtomicFile> AtomicFile::Create(const std::string& path) {
  // pid + a process-wide counter makes the name unique among live
  // writers; O_EXCL turns any leftover from a crashed process that
  // reused the pid into a retry instead of a shared file. Unlike
  // mkstemp, open(2) applies the umask to 0666, so the published file
  // keeps the permissions a plain ofstream would have given it.
  static std::atomic<uint64_t> sequence{0};
  AtomicFile file;
  file.path_ = path;
  int fd = -1;
  for (int attempt = 0; attempt < 100 && fd < 0; ++attempt) {
    file.tmp_path_ = path + ".tmp." + std::to_string(::getpid()) + "." +
                     std::to_string(sequence.fetch_add(1));
    fd = ::open(file.tmp_path_.c_str(),
                O_WRONLY | O_CREAT | O_EXCL | O_APPEND | O_CLOEXEC, 0666);
    if (fd < 0 && errno != EEXIST) break;
  }
  if (fd < 0) {
    return Status::IoError("cannot create a temp file for '" + path +
                           "': " + std::strerror(errno));
  }
  file.fd_ = fd;
  // Append mode (the file is new and empty), so stream and fd_ writes
  // land in the order they are flushed.
  file.stream_.open(file.tmp_path_,
                    std::ios::binary | std::ios::out | std::ios::app);
  if (!file.stream_.is_open() || FIXREP_FAULT("atomic_file.open")) {
    std::remove(file.tmp_path_.c_str());
    return Status::IoError("cannot open '" + file.tmp_path_ +
                           "' for writing");
  }
  file.active_ = true;
  return file;
}

AtomicFile::AtomicFile(AtomicFile&& other) noexcept {
  *this = std::move(other);
}

AtomicFile& AtomicFile::operator=(AtomicFile&& other) noexcept {
  if (this != &other) {
    Discard();
    path_ = std::move(other.path_);
    tmp_path_ = std::move(other.tmp_path_);
    stream_ = std::move(other.stream_);
    fd_ = std::exchange(other.fd_, -1);
    writeback_ = other.writeback_;
    committed_ = other.committed_;
    active_ = std::exchange(other.active_, false);
  }
  return *this;
}

AtomicFile::~AtomicFile() { Discard(); }

void AtomicFile::Discard() {
  if (fd_ >= 0) ::close(std::exchange(fd_, -1));
  if (!active_ || committed_) return;
  if (stream_.is_open()) stream_.close();
  std::remove(tmp_path_.c_str());
  active_ = false;
}

Status AtomicFile::Append(std::span<const std::string_view> pieces) {
  FIXREP_CHECK(active_ && !committed_) << "Append on an inactive AtomicFile";
  stream_.flush();
  iovec iov[std::min(IOV_MAX, 1024)];
  size_t next = 0;  // first piece not fully written
  size_t done = 0;  // bytes of pieces[next] already written
  while (true) {
    size_t count = 0;
    for (size_t i = next; i < pieces.size() && count < std::size(iov); ++i) {
      const size_t skip = i == next ? done : 0;
      if (pieces[i].size() == skip) continue;
      iov[count++] = {const_cast<char*>(pieces[i].data()) + skip,
                      pieces[i].size() - skip};
    }
    if (count == 0) break;
    const ssize_t written = ::writev(fd_, iov, static_cast<int>(count));
    if (written < 0 && errno == EINTR) continue;
    if (written <= 0) {
      stream_.setstate(std::ios::badbit);
      return Status::IoError(
          "write to '" + tmp_path_ + "' failed: " +
          (written < 0 ? std::strerror(errno) : "no progress"));
    }
    // Walk past the pieces the kernel took.
    size_t taken = done + static_cast<size_t>(written);
    while (next < pieces.size() && taken >= pieces[next].size()) {
      taken -= pieces[next].size();
      ++next;
    }
    done = taken;
  }
  StartWriteback();
  return Status::Ok();
}

void AtomicFile::StartWriteback() {
  static const off_t page = ::sysconf(_SC_PAGESIZE);
  // fd_ is O_APPEND and the stream was flushed first, so the file ends
  // where the last write left its offset. Only whole pages are started:
  // a partly written last page would be written again once it fills.
  const off_t end = ::lseek(fd_, 0, SEEK_END);
  if (end < 0) return;
  const off_t pages_end = end - end % page;
  if (pages_end - writeback_ < kWritebackBytes) return;
  // Advisory: an error here leaves the pages to Commit's fsync, which
  // reports it.
  ::sync_file_range(fd_, writeback_, pages_end - writeback_,
                    SYNC_FILE_RANGE_WRITE);
  writeback_ = pages_end;
}

Status AtomicFile::Commit() {
  FIXREP_CHECK(active_ && !committed_) << "Commit on an inactive AtomicFile";
  stream_.flush();
  const bool stream_ok = stream_.good() && !FIXREP_FAULT("atomic_file.write");
  stream_.close();
  if (!stream_ok) {
    Discard();
    return Status::IoError("write to '" + tmp_path_ + "' failed");
  }
  // fsync the data before the rename publishes it: otherwise the rename
  // can hit disk first and a power cut exposes an empty file under the
  // final name. fd_ is the file every write went to.
  {
    FIXREP_TRACE_SPAN("atomic_file.sync");
    const int error = ::fsync(fd_) != 0                 ? errno
                      : FIXREP_FAULT("atomic_file.fsync") ? EIO
                                                          : 0;
    if (error != 0) {
      Discard();
      return Status::IoError("cannot sync '" + tmp_path_ +
                             "': " + std::strerror(error));
    }
  }
  ::close(std::exchange(fd_, -1));
  FIXREP_TRACE_SPAN("atomic_file.publish");
  if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    const std::string error = std::strerror(errno);
    Discard();
    return Status::IoError("cannot rename '" + tmp_path_ + "' to '" + path_ +
                           "': " + error);
  }
  committed_ = true;
  // The rename is only durable once the directory entry is: fsync the
  // parent. Filesystems that cannot sync a directory report EINVAL;
  // there is nothing more to do on those.
  const std::string dir = ParentDir(path_);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd < 0) {
    return Status::IoError("cannot open directory '" + dir +
                           "' to sync: " + std::strerror(errno));
  }
  const bool synced = ::fsync(dir_fd) == 0 || errno == EINVAL;
  const std::string error = synced ? "" : std::strerror(errno);
  ::close(dir_fd);
  if (!synced) {
    return Status::IoError("cannot sync directory '" + dir + "': " + error);
  }
  return Status::Ok();
}

}  // namespace fixrep
