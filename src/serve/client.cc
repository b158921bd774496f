#include "serve/client.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace fixrep::serve {

namespace {

Status Errno(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

}  // namespace

StatusOr<Client> Client::Connect(const ClientOptions& options) {
  const bool want_unix = !options.unix_socket_path.empty();
  const bool want_tcp = options.tcp_port >= 0;
  if (want_unix == want_tcp) {
    return Status::MalformedInput(
        "client needs exactly one of unix_socket_path or tcp_port");
  }
  int fd = -1;
  if (want_unix) {
    sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    if (options.unix_socket_path.size() >= sizeof(addr.sun_path)) {
      return Status::MalformedInput("unix socket path too long: " +
                                    options.unix_socket_path);
    }
    std::strncpy(addr.sun_path, options.unix_socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    fd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return Errno("socket");
    if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      const Status status = Errno("connect " + options.unix_socket_path);
      close(fd);
      return status;
    }
  } else {
    fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return Errno("socket");
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(options.tcp_port));
    if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      const Status status =
          Errno("connect port " + std::to_string(options.tcp_port));
      close(fd);
      return status;
    }
  }
  timeval timeout = {options.io_timeout_ms / 1000,
                     (options.io_timeout_ms % 1000) * 1000};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  return Client(fd);
}

Client::Client(Client&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) close(fd_);
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Client::~Client() {
  if (fd_ >= 0) close(fd_);
}

StatusOr<Response> Client::RoundTrip(const Request& request) {
  if (fd_ < 0) return Status::Internal("client not connected");
  FIXREP_RETURN_IF_ERROR(WriteFrameTo(fd_, EncodeRequest(request)));
  return ReceiveResponse();
}

StatusOr<Response> Client::ReceiveResponse() {
  FrameReader reader;
  switch (reader.Receive(fd_, 0)) {
    case FrameParse::kFrame: {
      const Frame frame = reader.TakeFrame();
      FIXREP_RETURN_IF_ERROR(frame.Verify());
      return DecodeResponse(frame.payload());
    }
    case FrameParse::kNeedMore:  // the receive timeout fired
      return Status::IoError("timed out waiting for the daemon's response");
    case FrameParse::kClosed:
      if (errno == 0) {
        return Status::IoError("daemon closed the connection mid-response");
      }
      return Errno("recv");
    case FrameParse::kBadMagic:
      return Status::MalformedInput("response stream is not FXRP framed");
    case FrameParse::kTooLarge:
      return Status::MalformedInput("response frame exceeds protocol cap");
    case FrameParse::kNoMemory:
      break;
  }
  return Status::IoError("no memory for the daemon's response frame");
}

StatusOr<PingInfo> Client::Ping() {
  Request request;
  request.verb = Verb::kPing;
  StatusOr<Response> response = RoundTrip(request);
  if (!response.ok()) return response.status();
  if (!response->status.ok()) return response->status;
  return response->ping;
}

StatusOr<RepairResult> Client::Submit(
    const std::string& tenant,
    const std::vector<std::pair<std::string, std::string>>& config,
    std::string_view csv) {
  if (fd_ < 0) return Status::Internal("client not connected");
  FIXREP_RETURN_IF_ERROR(WriteRepairRequestTo(fd_, tenant, config, csv));
  StatusOr<Response> response = ReceiveResponse();
  if (!response.ok()) return response.status();
  if (!response->status.ok()) return response->status;
  const Status fits = CheckCsvSplice(csv, response->repair.splice);
  if (!fits.ok()) return fits.WithContext("repair response");
  return std::move(response->repair);
}

StatusOr<ReloadResult> Client::Reload(const std::string& tenant,
                                      const std::string& spec) {
  Request request;
  request.verb = Verb::kReload;
  request.reload.tenant = tenant;
  request.reload.spec = spec;
  StatusOr<Response> response = RoundTrip(request);
  if (!response.ok()) return response.status();
  if (!response->status.ok()) return response->status;
  return response->reload;
}

StatusOr<std::vector<RuleSetInfo>> Client::List() {
  Request request;
  request.verb = Verb::kList;
  StatusOr<Response> response = RoundTrip(request);
  if (!response.ok()) return response.status();
  if (!response->status.ok()) return response->status;
  return std::move(response->rule_sets);
}

}  // namespace fixrep::serve
