#ifndef FIXREP_SERVE_CLIENT_H_
#define FIXREP_SERVE_CLIENT_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "serve/protocol.h"

// Thin blocking client for the repair daemon — the API behind the
// `fixrep_cli submit|ping|reload` verbs and the daemon tests. One
// connection, one request at a time; every call frames a request,
// writes it, and blocks for the response frame (bounded by
// io_timeout_ms). StatusOr carries both transport failures (kIoError)
// and server-side statuses (kUnavailable from admission control,
// kMalformedInput from bad configs, ...) unchanged.

namespace fixrep::serve {

struct ClientOptions {
  // Exactly one endpoint: the daemon's unix socket, or its loopback
  // TCP port.
  std::string unix_socket_path;
  int tcp_port = -1;
  // Per-call send/receive timeout. A server that stalls longer than
  // this yields kIoError.
  int io_timeout_ms = 120000;
};

class Client {
 public:
  // Connects (kIoError when the daemon is not there).
  static StatusOr<Client> Connect(const ClientOptions& options);

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client();

  StatusOr<PingInfo> Ping();

  // Repairs one CSV batch (header + rows) against the named rule set.
  // `config` uses the ParseRepairConfig key grammar (repair/config.h).
  // The daemon answers with a splice over `csv`, which the result
  // carries once CheckCsvSplice accepts it (kMalformedInput otherwise):
  // the repaired batch is `csv` with the splice applied (ApplyCsvSplice,
  // or WriteCsvSplice straight to a file). A batch over kMaxFramePayload
  // is refused with kMalformedInput before anything is sent.
  StatusOr<RepairResult> Submit(
      const std::string& tenant,
      const std::vector<std::pair<std::string, std::string>>& config,
      std::string_view csv);

  // Hot-swaps the named rule set to `spec` (see ParseTenantSpec).
  StatusOr<ReloadResult> Reload(const std::string& tenant,
                                const std::string& spec);

  StatusOr<std::vector<RuleSetInfo>> List();

 private:
  explicit Client(int fd) : fd_(fd) {}

  StatusOr<Response> RoundTrip(const Request& request);
  // Blocks for one response frame (FrameReader). Submit writes its
  // request as a gathered frame straight from the caller's CSV buffer
  // (WriteRepairRequestTo — no staging copy), then comes here.
  StatusOr<Response> ReceiveResponse();

  int fd_ = -1;
};

}  // namespace fixrep::serve

#endif  // FIXREP_SERVE_CLIENT_H_
