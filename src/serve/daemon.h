#ifndef FIXREP_SERVE_DAEMON_H_
#define FIXREP_SERVE_DAEMON_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/socket_server.h"
#include "common/status.h"
#include "serve/protocol.h"
#include "serve/registry.h"

// The multi-tenant repair daemon (docs/serving.md): one
// net::SocketServer accept loop feeding repair requests onto the global
// ThreadPool through a bounded admission gate. The loop thread only
// receives frames (FrameReader); CRC verification, decoding, CSV
// parsing, the chase, and the response write all happen on a pool
// worker while the connection is suspended (one outstanding request per
// connection, so per-connection ordering holds). When `max_pending`
// requests are already in flight — or the daemon is draining — a frame
// is answered kUnavailable immediately from the loop thread instead of
// queueing without bound: overload degrades to fast rejection, never a
// hang. Shutdown() (and SIGTERM via RequestShutdown) stops accepting,
// lets every in-flight request finish and flush its response, then
// tears the loop down.

namespace fixrep::serve {

struct DaemonOptions {
  // Exactly one listener, as net::SocketServerOptions.
  std::string unix_socket_path;
  int tcp_port = -1;
  // Admission bound: repair/reload requests admitted but not yet
  // answered. The gate, not the ThreadPool, is the queue limit.
  size_t max_pending = 128;
  // Send timeout for response writes (loop and worker threads alike).
  int send_timeout_ms = 30000;
  // Test hook: runs at the start of every admitted request's pool task.
  // Lets tests hold requests in flight deterministically (admission
  // rejection, drain) by blocking here.
  std::function<void()> request_stall_for_test;
};

class RepairDaemon : private net::SocketServer::Handler {
 public:
  // Binds and starts serving `registry`'s tenants. The registry must
  // outlive the daemon and may keep being Load()ed while serving (hot
  // reload).
  static StatusOr<std::unique_ptr<RepairDaemon>> Start(
      TenantRegistry* registry, DaemonOptions options);

  ~RepairDaemon();  // Shutdown()

  // Graceful drain: refuse new connections, answer kUnavailable to new
  // frames, wait until every admitted request has written its response,
  // then stop the loop. Idempotent; safe from any thread (not a signal
  // handler — use RequestShutdown there).
  void Shutdown();

  // Async-signal-safe shutdown trigger (one pipe write): unblocks
  // WaitForShutdownRequest. Does not itself drain.
  void RequestShutdown();

  // Blocks until RequestShutdown (or Shutdown) is called. The serve
  // verb parks its main thread here, then runs Shutdown().
  void WaitForShutdownRequest();

  int port() const { return server_ != nullptr ? server_->port() : -1; }
  const std::string& socket_path() const { return options_.unix_socket_path; }

  uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }
  uint64_t requests_rejected() const {
    return requests_rejected_.load(std::memory_order_relaxed);
  }

  // Admitted requests whose repair work has not finished — includes
  // tasks still queued behind busy pool workers. Test/ops visibility;
  // stale the instant it returns.
  size_t in_flight() {
    std::lock_guard<std::mutex> lock(mu_);
    return in_flight_;
  }

 private:
  struct Connection {
    FrameReader reader;  // the frame arriving on it (loop thread)
  };

  RepairDaemon(TenantRegistry* registry, DaemonOptions options);

  // net::SocketServer::Handler (loop thread).
  bool OnAccept(int fd) override;
  net::SocketServer::ReadResult OnReadable(int fd) override;
  void OnClose(int fd) override;

  // Pool-worker request path.
  void HandleFrame(int fd, const Frame& frame);
  Response HandleRequest(const Request& request);
  Response HandleRepair(const RepairRequest& request);
  Response HandleReload(const ReloadRequest& request);

  // Frames and writes `response` to fd (blocking, send-timeout-bounded,
  // MSG_NOSIGNAL). Any thread.
  void SendResponse(int fd, const Response& response);
  Response ErrorResponse(Verb verb, Status status) const;

  TenantRegistry* registry_;
  DaemonOptions options_;
  std::unique_ptr<net::SocketServer> server_;

  std::mutex mu_;
  std::condition_variable drain_cv_;
  size_t in_flight_ = 0;    // admitted, repair work not yet finished
  // Admitted pool tasks that may still touch server_: the slot above is
  // released once the response is built (so a client holding its
  // response never bounces off a queue it no longer occupies), but the
  // worker still has the response write and the final Resume() ahead of
  // it — the drain must outwait this count separately or Shutdown frees
  // the server under a worker's last call.
  size_t busy_workers_ = 0;
  bool draining_ = false;   // set by Shutdown under mu_
  bool shutdown_done_ = false;

  std::map<int, Connection> connections_;  // loop thread only

  std::atomic<uint64_t> requests_served_{0};
  std::atomic<uint64_t> requests_rejected_{0};

  int shutdown_pipe_[2] = {-1, -1};
};

}  // namespace fixrep::serve

#endif  // FIXREP_SERVE_DAEMON_H_
