#include "serve/daemon.h"

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <utility>
#include <vector>

#include "common/metric_scope.h"
#include "common/metrics.h"
#include "common/quarantine.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "relation/csv.h"
#include "repair/config.h"
#include "repair/session.h"

namespace fixrep::serve {

namespace {

void TickServeCounter(const char* name, uint64_t n = 1) {
  if (kMetricsEnabled) {
    MetricsRegistry::Global().GetCounter(name)->Add(n);
  }
}

}  // namespace

RepairDaemon::RepairDaemon(TenantRegistry* registry, DaemonOptions options)
    : registry_(registry), options_(std::move(options)) {}

StatusOr<std::unique_ptr<RepairDaemon>> RepairDaemon::Start(
    TenantRegistry* registry, DaemonOptions options) {
  if (registry == nullptr || registry->size() == 0) {
    return Status::MalformedInput(
        "the daemon needs at least one loaded rule set");
  }
  auto daemon = std::unique_ptr<RepairDaemon>(
      new RepairDaemon(registry, std::move(options)));
  if (pipe(daemon->shutdown_pipe_) != 0) {
    return Status::IoError(std::string("pipe: ") + std::strerror(errno));
  }
  net::SocketServerOptions socket_options;
  socket_options.unix_socket_path = daemon->options_.unix_socket_path;
  socket_options.tcp_port = daemon->options_.tcp_port;
  auto server = net::SocketServer::Start(daemon.get(), socket_options);
  if (!server.ok()) return server.status();
  {
    // Published under mu_, which HandleFrame reads it under: the worker
    // that serves the first frame may never have synchronized with this
    // thread otherwise.
    std::lock_guard<std::mutex> lock(daemon->mu_);
    daemon->server_ = std::move(server).value();
  }
  return daemon;
}

RepairDaemon::~RepairDaemon() {
  Shutdown();
  if (shutdown_pipe_[0] >= 0) close(shutdown_pipe_[0]);
  if (shutdown_pipe_[1] >= 0) close(shutdown_pipe_[1]);
}

void RepairDaemon::RequestShutdown() {
  const char byte = 's';
  [[maybe_unused]] const ssize_t written =
      write(shutdown_pipe_[1], &byte, 1);
}

void RepairDaemon::WaitForShutdownRequest() {
  char byte = 0;
  while (read(shutdown_pipe_[0], &byte, 1) < 0 && errno == EINTR) {
  }
}

void RepairDaemon::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_done_) return;
    shutdown_done_ = true;
    draining_ = true;  // no further admissions from here on
  }
  // Refuse new connections; established ones get kUnavailable per frame.
  server_->StopAccepting();
  {
    std::unique_lock<std::mutex> lock(mu_);
    drain_cv_.wait(lock,
                   [&] { return in_flight_ == 0 && busy_workers_ == 0; });
  }
  // Every admitted request has written its response; now the loop (and
  // any idle connections) can go.
  server_->Stop();
  RequestShutdown();  // unblock WaitForShutdownRequest, if parked
}

bool RepairDaemon::OnAccept(int fd) {
  timeval timeout = {options_.send_timeout_ms / 1000,
                     (options_.send_timeout_ms % 1000) * 1000};
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  connections_[fd];  // fresh buffer
  TickServeCounter("fixrep.serve.connections");
  return true;
}

void RepairDaemon::OnClose(int fd) { connections_.erase(fd); }

net::SocketServer::ReadResult RepairDaemon::OnReadable(int fd) {
  FrameReader& reader = connections_[fd].reader;
  while (true) {
    // Drain what the socket has right now (level-triggered poll re-arms
    // if the client keeps sending), straight into the frame's buffer.
    switch (reader.Receive(fd, MSG_DONTWAIT)) {
      case FrameParse::kNeedMore:
        return net::SocketServer::ReadResult::kKeepWatching;
      case FrameParse::kFrame:
        break;
      case FrameParse::kClosed:
      case FrameParse::kBadMagic:
      case FrameParse::kTooLarge:
      case FrameParse::kNoMemory:
        // Peer gone (an incomplete frame dies with it), or a stream no
        // length-prefixed protocol can resynchronize: drop it.
        return net::SocketServer::ReadResult::kClose;
    }
    Frame frame = reader.TakeFrame();

    // Admission control: the gate is checked here, on the loop thread,
    // so a full queue answers immediately — the request never blocks
    // behind the pool.
    bool admitted = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!draining_ && in_flight_ < options_.max_pending) {
        ++in_flight_;
        ++busy_workers_;
        admitted = true;
      }
    }
    if (!admitted) {
      requests_rejected_.fetch_add(1, std::memory_order_relaxed);
      TickServeCounter("fixrep.serve.rejected");
      bool draining;
      {
        std::lock_guard<std::mutex> lock(mu_);
        draining = draining_;
      }
      SendResponse(fd, ErrorResponse(
          Verb::kPing,
          Status::Unavailable(draining
                                  ? "daemon is draining for shutdown"
                                  : "request queue is full; retry later")));
      continue;  // the connection survives rejection
    }

    // Suspend until the pool task writes the response and resumes us;
    // one outstanding request per connection keeps responses ordered.
    ThreadPool::Global().Submit(
        [this, fd, frame = std::make_shared<Frame>(std::move(frame))] {
          HandleFrame(fd, *frame);
        });
    return net::SocketServer::ReadResult::kSuspend;
  }
}

void RepairDaemon::HandleFrame(int fd, const Frame& frame) {
  if (options_.request_stall_for_test) options_.request_stall_for_test();

  Response response;
  const Status frame_ok = frame.Verify();
  if (!frame_ok.ok()) {
    response = ErrorResponse(Verb::kPing, frame_ok);
  } else {
    // In place: a repair request's CSV is a view into the frame.
    StatusOr<Request> request = DecodeRequest(frame.payload());
    if (!request.ok()) {
      response = ErrorResponse(Verb::kPing, request.status());
    } else {
      response = HandleRequest(request.value());
    }
  }
  // Count and free the admission slot before the write lands: a client
  // that has its response in hand must already see itself in
  // requests_served() and must find the slot free — its next request
  // (or another client's) cannot bounce off a queue this one no longer
  // occupies. The slot bounds concurrent repair work; the response
  // write that follows is covered by busy_workers_, so the shutdown
  // drain still waits for it.
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  TickServeCounter("fixrep.serve.requests");
  net::SocketServer* server = nullptr;
  {
    // Notify under the lock: the drain waiter may destroy this object
    // the moment it observes the predicate, and a notify outside the
    // lock could still be touching drain_cv_ at that point.
    std::lock_guard<std::mutex> lock(mu_);
    --in_flight_;
    drain_cv_.notify_all();
    server = server_.get();
  }
  SendResponse(fd, response);
  // Re-deliver any pipelined frame the connection already buffered.
  // Last touch of server_: busy_workers_ stays held across it so the
  // drain cannot tear the server down underneath this call.
  server->Resume(fd);
  {
    std::lock_guard<std::mutex> lock(mu_);
    --busy_workers_;
    drain_cv_.notify_all();  // under the lock — see the note above
  }
}

Response RepairDaemon::HandleRequest(const Request& request) {
  switch (request.verb) {
    case Verb::kPing: {
      Response response;
      response.verb = Verb::kPing;
      response.ping.rule_sets = registry_->size();
      response.ping.requests_served =
          requests_served_.load(std::memory_order_relaxed);
      response.ping.requests_rejected =
          requests_rejected_.load(std::memory_order_relaxed);
      return response;
    }
    case Verb::kList: {
      Response response;
      response.verb = Verb::kList;
      response.rule_sets = registry_->List();
      return response;
    }
    case Verb::kRepair:
      return HandleRepair(request.repair);
    case Verb::kReload:
      return HandleReload(request.reload);
  }
  return ErrorResponse(Verb::kPing,
                       Status::MalformedInput("unhandled request verb"));
}

Response RepairDaemon::HandleRepair(const RepairRequest& request) {
  const std::shared_ptr<const TenantSnapshot> snapshot =
      registry_->Find(request.tenant);
  if (snapshot == nullptr) {
    return ErrorResponse(
        Verb::kRepair,
        Status::MalformedInput("unknown rule set '" + request.tenant + "'"));
  }

  RepairConfig config;
  for (const auto& [key, value] : request.config) {
    if (RepairConfigKeyIsSessionLocal(key)) {
      return ErrorResponse(
          Verb::kRepair,
          Status::MalformedInput("config key '" + key +
                                 "' is session-local and not accepted "
                                 "over the wire"));
    }
    const Status parsed = ParseRepairConfig(key, value, &config);
    if (!parsed.ok()) return ErrorResponse(Verb::kRepair, parsed);
  }

  // Attribute this request's engine metrics to the tenant.
  MetricScope* scope = registry_->Scope(request.tenant);
  std::unique_ptr<MetricScope::Activation> active;
  if (scope != nullptr) {
    active = std::make_unique<MetricScope::Activation>(scope);
  }

  const bool quarantining = config.on_error == OnErrorPolicy::kQuarantine;
  VectorQuarantineSink row_sink;
  VectorQuarantineSink tuple_sink;
  if (quarantining) config.quarantine = &tuple_sink;

  CsvReadOptions csv_options;
  csv_options.on_error = config.on_error;
  csv_options.quarantine = quarantining ? &row_sink : nullptr;
  CsvRecordSpans spans;
  StatusOr<Table> table_or = [&] {
    FIXREP_TRACE_SPAN("serve.decode");
    return snapshot->DecodeCsv(request.csv, csv_options, &spans);
  }();
  if (!table_or.ok()) return ErrorResponse(Verb::kRepair, table_or.status());
  Table table = std::move(table_or).value();

  RepairReport report;
  // Every cell the repair rewrites, rows ascending: the rows to render.
  std::vector<CellRepair> writes;
  {
    const std::shared_lock<std::shared_mutex> reader = snapshot->ReadPool();
    RepairSession session(&snapshot->dict(), config);
    StatusOr<RepairReport> report_or = session.Repair(&table, &writes);
    if (!report_or.ok()) return ErrorResponse(Verb::kRepair,
                                              report_or.status());
    report = report_or.value();
  }

  Response response;
  response.verb = Verb::kRepair;
  response.repair.rows = report.rows;
  response.repair.cells_changed = report.cells_changed;
  response.repair.tuples_quarantined = report.tuples_quarantined;
  response.repair.records_dropped = spans.dropped;
  {
    FIXREP_TRACE_SPAN("serve.encode");
    // Rendering reads the shared pool, which another request's decode
    // may be interning into: hold the reader side.
    const std::shared_lock<std::shared_mutex> reader = snapshot->ReadPool();
    response.repair.splice = SpliceCsv(request.csv, spans, table, writes);
  }
  if (quarantining &&
      (!row_sink.diagnostics().empty() || !tuple_sink.diagnostics().empty())) {
    std::ostringstream quarantine;
    WriteQuarantineHeader(quarantine);
    for (const Diagnostic& d : row_sink.diagnostics()) {
      WriteQuarantineRecord(quarantine, "csv", d);
    }
    for (const Diagnostic& d : tuple_sink.diagnostics()) {
      WriteQuarantineRecord(quarantine, "repair", d);
    }
    response.repair.quarantine = quarantine.str();
  }
  return response;
}

Response RepairDaemon::HandleReload(const ReloadRequest& request) {
  const Status loaded = registry_->Load(request.tenant, request.spec);
  if (!loaded.ok()) return ErrorResponse(Verb::kReload, loaded);
  TickServeCounter("fixrep.serve.reloads");
  const std::shared_ptr<const TenantSnapshot> snapshot =
      registry_->Find(request.tenant);
  Response response;
  response.verb = Verb::kReload;
  response.reload.generation = snapshot->generation();
  response.reload.num_rules = snapshot->num_rules();
  return response;
}

Response RepairDaemon::ErrorResponse(Verb verb, Status status) const {
  Response response;
  response.verb = verb;
  response.status = std::move(status);
  return response;
}

void RepairDaemon::SendResponse(int fd, const Response& response) {
  // Best-effort gathered writes; on failure (peer gone, send timeout)
  // the poll loop reaps the fd. A successful repair response carries
  // the multi-MB batch, so it goes out part-wise without ever being
  // staged as one contiguous payload.
  if (response.verb == Verb::kRepair && response.status.ok()) {
    const Status sent = WriteRepairResponseTo(fd, response.repair);
    if (sent.code() == StatusCode::kMalformedInput) {
      // Over the frame cap, refused before a byte went out: say so
      // instead of leaving the client waiting.
      (void)WriteFrameTo(fd, EncodeResponse(ErrorResponse(Verb::kRepair,
                                                          sent)));
    }
  } else {
    (void)WriteFrameTo(fd, EncodeResponse(response));
  }
}

}  // namespace fixrep::serve
