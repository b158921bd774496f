#include "common/metrics_server.h"

#include <sys/socket.h>
#include <sys/time.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/metric_scope.h"
#include "common/telemetry.h"

namespace fixrep {

namespace {

std::string FormatQuantile(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f", value);
  return buf;
}

}  // namespace

void ExportPrometheus(std::ostream& os, const MetricsRegistry& registry) {
  size_t skipped = 0;
  const auto exposition_name =
      [&registry, &skipped](const std::string& name) -> const std::string* {
    const std::string* sanitized = registry.PrometheusName(name);
    if (sanitized == nullptr) ++skipped;
    return sanitized;
  };

  for (const auto& [name, value] : registry.SnapshotCounters()) {
    const std::string* prom = exposition_name(name);
    if (prom == nullptr) continue;
    os << "# TYPE " << *prom << " counter\n" << *prom << " " << value << "\n";
  }
  for (const auto& [name, value] : registry.SnapshotGauges()) {
    const std::string* prom = exposition_name(name);
    if (prom == nullptr) continue;
    os << "# TYPE " << *prom << " gauge\n" << *prom << " " << value << "\n";
  }
  for (const auto& [name, values] : registry.SnapshotCounterVectors()) {
    const std::string* prom = exposition_name(name);
    if (prom == nullptr) continue;
    os << "# TYPE " << *prom << " counter\n";
    for (size_t i = 0; i < values.size(); ++i) {
      os << *prom << "{index=\"" << i << "\"} " << values[i] << "\n";
    }
  }
  for (const auto& [name, snap] : registry.SnapshotHistograms()) {
    const std::string* prom = exposition_name(name);
    if (prom == nullptr) continue;
    if (snap.unit[0] != '\0') {
      os << "# UNIT " << *prom << " " << snap.unit << "\n";
    }
    os << "# TYPE " << *prom << " histogram\n";
    uint64_t cumulative = 0;
    for (size_t i = 0; i < snap.buckets.size(); ++i) {
      if (snap.buckets[i] == 0) continue;
      cumulative += snap.buckets[i];
      os << *prom << "_bucket{le=\"" << Histogram::BucketUpperBound(i)
         << "\"} " << cumulative << "\n";
    }
    os << *prom << "_bucket{le=\"+Inf\"} " << snap.count << "\n"
       << *prom << "_sum " << snap.sum << "\n"
       << *prom << "_count " << snap.count << "\n";
    if (snap.count > 0) {
      os << "# TYPE " << *prom << "_p50 gauge\n"
         << *prom << "_p50 " << FormatQuantile(snap.P50()) << "\n"
         << "# TYPE " << *prom << "_p95 gauge\n"
         << *prom << "_p95 " << FormatQuantile(snap.P95()) << "\n"
         << "# TYPE " << *prom << "_p99 gauge\n"
         << *prom << "_p99 " << FormatQuantile(snap.P99()) << "\n";
    }
  }
  if (skipped > 0) {
    os << "# fixrep: " << skipped
       << " metric(s) hidden (non-exposable registry names)\n";
  }
}

MetricsServer::MetricsServer(MetricsServerOptions options)
    : options_(std::move(options)) {
  if (options_.registry == nullptr) {
    options_.registry = &MetricsRegistry::Global();
  }
}

StatusOr<std::unique_ptr<MetricsServer>> MetricsServer::Start(
    MetricsServerOptions options) {
  const bool want_unix = !options.unix_socket_path.empty();
  const bool want_tcp = options.tcp_port >= 0;
  if (want_unix == want_tcp) {
    return Status::MalformedInput(
        "metrics server needs exactly one of unix_socket_path or tcp_port");
  }
  auto server = std::unique_ptr<MetricsServer>(
      new MetricsServer(std::move(options)));
  net::SocketServerOptions socket_options;
  socket_options.unix_socket_path = server->options_.unix_socket_path;
  socket_options.tcp_port = server->options_.tcp_port;
  socket_options.backlog = 4;
  auto inner = net::SocketServer::Start(server.get(), socket_options);
  if (!inner.ok()) return inner.status();
  server->server_ = std::move(inner).value();
  return server;
}

bool MetricsServer::OnAccept(int fd) {
  // One small read is enough for a scrape request line; a client that
  // dribbles bytes gets its response cut off by the send timeout rather
  // than wedging the loop.
  timeval timeout = {2, 0};
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  return true;
}

net::SocketServer::ReadResult MetricsServer::OnReadable(int fd) {
  char request[1024] = {};
  const ssize_t n = recv(fd, request, sizeof(request) - 1, MSG_DONTWAIT);
  if (n <= 0) return net::SocketServer::ReadResult::kClose;

  std::string body;
  std::string header;
  if (std::strncmp(request, "GET /metrics", 12) == 0) {
    std::ostringstream out;
    // The global view also shows the scopes that flush into it only when
    // they end (the daemon's tenants), merged without resetting them.
    MetricsRegistry live;
    const bool global = options_.registry == &MetricsRegistry::Global();
    if (global) PublishProcessGauges(&MetricsRegistry::Global());
    ExportPrometheus(out, global && MergeLiveMetrics(&live)
                              ? live
                              : *options_.registry);
    body = out.str();
    header =
        "HTTP/1.1 200 OK\r\n"
        "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
        "Connection: close\r\n"
        "Content-Length: " +
        std::to_string(body.size()) + "\r\n\r\n";
  } else {
    body = "only GET /metrics is served\n";
    header =
        "HTTP/1.1 404 Not Found\r\n"
        "Content-Type: text/plain; charset=utf-8\r\n"
        "Connection: close\r\n"
        "Content-Length: " +
        std::to_string(body.size()) + "\r\n\r\n";
  }
  const std::string response = header + body;
  size_t sent = 0;
  while (sent < response.size()) {
    const ssize_t w = send(fd, response.data() + sent, response.size() - sent,
                           MSG_NOSIGNAL);
    if (w <= 0) break;
    sent += static_cast<size_t>(w);
  }
  return net::SocketServer::ReadResult::kClose;
}

void MetricsServer::Stop() {
  if (server_ != nullptr) server_->Stop();
}

MetricsServer::~MetricsServer() { Stop(); }

}  // namespace fixrep
