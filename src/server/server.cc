#include "server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/escape.h"
#include "common/str_util.h"
#include "obs/metrics.h"

namespace rox::server {

namespace {

Status ErrnoStatus(const char* what) {
  return Status::Internal(std::string(what) + ": " +
                          std::strerror(errno));
}

bool SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr std::string_view kJsonType = "application/json";
constexpr std::string_view kTextType = "text/plain; charset=utf-8";

std::string JsonError(std::string_view message) {
  std::string out = "{\"error\": \"";
  AppendJsonEscaped(&out, message);
  out += "\"}\n";
  return out;
}

// Segments one sendmsg takes at most: two per response, so a burst of
// pipelined answers still goes out in one call.
constexpr size_t kMaxIovecs = 8;

}  // namespace

void HttpServer::Outbound::Push(std::string head, std::string body) {
  segments.push_back(std::move(head));
  if (!body.empty()) segments.push_back(std::move(body));
}

ssize_t HttpServer::Outbound::SendTo(int fd) {
  iovec iov[kMaxIovecs];
  size_t count = 0;
  for (auto it = segments.begin();
       it != segments.end() && count < kMaxIovecs; ++it, ++count) {
    const size_t skip = count == 0 ? sent : 0;
    iov[count].iov_base = it->data() + skip;
    iov[count].iov_len = it->size() - skip;
  }
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = count;
  const ssize_t n = sendmsg(fd, &msg, MSG_NOSIGNAL);
  for (size_t left = n > 0 ? static_cast<size_t>(n) : 0; left > 0;) {
    const size_t rest = segments.front().size() - sent;
    if (left < rest) {
      sent += left;
      break;
    }
    left -= rest;
    segments.pop_front();
    sent = 0;
  }
  return n;
}

int HttpServer::HttpStatusFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return 200;
    case StatusCode::kInvalidArgument:
    case StatusCode::kParseError:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kResourceExhausted:
      return 429;
    case StatusCode::kCancelled:
      return 499;
    case StatusCode::kDeadlineExceeded:
      return 504;
    default:
      return 500;
  }
}

HttpServer::HttpServer(engine::Engine* engine, ServerOptions options)
    : engine_(engine), options_(std::move(options)) {}

HttpServer::~HttpServer() { Stop(); }

Status HttpServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::Internal("server already running");
  }
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return ErrnoStatus("socket");
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen host: " + options_.host);
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status s = ErrnoStatus("bind");
    close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (listen(listen_fd_, 128) != 0) {
    Status s = ErrnoStatus("listen");
    close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  socklen_t len = sizeof(addr);
  getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  bound_port_ = ntohs(addr.sin_port);
  if (!SetNonBlocking(listen_fd_)) {
    close(listen_fd_);
    listen_fd_ = -1;
    return ErrnoStatus("fcntl");
  }

  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) {
    close(listen_fd_);
    listen_fd_ = -1;
    return ErrnoStatus("pipe");
  }
  wake_read_fd_ = pipe_fds[0];
  SetNonBlocking(wake_read_fd_);
  SetNonBlocking(pipe_fds[1]);
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    shared_->wake_fd = pipe_fds[1];
  }

  stop_requested_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  loop_thread_ = std::thread([this] { Loop(); });
  return Status::Ok();
}

void HttpServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stop_requested_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    if (shared_->wake_fd >= 0) {
      char b = 'q';
      (void)!write(shared_->wake_fd, &b, 1);
    }
  }
  if (loop_thread_.joinable()) loop_thread_.join();

  // The loop has exited; this thread now owns conns_. Kill whatever is
  // still on the engine pool, close every socket, and wait for the
  // kills to unwind so no callback can race the pipe teardown.
  for (auto& [id, conn] : conns_) {
    (void)id;
    if (conn.executing) {
      (void)engine_->Kill(conn.sequence);
      stats_.disconnect_kills.fetch_add(1, std::memory_order_relaxed);
    }
    close(conn.fd);
    stats_.closed.fetch_add(1, std::memory_order_relaxed);
  }
  conns_.clear();
  {
    std::unique_lock<std::mutex> lock(shared_->mu);
    shared_->cv.wait(lock, [&] { return shared_->inflight == 0; });
    if (shared_->wake_fd >= 0) {
      close(shared_->wake_fd);
      shared_->wake_fd = -1;
    }
    shared_->completions.clear();
  }
  if (wake_read_fd_ >= 0) {
    close(wake_read_fd_);
    wake_read_fd_ = -1;
  }
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
}

ServerStats HttpServer::Snapshot() const {
  ServerStats s;
  s.connections_accepted = stats_.accepted.load(std::memory_order_relaxed);
  s.connections_closed = stats_.closed.load(std::memory_order_relaxed);
  s.connections_refused = stats_.refused.load(std::memory_order_relaxed);
  s.open_connections = s.connections_accepted - s.connections_closed;
  s.requests_total = stats_.requests.load(std::memory_order_relaxed);
  s.responses_2xx = stats_.r2xx.load(std::memory_order_relaxed);
  s.responses_4xx = stats_.r4xx.load(std::memory_order_relaxed);
  s.responses_5xx = stats_.r5xx.load(std::memory_order_relaxed);
  s.disconnect_kills =
      stats_.disconnect_kills.load(std::memory_order_relaxed);
  s.bytes_read = stats_.bytes_read.load(std::memory_order_relaxed);
  s.bytes_written = stats_.bytes_written.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    s.queries_inflight = shared_->inflight;
  }
  return s;
}

void HttpServer::Loop() {
  std::vector<pollfd> fds;
  std::vector<uint64_t> ids;  // ids[i] maps fds[i] back to conns_
  while (!stop_requested_.load(std::memory_order_acquire)) {
    fds.clear();
    ids.clear();
    fds.push_back({wake_read_fd_, POLLIN, 0});
    fds.push_back({listen_fd_, POLLIN, 0});
    for (auto& [id, conn] : conns_) {
      short events = POLLIN;  // always watch reads: disconnects too
      if (!conn.out.empty()) events |= POLLOUT;
      fds.push_back({conn.fd, events, 0});
      ids.push_back(id);
    }
    int n = poll(fds.data(), fds.size(), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[0].revents != 0) {
      char buf[256];
      while (read(wake_read_fd_, buf, sizeof(buf)) > 0) {
      }
      DrainCompletions();
    }
    if (fds[1].revents != 0) AcceptNew();
    for (size_t i = 2; i < fds.size(); ++i) {
      uint64_t id = ids[i - 2];
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;  // closed by an earlier event
      Connection& conn = it->second;
      short re = fds[i].revents;
      if (re == 0) continue;
      if ((re & (POLLERR | POLLNVAL)) != 0) {
        CloseConnection(id, conn.executing);
        continue;
      }
      if ((re & (POLLIN | POLLHUP)) != 0 && !ReadFrom(id, conn)) {
        CloseConnection(id, conn.executing);
        continue;
      }
      ProcessRequests(id, conn);
      if (!FlushWrites(id, conn)) {
        CloseConnection(id, conn.executing);
        continue;
      }
      if (conn.close_after_write && conn.out.empty() && !conn.executing) {
        CloseConnection(id, false);
      }
    }
  }
}

void HttpServer::AcceptNew() {
  for (;;) {
    int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN, or transient accept failure
    if (conns_.size() >= options_.max_connections) {
      // Over capacity: a one-shot 503 and an immediate close. The
      // socket is still blocking-fresh; a single send suffices for a
      // response this small.
      std::string body = JsonError("server at connection capacity");
      std::string head = BuildHttpResponseHead(503, kJsonType, body.size(),
                                               /*keep_alive=*/false);
      Outbound refusal;
      refusal.Push(std::move(head), std::move(body));
      (void)refusal.SendTo(fd);
      close(fd);
      stats_.refused.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    SetNonBlocking(fd);
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    uint64_t id = next_conn_id_++;
    Connection conn;
    conn.fd = fd;
    conn.parser = HttpParser(options_.parser_limits);
    conns_.emplace(id, std::move(conn));
    stats_.accepted.fetch_add(1, std::memory_order_relaxed);
  }
}

bool HttpServer::ReadFrom(uint64_t id, Connection& conn) {
  (void)id;
  char buf[4096];
  for (;;) {
    ssize_t n = read(conn.fd, buf, sizeof(buf));
    if (n > 0) {
      stats_.bytes_read.fetch_add(static_cast<uint64_t>(n),
                                  std::memory_order_relaxed);
      conn.parser.Feed(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) return false;  // orderly shutdown from the peer
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    return false;
  }
}

bool HttpServer::FlushWrites(uint64_t id, Connection& conn) {
  (void)id;
  while (!conn.out.empty()) {
    ssize_t n = conn.out.SendTo(conn.fd);
    if (n > 0) {
      stats_.bytes_written.fetch_add(static_cast<uint64_t>(n),
                                     std::memory_order_relaxed);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    return false;
  }
  return true;
}

void HttpServer::RecordResponse(int status) {
  if (status < 400) {
    stats_.r2xx.fetch_add(1, std::memory_order_relaxed);
  } else if (status < 500) {
    stats_.r4xx.fetch_add(1, std::memory_order_relaxed);
  } else {
    stats_.r5xx.fetch_add(1, std::memory_order_relaxed);
  }
}

void HttpServer::QueueResponse(Connection& conn, int status,
                               std::string_view content_type,
                               std::string body) {
  bool keep_alive = !conn.close_after_write;
  std::string head =
      BuildHttpResponseHead(status, content_type, body.size(), keep_alive);
  conn.out.Push(std::move(head), std::move(body));
  RecordResponse(status);
}

void HttpServer::ProcessRequests(uint64_t id, Connection& conn) {
  while (conn.parser.HasRequest()) {
    conn.pending.push_back(conn.parser.TakeRequest());
  }
  if (conn.parser.failed() && !conn.close_after_write) {
    // Protocol damage is unrecoverable on this connection: answer the
    // error and close once written.
    conn.close_after_write = true;
    QueueResponse(conn, conn.parser.error_status(), kJsonType,
                  JsonError(conn.parser.error_message()));
  }
  // One query in flight per connection; further pipelined requests
  // wait their turn in arrival order.
  while (!conn.executing && !conn.pending.empty() &&
         !conn.close_after_write) {
    HttpRequest req = std::move(conn.pending.front());
    conn.pending.pop_front();
    HandleRequest(id, conn, std::move(req));
  }
}

void HttpServer::HandleRequest(uint64_t id, Connection& conn,
                               HttpRequest req) {
  stats_.requests.fetch_add(1, std::memory_order_relaxed);
  if (req.WantsClose()) conn.close_after_write = true;
  std::string path = req.target.substr(0, req.target.find('?'));

  if (path == "/query") {
    if (req.method != "POST") {
      QueueResponse(conn, 405, kJsonType, JsonError("use POST /query"));
      return;
    }
    DispatchQuery(id, conn, req);
    return;
  }
  if (path == "/healthz") {
    if (req.method != "GET") {
      QueueResponse(conn, 405, kJsonType, JsonError("use GET /healthz"));
      return;
    }
    QueueResponse(conn, 200, kTextType, "ok\n");
    return;
  }
  if (path == "/metrics") {
    if (req.method != "GET") {
      QueueResponse(conn, 405, kJsonType, JsonError("use GET /metrics"));
      return;
    }
    QueueResponse(conn, 200, kTextType,
                  engine_->metrics_registry().DumpText());
    return;
  }
  if (path == "/stats") {
    if (req.method != "GET") {
      QueueResponse(conn, 405, kJsonType, JsonError("use GET /stats"));
      return;
    }
    QueueResponse(conn, 200, kJsonType, engine_->Stats().ToJson());
    return;
  }
  QueueResponse(conn, 404, kJsonType, JsonError("no such endpoint"));
}

void HttpServer::DispatchQuery(uint64_t id, Connection& conn,
                               const HttpRequest& req) {
  engine::QueryRequest qreq;
  qreq.text = req.body;
  if (qreq.text.empty()) {
    QueueResponse(conn, 400, kJsonType,
                  JsonError("empty request body (expected XQuery text)"));
    return;
  }

  QueryLimits limits;
  uint64_t v = 0;
  if (const std::string* h = req.FindHeader("X-Deadline-Ms")) {
    if (!ParseDecimalU64(*h, &v)) {
      QueueResponse(conn, 400, kJsonType, JsonError("bad X-Deadline-Ms"));
      return;
    }
    limits.deadline_ms = static_cast<double>(v);
  }
  if (const std::string* h = req.FindHeader("X-Memory-Budget-Mb")) {
    // Beyond 2^44 - 1 MiB the byte count would wrap (2^44 to 0, which
    // means unlimited).
    if (!ParseDecimalU64(*h, &v) || v > (UINT64_MAX >> 20)) {
      QueueResponse(conn, 400, kJsonType,
                    JsonError("bad X-Memory-Budget-Mb"));
      return;
    }
    limits.memory_budget_bytes = v << 20;
  }
  if (const std::string* h = req.FindHeader("X-Max-Rows")) {
    if (!ParseDecimalU64(*h, &v)) {
      QueueResponse(conn, 400, kJsonType, JsonError("bad X-Max-Rows"));
      return;
    }
    limits.max_result_rows = v;
  }
  if (limits.Any()) qreq.limits = limits;

  if (const std::string* h = req.FindHeader("X-Query-Mode")) {
    engine::QueryMode mode;
    if (!engine::ParseQueryMode(*h, &mode)) {
      QueueResponse(
          conn, 400, kJsonType,
          JsonError("bad X-Query-Mode (execute|explain|profile)"));
      return;
    }
    qreq.mode = mode;
  }
  if (const std::string* h = req.FindHeader("X-Trace-Level")) {
    obs::TraceLevel level;
    if (!obs::ParseTraceLevel(*h, &level)) {
      QueueResponse(conn, 400, kJsonType,
                    JsonError("bad X-Trace-Level (off|spans|full)"));
      return;
    }
    qreq.trace_level = level;
  }
  if (const std::string* h = req.FindHeader("X-Client-Tag")) {
    qreq.client_tag = *h;
  }

  engine::ResponseJsonOptions jopts;
  jopts.max_rows = options_.max_response_rows;
  jopts.include_trace =
      qreq.mode == engine::QueryMode::kProfile ||
      (qreq.trace_level.has_value() &&
       *qreq.trace_level != obs::TraceLevel::kOff);

  uint64_t sequence = engine_->ReserveSequence();
  conn.executing = true;
  conn.sequence = sequence;
  bool keep_alive = !conn.close_after_write;
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    ++shared_->inflight;
  }
  obs::MetricsRegistry& reg = engine_->metrics_registry();
  obs::Histogram* latency = reg.GetHistogram(
      "rox_server_query_ms", obs::Histogram::LatencyBucketsMs(),
      "server-side /query latency (dispatch to response built)");
  double start_ms = NowMs();

  std::shared_ptr<Shared> shared = shared_;
  uint64_t conn_id = id;
  engine_->ExecuteAsync(
      std::move(qreq), sequence,
      [shared, conn_id, keep_alive, jopts, latency,
       start_ms](engine::QueryResponse resp) {
        // Engine-pool thread: render the response off the event loop,
        // then hand it over by move and wake the loop.
        int http = HttpStatusFor(resp.status);
        std::string body = resp.ToJson(jopts);
        std::string head =
            BuildHttpResponseHead(http, kJsonType, body.size(), keep_alive);
        if (latency != nullptr) latency->Observe(NowMs() - start_ms);
        std::lock_guard<std::mutex> lock(shared->mu);
        shared->completions.push_back(
            Completion{conn_id, std::move(head), std::move(body), http});
        --shared->inflight;
        if (shared->wake_fd >= 0) {
          char b = 'c';
          (void)!write(shared->wake_fd, &b, 1);
        }
        shared->cv.notify_all();
      });
}

void HttpServer::DrainCompletions() {
  std::vector<Completion> done;
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    done.swap(shared_->completions);
  }
  for (Completion& c : done) {
    auto it = conns_.find(c.conn_id);
    if (it == conns_.end()) continue;  // client left mid-query
    Connection& conn = it->second;
    conn.executing = false;
    conn.sequence = 0;
    conn.out.Push(std::move(c.head), std::move(c.body));
    RecordResponse(c.http_status);
    // A pipelined request may have been waiting on this completion.
    ProcessRequests(c.conn_id, conn);
    if (!FlushWrites(c.conn_id, conn)) {
      CloseConnection(c.conn_id, conn.executing);
      continue;
    }
    if (conn.close_after_write && conn.out.empty() && !conn.executing) {
      CloseConnection(c.conn_id, false);
    }
  }
}

void HttpServer::CloseConnection(uint64_t id, bool killed_query) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  if (killed_query && it->second.executing) {
    // The peer vanished mid-query: cancel the work it no longer wants
    // so its admission slot frees up for connected clients. The
    // completion for the killed query finds this id gone and is
    // dropped.
    (void)engine_->Kill(it->second.sequence);
    stats_.disconnect_kills.fetch_add(1, std::memory_order_relaxed);
  }
  close(it->second.fd);
  conns_.erase(it);
  stats_.closed.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace rox::server
