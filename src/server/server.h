// roxd's network front end (DESIGN.md §15): a poll()-based event loop
// that multiplexes HTTP/1.1 client sessions onto the engine's thread
// pools. No external dependencies — raw sockets + src/server/http.h.
//
// Threading model
//   * One event-loop thread owns every socket: it accepts, reads,
//     parses, writes, and closes. Connection state is touched by this
//     thread only, so it needs no locks.
//   * Query execution happens on the *engine's* pool via
//     Engine::ExecuteAsync(request, sequence, done). The done callback
//     (a pool worker) renders the response head and JSON body off the
//     event loop, moves them onto a mutex-protected completion queue,
//     and wakes the loop through a self-pipe.
//   * Every response is queued on its connection as segments (head,
//     body) that the loop sends in place with sendmsg: no response byte
//     is copied after rendering.
//   * The loop drains completions by connection id. A client that
//     disconnected mid-query maps onto Engine::Kill(sequence) — the
//     query unwinds cooperatively, frees its admission slot, and its
//     completion is dropped on the floor (the id no longer resolves).
//
// Endpoints
//   POST /query    body = XQuery text; headers map onto QueryRequest:
//                  X-Deadline-Ms, X-Memory-Budget-Mb, X-Max-Rows (→
//                  QueryLimits), X-Trace-Level (off|spans|full),
//                  X-Query-Mode (execute|explain|profile),
//                  X-Client-Tag. Response: QueryResponse::ToJson.
//   GET /stats     EngineStats::ToJson (application/json)
//   GET /metrics   MetricsRegistry text exposition (Prometheus format)
//   GET /healthz   200 "ok"

#ifndef ROX_SERVER_SERVER_H_
#define ROX_SERVER_SERVER_H_

#include <sys/types.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/status.h"
#include "engine/engine.h"
#include "server/http.h"

namespace rox::server {

struct ServerOptions {
  std::string host = "127.0.0.1";
  // 0 asks the kernel for an ephemeral port; HttpServer::port() reports
  // the bound one (how tests avoid port collisions).
  uint16_t port = 8080;
  // Connections beyond this are answered 503 and closed at accept.
  size_t max_connections = 1024;
  // Responses embed at most this many result rows (0 = all). The full
  // row_count is always reported and truncation is explicit
  // ("rows_truncated": true); without chunked streaming, an unbounded
  // body would be buffered whole on the single event-loop thread.
  size_t max_response_rows = 1000;
  HttpParserLimits parser_limits;
};

// Point-in-time counters (atomics snapshotted without locks; the
// turnstile totals are exact, open_connections is the loop's view).
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;
  uint64_t connections_refused = 0;  // over max_connections → 503
  uint64_t open_connections = 0;     // accepted - closed
  uint64_t requests_total = 0;
  uint64_t responses_2xx = 0;
  uint64_t responses_4xx = 0;
  uint64_t responses_5xx = 0;
  uint64_t queries_inflight = 0;
  uint64_t disconnect_kills = 0;  // mid-query disconnects → Engine::Kill
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
};

// One engine behind one listening socket. Start() spawns the loop;
// Stop() (or the destructor) kills in-flight server queries, drains
// them, and tears every connection down — no fd outlives the server.
class HttpServer {
 public:
  HttpServer(engine::Engine* engine, ServerOptions options);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  // Binds, listens, and spawns the event loop. Errors (port in use,
  // bad host) come back as kInternal with the errno text.
  Status Start();
  // Idempotent. Blocks until the loop exited and in-flight queries
  // drained (they are killed, not awaited to completion).
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  // The actually-bound port (resolves port 0).
  uint16_t port() const { return bound_port_; }

  ServerStats Snapshot() const;

  // Maps an engine Status onto the HTTP response code /query uses:
  // 200 ok, 400 invalid, 404 not-found, 429 shed/over-budget,
  // 499 cancelled, 504 deadline, 500 anything else.
  static int HttpStatusFor(const Status& status);

 private:
  // Response bytes not yet accepted by the socket, as whole segments (a
  // response head, a body) queued by move. SendTo writes the front ones
  // in place with one sendmsg and pops what went out: nothing is
  // concatenated or shifted. `sent` is how much of the front segment
  // is already written.
  struct Outbound {
    std::deque<std::string> segments;
    size_t sent = 0;

    bool empty() const { return segments.empty(); }
    // Queues one response: its head, then its body.
    void Push(std::string head, std::string body);
    // One sendmsg over the front segments; returns its result.
    ssize_t SendTo(int fd);
  };

  struct Connection {
    int fd = -1;
    HttpParser parser;
    Outbound out;
    std::deque<HttpRequest> pending;  // parsed, waiting on in-flight
    bool executing = false;    // a /query is on the engine pool
    uint64_t sequence = 0;     // its kill handle
    bool close_after_write = false;
  };

  // A finished query's rendered response, keyed back to its
  // connection (which may be gone — then it is dropped).
  struct Completion {
    uint64_t conn_id = 0;
    std::string head;
    std::string body;
    int http_status = 0;
  };

  // State shared with engine-pool callbacks. Kept in a shared_ptr so a
  // callback outliving the server object still has somewhere safe to
  // write (Stop() drains before the pipe closes, but the engine pool
  // may invoke callbacks for killed queries after Stop returns).
  struct Shared {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<Completion> completions;
    size_t inflight = 0;
    int wake_fd = -1;  // self-pipe write end; -1 once closed
  };

  void Loop();
  void AcceptNew();
  // Reads available bytes; returns false when the connection died.
  bool ReadFrom(uint64_t id, Connection& conn);
  bool FlushWrites(uint64_t id, Connection& conn);
  void ProcessRequests(uint64_t id, Connection& conn);
  void HandleRequest(uint64_t id, Connection& conn, HttpRequest req);
  void DispatchQuery(uint64_t id, Connection& conn, const HttpRequest& req);
  void QueueResponse(Connection& conn, int status,
                     std::string_view content_type, std::string body);
  void DrainCompletions();
  void CloseConnection(uint64_t id, bool killed_query);
  void RecordResponse(int status);

  engine::Engine* engine_;
  ServerOptions options_;

  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  uint16_t bound_port_ = 0;
  std::thread loop_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};

  std::shared_ptr<Shared> shared_ = std::make_shared<Shared>();

  uint64_t next_conn_id_ = 1;
  std::map<uint64_t, Connection> conns_;  // event-loop thread only

  // Stats (atomics: written by loop + callbacks, read by Snapshot).
  struct {
    std::atomic<uint64_t> accepted{0}, closed{0}, refused{0};
    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> r2xx{0}, r4xx{0}, r5xx{0};
    std::atomic<uint64_t> disconnect_kills{0};
    std::atomic<uint64_t> bytes_read{0}, bytes_written{0};
  } stats_;
};

}  // namespace rox::server

#endif  // ROX_SERVER_SERVER_H_
