// Integration tests for the roxd network front end (DESIGN.md §15):
// real sockets against a live HttpServer on an ephemeral port —
// request/response roundtrips, header-driven governance, protocol
// edge cases, mid-query disconnects mapping onto Engine::Kill, and
// concurrent client sessions against live corpus publishes.

#include "server/server.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "index/corpus.h"
#include "server/client.h"
#include "workload/xmark.h"

namespace rox {
namespace {

// Polls `cond` until true or ~5 s (sanitizer builds run slow; the
// bound exists only to fail the test instead of hanging it).
template <typename F>
bool WaitFor(F cond) {
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return cond();
}

// Pulls `"key": <uint>` out of a response body; -1 when absent.
int64_t JsonUint(const std::string& body, const std::string& key) {
  std::string needle = "\"" + key + "\": ";
  size_t pos = body.find(needle);
  if (pos == std::string::npos) return -1;
  return std::strtoll(body.c_str() + pos + needle.size(), nullptr, 10);
}

class ServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto corpus = std::make_unique<Corpus>();
    XmarkGenOptions gen;
    gen.items = static_cast<uint32_t>(4350 * 0.15);
    gen.persons = static_cast<uint32_t>(5100 * 0.15);
    gen.open_auctions = static_cast<uint32_t>(2400 * 0.15);
    ASSERT_TRUE(GenerateXmarkDocument(*corpus, gen).ok());
    shared_corpus_ = new std::shared_ptr<const Corpus>(std::move(corpus));
  }
  static void TearDownTestSuite() {
    delete shared_corpus_;
    shared_corpus_ = nullptr;
  }
  static std::shared_ptr<const Corpus> corpus() { return *shared_corpus_; }

  // The ~hundreds-of-ms theta-join workload — long enough that a
  // disconnect lands mid-execution.
  static std::string SlowQuery() {
    return XmarkQuantityIncreaseQuery(CmpOp::kLt, 1);
  }
  static std::string FastQuery() {
    return R"(for $p in doc("xmark.xml")//person return $p)";
  }
  static std::string TwoRowQuery() {
    return R"(for $p in doc("xmark.xml")//person)"
           R"([./@id = "person0" or ./@id = "person1"] return $p)";
  }
  // ~57K rows, ~6.2 MB of response JSON: items of quantity 3 per bidder
  // whose increase is not 3.
  static std::string LargeQuery() {
    return XmarkQuantityIncreaseQuery(CmpOp::kNe, 3);
  }

  // Starts a server on an ephemeral port over a fresh engine.
  struct Stack {
    engine::Engine engine;
    server::HttpServer server;
    Stack(std::shared_ptr<const Corpus> c, engine::EngineOptions eopts,
          server::ServerOptions sopts)
        : engine(std::move(c), eopts), server(&engine, sopts) {}
  };
  static std::unique_ptr<Stack> StartStack(
      engine::EngineOptions eopts = {},
      server::ServerOptions sopts = {}) {
    sopts.port = 0;
    auto stack = std::make_unique<Stack>(corpus(), eopts, sopts);
    Status s = stack->server.Start();
    EXPECT_TRUE(s.ok()) << s.ToString();
    return stack;
  }

  static server::HttpClient Connect(const Stack& stack) {
    server::HttpClient client;
    Status s = client.Connect("127.0.0.1", stack.server.port());
    EXPECT_TRUE(s.ok()) << s.ToString();
    return client;
  }

 private:
  static std::shared_ptr<const Corpus>* shared_corpus_;
};

std::shared_ptr<const Corpus>* ServerTest::shared_corpus_ = nullptr;

TEST_F(ServerTest, QueryRoundtripOverOneKeepAliveConnection) {
  auto stack = StartStack();
  server::HttpClient client = Connect(*stack);

  auto health = client.Request("GET", "/healthz", {}, "");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->status, 200);
  EXPECT_EQ(health->body, "ok\n");

  auto resp = client.Request("POST", "/query", {}, FastQuery());
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->status, 200);
  EXPECT_NE(resp->body.find("\"code\": \"OK\""), std::string::npos);
  EXPECT_GT(JsonUint(resp->body, "row_count"), 0);

  // Same connection, next request (keep-alive): a replay hit.
  auto again = client.Request("POST", "/query", {}, FastQuery());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->status, 200);
  EXPECT_NE(again->body.find("\"result_cache_hit\": true"),
            std::string::npos);

  auto stats = client.Request("GET", "/stats", {}, "");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->status, 200);
  EXPECT_EQ(JsonUint(stats->body, "completed"), 2);

  auto metrics = client.Request("GET", "/metrics", {}, "");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->status, 200);
  EXPECT_NE(metrics->body.find("rox_server_query_ms"), std::string::npos);

  client.Close();
  EXPECT_TRUE(WaitFor([&] {
    return stack->server.Snapshot().open_connections == 0;
  }));
  server::ServerStats s = stack->server.Snapshot();
  EXPECT_EQ(s.requests_total, 5u);
  EXPECT_EQ(s.responses_2xx, 5u);
}

TEST_F(ServerTest, HeadersMapOntoQueryLimitsAndModes) {
  auto stack = StartStack();
  server::HttpClient client = Connect(*stack);

  // Explain mode: no execution, an "explain" field in the JSON.
  auto explain = client.Request("POST", "/query",
                                {{"X-Query-Mode", "explain"}}, FastQuery());
  ASSERT_TRUE(explain.ok());
  EXPECT_EQ(explain->status, 200);
  EXPECT_NE(explain->body.find("\"explain\""), std::string::npos);
  EXPECT_NE(explain->body.find("\"mode\": \"explain\""), std::string::npos);

  // A 1-row cap trips kResourceExhausted → 429.
  auto capped = client.Request("POST", "/query", {{"X-Max-Rows", "1"}},
                               FastQuery());
  ASSERT_TRUE(capped.ok());
  EXPECT_EQ(capped->status, 429);
  EXPECT_NE(capped->body.find("ResourceExhausted"), std::string::npos);

  // An absurdly small deadline trips kDeadlineExceeded → 504.
  auto late = client.Request("POST", "/query",
                             {{"X-Deadline-Ms", "1"}}, SlowQuery());
  ASSERT_TRUE(late.ok());
  EXPECT_EQ(late->status, 504);

  // A client tag echoes back.
  auto tagged = client.Request("POST", "/query",
                               {{"X-Client-Tag", "test-42"}}, FastQuery());
  ASSERT_TRUE(tagged.ok());
  EXPECT_NE(tagged->body.find("\"client_tag\": \"test-42\""),
            std::string::npos);

  // Junk header values are rejected before anything executes. 2^44 MiB
  // is 2^64 bytes: it used to wrap to a budget of 0, i.e. unlimited.
  // Numbers are digits only: a sign used to be accepted.
  const std::vector<std::pair<std::string, std::string>> junk = {
      {"X-Deadline-Ms", "banana"},
      {"X-Memory-Budget-Mb", "banana"},
      {"X-Max-Rows", "banana"},
      {"X-Query-Mode", "banana"},
      {"X-Trace-Level", "banana"},
      {"X-Memory-Budget-Mb", "17592186044416"},
      {"X-Deadline-Ms", "+1"},
      {"X-Memory-Budget-Mb", "+1"},
      {"X-Max-Rows", "+1"},
  };
  for (const auto& header : junk) {
    auto bad = client.Request("POST", "/query", {header}, FastQuery());
    ASSERT_TRUE(bad.ok()) << header.first << ": " << header.second;
    EXPECT_EQ(bad->status, 400) << header.first << ": " << header.second;
  }

  // A query-text parse error maps to 400 with the stable JSON shape.
  auto parse_err = client.Request("POST", "/query", {}, "for broken (");
  ASSERT_TRUE(parse_err.ok());
  EXPECT_EQ(parse_err->status, 400);
  EXPECT_NE(parse_err->body.find("\"status\""), std::string::npos);
}

TEST_F(ServerTest, UnrepresentableDeadlinesNeverExpire) {
  engine::EngineOptions eopts;
  eopts.enable_cache = false;  // both requests really execute
  auto stack = StartStack(eopts);
  server::HttpClient client = Connect(*stack);
  // 10^13 ms overflows the clock's nanoseconds and 2^64 - 1 ms does not
  // fit int64 at all; both used to time out at once (504).
  for (const char* ms : {"10000000000000", "18446744073709551615"}) {
    auto resp = client.Request("POST", "/query", {{"X-Deadline-Ms", ms}},
                               TwoRowQuery());
    ASSERT_TRUE(resp.ok()) << ms;
    EXPECT_EQ(resp->status, 200) << ms;
    EXPECT_EQ(JsonUint(resp->body, "row_count"), 2) << ms;
  }
}

TEST_F(ServerTest, ProtocolEdgeCases) {
  auto stack = StartStack();

  {  // Unknown endpoint and wrong methods.
    server::HttpClient client = Connect(*stack);
    auto missing = client.Request("GET", "/nope", {}, "");
    ASSERT_TRUE(missing.ok());
    EXPECT_EQ(missing->status, 404);
    auto wrong = client.Request("GET", "/query", {}, "");
    ASSERT_TRUE(wrong.ok());
    EXPECT_EQ(wrong->status, 405);
    auto wrong2 = client.Request("POST", "/metrics", {}, "x");
    ASSERT_TRUE(wrong2.ok());
    EXPECT_EQ(wrong2->status, 405);
    auto empty = client.Request("POST", "/query", {}, "");
    ASSERT_TRUE(empty.ok());
    EXPECT_EQ(empty->status, 400);
  }

  {  // The render cap truncates rows explicitly, never silently: the
     // full row_count survives and "rows_truncated" is flagged, so a
     // giant result cannot buffer an unbounded body on the event loop.
    server::ServerOptions sopts;
    sopts.max_response_rows = 1;
    auto capped = StartStack({}, sopts);
    server::HttpClient client = Connect(*capped);
    auto resp = client.Request("POST", "/query", {}, FastQuery());
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->status, 200);
    EXPECT_NE(resp->body.find("\"rows_truncated\": true"),
              std::string::npos);
    EXPECT_GT(JsonUint(resp->body, "row_count"), 1);
  }

  {  // An oversized body earns 413 and a close.
    server::ServerOptions sopts;
    sopts.parser_limits.max_body_bytes = 64;
    auto small = StartStack({}, sopts);
    server::HttpClient client = Connect(*small);
    auto big = client.Request("POST", "/query", {},
                              std::string(1000, 'q'));
    ASSERT_TRUE(big.ok());
    EXPECT_EQ(big->status, 413);
    EXPECT_FALSE(client.connected());  // server said Connection: close
  }

  // Every connection is gone once clients are.
  EXPECT_TRUE(WaitFor([&] {
    return stack->server.Snapshot().open_connections == 0;
  }));
}

TEST_F(ServerTest, MidQueryDisconnectKillsAndFreesAdmissionSlot) {
  engine::EngineOptions eopts;
  eopts.max_concurrent_queries = 1;
  eopts.max_queued_queries = 0;
  auto stack = StartStack(eopts);

  // Client A posts the slow query on a raw socket (never reading the
  // response), then vanishes mid-execution.
  {
    int fd = socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(stack->server.port());
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
              0);
    std::string q = SlowQuery();
    char head[128];
    int n = std::snprintf(head, sizeof(head),
                          "POST /query HTTP/1.1\r\nContent-Length: "
                          "%zu\r\n\r\n",
                          q.size());
    std::string req(head, static_cast<size_t>(n));
    req += q;
    ASSERT_EQ(send(fd, req.data(), req.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(req.size()));
    // Wait until the query occupies the engine's only admission slot.
    ASSERT_TRUE(WaitFor([&] {
      return stack->engine.Stats().admission_running >= 1;
    }));
    close(fd);  // the peer disappears mid-query
  }

  // The server notices the disconnect and kills the query: the kill
  // is counted, the query unwinds as cancelled, and the admission
  // slot frees up.
  ASSERT_TRUE(WaitFor([&] {
    return stack->server.Snapshot().disconnect_kills >= 1;
  }));
  ASSERT_TRUE(WaitFor([&] {
    return stack->engine.Stats().queries_cancelled >= 1;
  }));
  ASSERT_TRUE(WaitFor([&] {
    return stack->engine.Stats().admission_running == 0;
  }));

  // A connected client gets the freed slot (would be 429 otherwise).
  server::HttpClient b = Connect(*stack);
  auto resp = b.Request("POST", "/query", {}, FastQuery());
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->status, 200);

  // No leaked connections or in-flight work.
  b.Close();
  EXPECT_TRUE(WaitFor([&] {
    server::ServerStats s = stack->server.Snapshot();
    return s.open_connections == 0 && s.queries_inflight == 0;
  }));
}

TEST_F(ServerTest, AdmissionShedMapsTo429) {
  engine::EngineOptions eopts;
  eopts.max_concurrent_queries = 1;
  eopts.max_queued_queries = 0;
  auto stack = StartStack(eopts);

  server::HttpClient a = Connect(*stack);
  std::thread slow([&] {
    auto r = a.Request("POST", "/query", {}, SlowQuery());
    ASSERT_TRUE(r.ok());
  });
  ASSERT_TRUE(WaitFor([&] {
    return stack->engine.Stats().admission_running >= 1;
  }));

  server::HttpClient b = Connect(*stack);
  auto shed = b.Request("POST", "/query", {}, FastQuery());
  ASSERT_TRUE(shed.ok());
  EXPECT_EQ(shed->status, 429);
  slow.join();
  EXPECT_GE(stack->engine.Stats().queries_shed, 1u);
}

TEST_F(ServerTest, ConcurrentSessionsAgainstLivePublishes) {
  engine::EngineOptions eopts;
  eopts.num_threads = 4;
  auto stack = StartStack(eopts);

  // The workload queries doc("xmark.xml") while publishes add
  // *other* documents: every response must see the same row count
  // regardless of which epoch its snapshot pinned — the oracle the
  // snapshot-fuzz harness uses, reduced to its invariant.
  constexpr int kClients = 4;
  constexpr int kQueriesPerClient = 8;
  std::atomic<int64_t> expected_rows{-1};
  std::atomic<int> failures{0};

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      server::HttpClient client;
      if (!client.Connect("127.0.0.1", stack->server.port()).ok()) {
        failures.fetch_add(1);
        return;
      }
      char tag[32];
      std::snprintf(tag, sizeof(tag), "client-%d", c);
      for (int q = 0; q < kQueriesPerClient; ++q) {
        auto resp = client.Request("POST", "/query",
                                   {{"X-Client-Tag", tag}}, FastQuery());
        if (!resp.ok() || resp->status != 200) {
          failures.fetch_add(1);
          continue;
        }
        int64_t rows = JsonUint(resp->body, "row_count");
        int64_t want = -1;
        if (!expected_rows.compare_exchange_strong(want, rows) &&
            want != rows) {
          failures.fetch_add(1);
        }
      }
    });
  }

  // Publish new epochs while the clients hammer the server.
  for (int i = 0; i < 6; ++i) {
    char name[32];
    std::snprintf(name, sizeof(name), "live-%d.xml", i);
    auto ids = stack->engine.AddDocuments(
        {{name, "<doc><v>" + std::to_string(i) + "</v></doc>"}});
    ASSERT_TRUE(ids.ok()) << ids.status().ToString();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(stack->engine.CurrentEpoch(), 0u);

  server::ServerStats s = stack->server.Snapshot();
  EXPECT_EQ(s.responses_5xx, 0u);
  EXPECT_EQ(s.requests_total,
            static_cast<uint64_t>(kClients * kQueriesPerClient));
  EXPECT_TRUE(WaitFor([&] {
    return stack->server.Snapshot().open_connections == 0;
  }));
}

// Reads one Content-Length-framed response off `fd`, `chunk` bytes per
// read; `buf` carries bytes read past the previous response. False on
// EOF or a malformed head.
bool ReadRawResponse(int fd, size_t chunk, std::string* buf, int* status,
                     std::string* body) {
  auto read_more = [&] {
    std::string tmp(chunk, '\0');
    ssize_t n = read(fd, tmp.data(), chunk);
    if (n <= 0) return false;
    buf->append(tmp.data(), static_cast<size_t>(n));
    return true;
  };
  size_t head_end;
  while ((head_end = buf->find("\r\n\r\n")) == std::string::npos) {
    if (!read_more()) return false;
  }
  const std::string head = buf->substr(0, head_end);
  const size_t length_at = head.find("Content-Length: ");
  if (head.rfind("HTTP/1.1 ", 0) != 0 || length_at == std::string::npos) {
    return false;
  }
  *status = std::atoi(head.c_str() + 9);
  const size_t length =
      std::strtoull(head.c_str() + length_at + 16, nullptr, 10);
  buf->erase(0, head_end + 4);
  while (buf->size() < length) {
    if (!read_more()) return false;
  }
  *body = buf->substr(0, length);
  buf->erase(0, length);
  return true;
}

// From "row_count" up to "stats": the rows and everything about them,
// without the sequence, cache flags and timings that differ per run.
std::string RowsSection(const std::string& json) {
  const size_t begin = json.find("\"row_count\"");
  const size_t end = json.find(",\n  \"stats\"");
  if (begin == std::string::npos || end == std::string::npos) return "";
  return json.substr(begin, end - begin);
}

TEST_F(ServerTest, LargeResponsesSurvivePartialWritesAndPipelining) {
  // An uncapped multi-MB body to a client with a tiny receive window,
  // read a little at a time. The body is well past the 4 MiB a socket's
  // send buffer grows to by default (tcp_wmem), so the server's sendmsg
  // runs out of buffer again and again in the middle of a segment, while
  // a pipelined second response queues behind the first.
  server::ServerOptions sopts;
  sopts.max_response_rows = 0;
  auto stack = StartStack({}, sopts);
  const std::vector<std::string> queries = {LargeQuery(), FastQuery()};

  int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  int rcvbuf = 4096;
  ASSERT_EQ(setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf)),
            0);
  // Misframed bytes would leave a read waiting forever: fail instead.
  timeval timeout{};
  timeout.tv_sec = 20;
  ASSERT_EQ(
      setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout)), 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(stack->server.port());
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  std::string requests;
  for (const std::string& q : queries) {
    requests += "POST /query HTTP/1.1\r\nContent-Length: " +
                std::to_string(q.size()) + "\r\n\r\n" + q;
  }
  for (size_t sent = 0; sent < requests.size();) {  // one write, if it fits
    ssize_t n = send(fd, requests.data() + sent, requests.size() - sent,
                     MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    sent += static_cast<size_t>(n);
  }

  std::string buf;
  std::vector<std::string> bodies;
  for (size_t i = 0; i < queries.size(); ++i) {
    int status = 0;
    std::string body;
    ASSERT_TRUE(ReadRawResponse(fd, 1024, &buf, &status, &body)) << i;
    EXPECT_EQ(status, 200) << i;
    bodies.push_back(std::move(body));
  }
  EXPECT_TRUE(buf.empty());  // nothing after the second response
  close(fd);
  EXPECT_GT(bodies[0].size(), size_t{5} << 20);

  // Byte-identical rows to an in-process render at the same (no) cap.
  engine::Engine reference(corpus(), {});
  engine::ResponseJsonOptions jopts;
  jopts.max_rows = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    engine::QueryRequest req;
    req.text = queries[i];
    engine::QueryResponse want = reference.Execute(req);
    ASSERT_TRUE(want.ok()) << want.status.ToString();
    const std::string want_rows = RowsSection(want.ToJson(jopts));
    ASSERT_FALSE(want_rows.empty());
    EXPECT_TRUE(RowsSection(bodies[i]) == want_rows) << "response " << i;
  }
  EXPECT_GT(JsonUint(bodies[0], "row_count"), 1000);
  EXPECT_EQ(bodies[0].find("rows_truncated"), std::string::npos);

  EXPECT_TRUE(WaitFor([&] {
    return stack->server.Snapshot().open_connections == 0;
  }));
}

TEST_F(ServerTest, StopWhileQueryInFlightDrainsCleanly) {
  auto stack = StartStack();
  server::HttpClient a = Connect(*stack);
  std::thread poster([&] {
    // The response may be the cancelled answer or a torn connection —
    // either is acceptable; what matters is that Stop returns and
    // nothing leaks (ASan/TSan watch this test closely).
    (void)a.Request("POST", "/query", {}, SlowQuery());
  });
  ASSERT_TRUE(WaitFor([&] {
    return stack->server.Snapshot().queries_inflight >= 1;
  }));
  stack->server.Stop();
  poster.join();
  EXPECT_EQ(stack->server.Snapshot().queries_inflight, 0u);
  EXPECT_EQ(stack->server.Snapshot().open_connections, 0u);
}

// The client frames responses by Content-Length, so it parses that
// header like the server does: digits only. Each case is served by a
// one-shot loopback peer writing a canned response.
TEST(HttpClientTest, ResponseContentLengthIsDigitsOnly) {
  auto fetch = [](const std::string& length) -> Result<server::HttpResponse> {
    int lfd = socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(lfd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(bind(lfd, reinterpret_cast<sockaddr*>(&addr), len), 0);
    EXPECT_EQ(listen(lfd, 1), 0);
    EXPECT_EQ(getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    std::thread peer([lfd, length] {
      int fd = accept(lfd, nullptr, nullptr);
      if (fd < 0) return;
      std::string head;
      char c;
      while (head.find("\r\n\r\n") == std::string::npos &&
             read(fd, &c, 1) == 1) {
        head.push_back(c);
      }
      const std::string resp =
          "HTTP/1.1 200 OK\r\nContent-Length: " + length + "\r\n\r\nhello";
      EXPECT_EQ(write(fd, resp.data(), resp.size()),
                static_cast<ssize_t>(resp.size()));
      close(fd);
    });
    server::HttpClient client;
    Result<server::HttpResponse> out = Status::Internal("no connection");
    if (client.Connect("127.0.0.1", ntohs(addr.sin_port)).ok()) {
      out = client.Request("GET", "/healthz", {}, "");
    }
    client.Close();
    peer.join();
    close(lfd);
    return out;
  };
  auto good = fetch("5");
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good->body, "hello");
  // strtoull used to read "5x" and "+5" as 5 and junk as 0.
  for (const char* junk : {"5x", "+5", "-1", "banana", ""}) {
    auto bad = fetch(junk);
    ASSERT_FALSE(bad.ok()) << '"' << junk << '"';
    EXPECT_NE(bad.status().message().find("Content-Length"),
              std::string::npos)
        << bad.status().ToString();
  }
}

}  // namespace
}  // namespace rox
