// The repo benchmark: closed-loop POST /query workloads
// against an in-process Engine + HttpServer (see ../NOTES.md).
//
//   perfbench --workload adhoc_join|hot_replay|ingest_mixed
//              --seed N --seconds S --trace 0|1 [--trace-dir DIR]
//
// --trace 0 prints the end-to-end metrics of one timed phase. --trace 1
// runs the same workload and seed twice, untraced and then with
// X-Trace-Level: spans, half of --seconds each, and prints the
// per-layer metrics. Every response is checked against a reference
// answer computed outside the timed phase. The last line of stdout is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Exit status 0 only when every answer was right and every workload
// validity check held.

#include <fcntl.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "client.h"
#include "engine/engine.h"
#include "engine/query_api.h"
#include "index/corpus.h"
#include "inputs.h"
#include "json.h"
#include "layers.h"
#include "obs/metrics.h"
#include "server/server.h"
#include "xml/parser.h"

namespace perfbench {
namespace {

using rox::engine::Engine;
using rox::engine::EngineOptions;
using rox::engine::QueryRequest;
using rox::engine::QueryResponse;
using rox::server::HttpServer;
using rox::server::ServerOptions;

// --- sizing --------------------------------------------------------------------

constexpr int kClients = 2;             // closed-loop query clients
constexpr size_t kWorkers = 2;          // engine pool
constexpr size_t kShards = 1;
// setup_s is the median of 2 x kSetupReps set-ups, half before the
// timed phase and half after it: the machine's speed drifts over
// seconds, and spreading the samples over the run evens that out.
constexpr int kSetupReps = 6;
constexpr size_t kPublishEvery = 20;    // ingest_mixed: reads per publish
constexpr size_t kIngestWindow = 4;     // live ingest documents
constexpr size_t kIngestDistinct = 12;  // distinct ingest texts cycled
// Outside ingest_mixed, publish latency comes from a probe engine (the
// served corpus, its own epoch lineage and cache) that publishes every
// kProbeEveryMs through the timed phase, so its samples span the phase
// as ingest_mixed's do, and the served engine's caches stay untouched.
constexpr double kProbeEveryMs = 180;
// The hot workloads render up to kHotRowCap rows per response, twice
// the server's default, so their latency tail is render work well
// above the host's scheduler stalls (see HotQuery in inputs.cc).
// adhoc_join keeps the default cap.
constexpr size_t kHotRowCap = 2000;
constexpr size_t kAdhocWarmup = 40;     // distinct warm-up joins
constexpr double kHotWarmSeconds = 1.0;
constexpr double kZipfS = 1.0;
constexpr size_t kMinQueries = 1000;
constexpr size_t kMinPublishes = 100;
constexpr int kRefThreads = 4;          // reference answers, after timing
constexpr double kWindowMs = 1000;      // qps / cpu windows (medians)

[[noreturn]] void Fatal(const std::string& what) {
  std::fflush(stdout);
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::fflush(stderr);
  std::_Exit(2);
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuMs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

// Resets the process's peak-RSS mark (VmHWM), so input generation
// stays out of peak_rss_mb.
void ResetPeakRss() {
  int fd = open("/proc/self/clear_refs", O_WRONLY);
  if (fd < 0) return;
  (void)!write(fd, "5", 1);
  close(fd);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

enum class Workload { kAdhoc, kHot, kIngest };

struct Args {
  Workload workload = Workload::kAdhoc;
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      Fatal("missing value for " + key);
    }
    char* end = nullptr;
    if (key == "--workload") {
      a.workload_name = value;
      have_workload = true;
      if (value == "adhoc_join") {
        a.workload = Workload::kAdhoc;
      } else if (value == "hot_replay") {
        a.workload = Workload::kHot;
      } else if (value == "ingest_mixed") {
        a.workload = Workload::kIngest;
      } else {
        Fatal("unknown workload " + value);
      }
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Fatal("bad --seed " + value);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || a.seconds <= 0) Fatal("bad --seconds " + value);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") Fatal("bad --trace " + value);
      a.trace = value == "1";
    } else if (key == "--trace-dir") {
      a.trace_dir = value;
    } else {
      Fatal("unknown flag " + key);
    }
  }
  if (!have_workload) Fatal("--workload is required");
  return a;
}

// --- inputs --------------------------------------------------------------------

struct Inputs {
  std::vector<Doc> corpus;
  size_t corpus_bytes = 0;
  // adhoc_join: the timed list, each sent once; otherwise the hot set.
  std::vector<Request> requests;
  std::vector<Request> warmup;      // adhoc_join only
  std::vector<uint32_t> schedule;   // hot set indices, Zipf by rank
  std::vector<Doc> ingest;
  size_t row_cap = 0;  // ServerOptions::max_response_rows of the workload
};

Inputs MakeInputs(const Args& args) {
  Inputs in;
  in.corpus = CorpusDocs(args.seed);
  for (const Doc& d : in.corpus) in.corpus_bytes += d.xml.size();
  if (args.workload == Workload::kAdhoc) {
    // Far more than any run sends: a run stops at --seconds, not here.
    size_t n = static_cast<size_t>(args.seconds * 500) + kAdhocWarmup;
    std::vector<Request> all = AdhocRequests(args.seed, n);
    in.warmup.assign(all.end() - kAdhocWarmup, all.end());
    all.resize(n - kAdhocWarmup);
    in.requests = std::move(all);
  } else {
    in.requests = HotSet(args.seed);
    in.schedule = ZipfSchedule(
        args.seed, static_cast<size_t>(args.seconds * 8000) + 1000,
        in.requests.size(), kZipfS);
  }
  in.ingest = IngestDocs(args.seed, kIngestDistinct);
  in.row_cap = args.workload == Workload::kAdhoc
                   ? ServerOptions{}.max_response_rows
                   : kHotRowCap;
  return in;
}

// --- serving stack -------------------------------------------------------------

struct Serving {
  std::unique_ptr<rox::obs::MetricsRegistry> metrics;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<HttpServer> server;
  std::deque<std::string> live_ingest;  // ingest docs, oldest first
  size_t ingest_cycle = 0;

  ~Serving() {
    if (server != nullptr) server->Stop();
    server.reset();
    engine.reset();
  }
};

// Loads the corpus through Corpus::AddXml (roxd's file-loading path),
// builds the engine, starts the server and waits for the first
// /healthz 200. Returns the elapsed seconds: one setup_s sample.
double SetUp(const Inputs& in, Serving* s) {
  const double t0 = NowMs();
  rox::Corpus corpus;
  for (const Doc& d : in.corpus) {
    auto id = corpus.AddXml(d.xml, d.name);
    if (!id.ok()) Fatal("corpus load: " + id.status().ToString());
  }
  s->metrics = std::make_unique<rox::obs::MetricsRegistry>();
  EngineOptions eo;
  eo.num_threads = kWorkers;
  eo.num_shards = kShards;
  eo.metrics = s->metrics.get();
  s->engine = std::make_unique<Engine>(std::move(corpus), eo);
  ServerOptions so;
  so.port = 0;
  so.max_response_rows = in.row_cap;
  s->server = std::make_unique<HttpServer>(s->engine.get(), so);
  rox::Status started = s->server->Start();
  if (!started.ok()) Fatal("server start: " + started.ToString());
  Client client;
  std::string body;
  for (int attempt = 0;; ++attempt) {
    if (attempt > 5000) Fatal("server never answered /healthz");
    if (!client.connected() && !client.Connect(s->server->port())) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    if (client.Request("GET", "/healthz", {}, "", &body) == 200) break;
  }
  return (NowMs() - t0) / 1e3;
}

std::string Get(uint16_t port, const std::string& path) {
  Client c;
  std::string body;
  if (!c.Connect(port) || c.Request("GET", path, {}, "", &body) != 200) {
    Fatal("GET " + path + " failed");
  }
  return body;
}

// One ingest cycle: AddDocuments of the next ingest document (the
// timed publish), then RemoveDocument of the oldest beyond the window.
// Returns the AddDocuments latency, or a negative value on failure.
double PublishCycle(Serving* s, const std::vector<Doc>& docs) {
  const Doc& src = docs[s->ingest_cycle % docs.size()];
  std::string name = "ingest_" + std::to_string(s->ingest_cycle++);
  std::vector<rox::engine::IngestDoc> batch;
  batch.push_back({name, src.xml});
  const double t0 = NowMs();
  auto added = s->engine->AddDocuments(std::move(batch));
  const double ms = NowMs() - t0;
  if (!added.ok()) return -1;
  s->live_ingest.push_back(name);
  if (s->live_ingest.size() > kIngestWindow) {
    if (!s->engine->RemoveDocument(s->live_ingest.front()).ok()) return -1;
    s->live_ingest.pop_front();
  }
  return ms;
}

// --- reference answers ---------------------------------------------------------

struct Expected {
  std::string code;
  uint64_t row_count = 0;
  uint64_t digest = 0;
};

// Runs `texts` on a cache-less engine over `snapshot`, handing each
// response to `fn(index, response)` in order; only a few responses are
// alive at a time.
template <typename Fn>
void ForEachReference(const std::shared_ptr<const rox::Corpus>& snapshot,
                      const std::vector<const std::string*>& texts, Fn fn) {
  rox::obs::MetricsRegistry registry;
  EngineOptions eo;
  eo.num_threads = kRefThreads;
  eo.enable_cache = false;
  eo.metrics = &registry;
  Engine ref(snapshot, eo);
  std::vector<std::future<QueryResponse>> inflight;
  for (size_t next = 0; next < texts.size();) {
    const size_t end = std::min(texts.size(), next + 4 * kRefThreads);
    inflight.clear();
    for (size_t i = next; i < end; ++i) {
      QueryRequest req;
      req.text = *texts[i];
      inflight.push_back(ref.ExecuteAsync(std::move(req)));
    }
    for (size_t i = next; i < end; ++i) {
      QueryResponse resp = inflight[i - next].get();
      fn(i, resp);
    }
    next = end;
  }
}

// The expected answer of each text at the server's row cap, digested
// exactly as the load generator digests a server response.
std::vector<Expected> References(
    const std::shared_ptr<const rox::Corpus>& snapshot,
    const std::vector<const std::string*>& texts, size_t row_cap) {
  rox::engine::ResponseJsonOptions jo;
  jo.max_rows = row_cap;
  jo.include_timings = false;
  std::vector<Expected> out;
  ForEachReference(snapshot, texts, [&](size_t, const QueryResponse& resp) {
    ResponseDigest d = DigestResponse(resp.ToJson(jo));
    out.push_back({d.code, d.row_count, d.rows_digest});
  });
  return out;
}

// --- the closed loop -----------------------------------------------------------

struct Record {
  uint32_t request = 0;  // index into Inputs::requests
  int http = 0;          // 0: transport error
  bool parsed = false;
  bool plan_hit = false;
  bool result_hit = false;
  bool correct = false;
  std::string code;
  uint64_t row_count = 0;
  uint64_t digest = 0;
  double sent_ms = 0;  // since the phase started
  double latency_ms = 0;
  double wall_ms = 0;
  double sampling_ms = 0;
  double execution_ms = 0;
  double edges = 0;
  size_t bytes = 0;
  std::string trace;  // raw spans trace (traced phases only)
};

struct PhaseResult {
  std::vector<Record> records;
  double wall_s = 0;
  double serving_cpu_ms = 0;
  double loadgen_cpu_ms = 0;
  // Per kWindowMs window of the timed phase: HTTP 200s per second and
  // serving CPU per HTTP 200.
  std::vector<double> window_qps;
  std::vector<double> window_cpu_ms_per_query;
  std::vector<double> publish_ms;
  size_t publish_failures = 0;
  Json stats_before, stats_after;
  std::string metrics_before, metrics_after;
};

struct PhaseSpec {
  const std::vector<Request>* requests = nullptr;
  const std::vector<uint32_t>* schedule = nullptr;  // null: send in order
  double seconds = 0;
  bool traced = false;
  bool writer = false;        // ingest_mixed publishes
  Serving* probe = nullptr;   // the publish probe's engine, if any
};

PhaseResult RunPhase(Serving* s, const PhaseSpec& spec,
                     const std::vector<Doc>& ingest_docs) {
  PhaseResult out;
  const uint16_t port = s->server->port();
  const size_t limit =
      spec.schedule != nullptr ? spec.schedule->size() : spec.requests->size();

  std::vector<Client> clients(kClients);
  for (Client& c : clients) {
    if (!c.Connect(port)) Fatal("client connect");
  }
  if (!ParseJson(Get(port, "/stats"), &out.stats_before)) {
    Fatal("GET /stats is not JSON");
  }
  out.metrics_before = Get(port, "/metrics");

  std::atomic<size_t> next{0};
  std::atomic<uint64_t> ok200{0};
  std::atomic<int> running{kClients};
  // The writer waits on `reads` (answered requests) under `mu`.
  std::mutex mu;
  std::condition_variable cv;
  uint64_t reads = 0;
  bool stop_writer = false;
  std::vector<std::vector<Record>> per_client(kClients);
  // The load generator's CPU time so far: each client's (refreshed after
  // every request) and, last, the publish probe's.
  std::vector<std::atomic<double>> client_cpu(kClients + 1);
  for (auto& c : client_cpu) c.store(0);
  std::vector<std::pair<std::string, std::string>> headers;
  if (spec.traced) headers.emplace_back("X-Trace-Level", "spans");

  const double cpu0 = CpuMs(CLOCK_PROCESS_CPUTIME_ID);
  const double t0 = NowMs();
  const double deadline = t0 + spec.seconds * 1e3;

  std::thread writer;
  if (spec.writer) {
    writer = std::thread([&] {
      uint64_t target = kPublishEvery;
      for (;;) {
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return stop_writer || reads >= target; });
          if (stop_writer) return;
        }
        double ms = PublishCycle(s, ingest_docs);
        if (ms < 0) {
          ++out.publish_failures;
        } else {
          out.publish_ms.push_back(ms);
        }
        target += kPublishEvery;
      }
    });
  }

  std::thread prober;
  if (spec.probe != nullptr) {
    prober = std::thread([&] {
      const double cpu_start = CpuMs(CLOCK_THREAD_CPUTIME_ID);
      for (double at = t0 + kProbeEveryMs; at < deadline;
           at += kProbeEveryMs) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(at - NowMs()));
        const double ms = PublishCycle(spec.probe, ingest_docs);
        if (ms < 0) {
          ++out.publish_failures;
        } else {
          out.publish_ms.push_back(ms);
        }
        client_cpu[kClients].store(CpuMs(CLOCK_THREAD_CPUTIME_ID) - cpu_start,
                                   std::memory_order_relaxed);
      }
    });
  }

  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      const double cpu_start = CpuMs(CLOCK_THREAD_CPUTIME_ID);
      Client& client = clients[static_cast<size_t>(c)];
      std::vector<Record>& recs = per_client[static_cast<size_t>(c)];
      std::string body;
      while (NowMs() < deadline) {
        size_t i = next.fetch_add(1);
        if (i >= limit) break;
        Record rec;
        rec.request = spec.schedule != nullptr ? (*spec.schedule)[i]
                                               : static_cast<uint32_t>(i);
        const std::string& text = (*spec.requests)[rec.request].text;
        const double q0 = NowMs();
        rec.sent_ms = q0 - t0;
        rec.http = client.Request("POST", "/query", headers, text, &body);
        rec.latency_ms = NowMs() - q0;
        if (rec.http != 0) {
          rec.bytes = body.size();
          ResponseDigest d = DigestResponse(body);
          rec.parsed = d.ok;
          rec.code = d.code;
          rec.row_count = d.row_count;
          rec.digest = d.rows_digest;
          rec.plan_hit = d.stats["plan_cache_hit"].Bool();
          rec.result_hit = d.stats["result_cache_hit"].Bool();
          rec.wall_ms = d.stats["wall_ms"].Num();
          rec.sampling_ms = d.stats["sampling_ms"].Num();
          rec.execution_ms = d.stats["execution_ms"].Num();
          rec.edges = d.stats["edges_executed"].Num();
          if (spec.traced) rec.trace.assign(d.trace);
          if (rec.http == 200) ok200.fetch_add(1, std::memory_order_relaxed);
        }
        recs.push_back(std::move(rec));
        client_cpu[static_cast<size_t>(c)].store(
            CpuMs(CLOCK_THREAD_CPUTIME_ID) - cpu_start,
            std::memory_order_relaxed);
        if (spec.writer) {
          uint64_t done;
          {
            std::lock_guard<std::mutex> lock(mu);
            done = ++reads;
          }
          if (done % kPublishEvery == 0) cv.notify_one();
        }
        if (!client.connected() && !client.Connect(port)) break;
      }
      running.fetch_sub(1);
    });
  }

  // Window samples at every kWindowMs boundary before the deadline:
  // process CPU, the clients' CPU, and HTTP 200s so far.
  auto loadgen_cpu = [&] {
    double sum = 0;
    for (auto& c : client_cpu) sum += c.load(std::memory_order_relaxed);
    return sum;
  };
  struct Sample {
    double process_cpu, loadgen_cpu;
    uint64_t ok;
  };
  std::vector<Sample> samples = {{cpu0, 0, 0}};
  for (double at = t0 + kWindowMs; at <= deadline; at += kWindowMs) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(at - NowMs()));
    if (running.load() < kClients) break;  // the request list ran out
    samples.push_back({CpuMs(CLOCK_PROCESS_CPUTIME_ID), loadgen_cpu(),
                       ok200.load(std::memory_order_relaxed)});
  }
  for (size_t k = 1; k < samples.size(); ++k) {
    const double ok = static_cast<double>(samples[k].ok - samples[k - 1].ok);
    const double serving =
        (samples[k].process_cpu - samples[k - 1].process_cpu) -
        (samples[k].loadgen_cpu - samples[k - 1].loadgen_cpu);
    out.window_qps.push_back(ok * 1e3 / kWindowMs);
    if (ok > 0) out.window_cpu_ms_per_query.push_back(serving / ok);
  }

  for (std::thread& t : threads) t.join();
  if (prober.joinable()) prober.join();
  if (spec.writer) {
    {
      std::lock_guard<std::mutex> lock(mu);
      stop_writer = true;
    }
    cv.notify_one();
    writer.join();
  }
  out.wall_s = (NowMs() - t0) / 1e3;
  out.loadgen_cpu_ms = loadgen_cpu();
  out.serving_cpu_ms =
      CpuMs(CLOCK_PROCESS_CPUTIME_ID) - cpu0 - out.loadgen_cpu_ms;

  if (!ParseJson(Get(port, "/stats"), &out.stats_after)) {
    Fatal("GET /stats is not JSON");
  }
  out.metrics_after = Get(port, "/metrics");
  for (auto& recs : per_client) {
    for (Record& r : recs) out.records.push_back(std::move(r));
  }
  return out;
}

// Fills Record::correct against the reference answers.
void CheckAnswers(const std::vector<Expected>& expected, PhaseResult* p) {
  for (Record& r : p->records) {
    const Expected& e = expected[r.request];
    r.correct = r.http == 200 && r.parsed && r.code == "OK" &&
                e.code == "OK" && r.row_count == e.row_count &&
                r.digest == e.digest;
  }
}

// Warms the serving stack before timing. adhoc_join sends distinct
// warm-up joins that never recur in the timed list; the hot workloads
// fill the result cache with every hot text and then replay the
// schedule for a moment.
void WarmUp(Serving* s, const Args& args, const Inputs& in) {
  if (args.workload == Workload::kAdhoc) {
    PhaseSpec w;
    w.requests = &in.warmup;
    w.seconds = 60;
    RunPhase(s, w, in.ingest);
    return;
  }
  Client c;
  if (!c.Connect(s->server->port())) Fatal("warm connect");
  std::string body;
  for (const Request& r : in.requests) {
    if (c.Request("POST", "/query", {}, r.text, &body) != 200) {
      Fatal("hot text failed during warm-up: " + r.text);
    }
  }
  PhaseSpec w;
  w.requests = &in.requests;
  w.schedule = &in.schedule;
  w.seconds = kHotWarmSeconds;
  RunPhase(s, w, in.ingest);
}

double StatDelta(const PhaseResult& p, const char* key) {
  return p.stats_after[key].Num() - p.stats_before[key].Num();
}

// The value of a Prometheus text sample ("name value") in a /metrics dump.
double MetricValue(const std::string& text, const std::string& name) {
  size_t pos = 0;
  while ((pos = text.find(name + " ", pos)) != std::string::npos) {
    if (pos == 0 || text[pos - 1] == '\n') {
      return std::strtod(text.c_str() + pos + name.size() + 1, nullptr);
    }
    pos += name.size();
  }
  return 0;
}

// --- reporting -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  size_t samples;
};

struct Report {
  std::vector<Metric> metrics;
  void Add(std::string name, double value, std::string unit,
           size_t samples) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
};

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

struct Tally {
  size_t attempted = 0;
  size_t ok = 0;
  size_t wrong = 0;  // HTTP 200 with a wrong answer
  std::vector<double> latencies;  // of correct answers
};

Tally TallyOf(const PhaseResult& p) {
  Tally t;
  for (const Record& r : p.records) {
    ++t.attempted;
    if (r.correct) {
      ++t.ok;
      t.latencies.push_back(r.latency_ms);
    } else if (r.http == 200) {
      ++t.wrong;
    }
  }
  return t;
}

struct Validity {
  std::vector<std::string> lines;
  bool ok = true;
  void Check(bool pass, const std::string& what) {
    lines.push_back(std::string(pass ? "PASS " : "FAIL ") + what);
    ok = ok && pass;
  }
};

double Share(size_t part, size_t whole) {
  return whole == 0 ? 0 : static_cast<double>(part) /
                              static_cast<double>(whole);
}

// The workload validity checks: each workload must keep exercising
// what it was chosen for.
void CheckWorkload(const Args& args, const PhaseResult& p, bool full_length,
                   Validity* v) {
  size_t plan_hits = 0, result_hits = 0;
  for (const Record& r : p.records) {
    plan_hits += r.plan_hit;
    result_hits += r.result_hit;
  }
  const size_t n = p.records.size();
  char buf[160];
  switch (args.workload) {
    case Workload::kAdhoc:
      std::snprintf(buf, sizeof(buf), "adhoc_join engine.plan_hit_share = %g",
                    Share(plan_hits, n));
      v->Check(plan_hits == 0 && n > 0, buf);
      break;
    case Workload::kHot:
      std::snprintf(buf, sizeof(buf),
                    "hot_replay engine.result_hit_share = %g",
                    Share(result_hits, n));
      v->Check(result_hits == n && n > 0, buf);
      break;
    case Workload::kIngest: {
      double pubs = StatDelta(p, "publishes");
      double inval = StatDelta(p, "cache_invalidations");
      std::snprintf(buf, sizeof(buf),
                    "ingest_mixed publishes = %g, invalidations = %g", pubs,
                    inval);
      v->Check(pubs > 0 && inval > 0 && p.publish_failures == 0, buf);
      if (full_length) {
        std::snprintf(buf, sizeof(buf), "ingest_mixed AddDocuments = %zu >= %zu",
                      p.publish_ms.size(), kMinPublishes);
        v->Check(p.publish_ms.size() >= kMinPublishes, buf);
      }
      break;
    }
  }
  if (full_length) {
    std::snprintf(buf, sizeof(buf), "queries = %zu >= %zu", n, kMinQueries);
    v->Check(n >= kMinQueries, buf);
  }
}

// --- the runs ------------------------------------------------------------------

struct MeasuredRun {
  PhaseResult phase;
  std::vector<double> build_ms;  // DirectBuilds right after (traced runs)
  double peak_rss_mb = 0;
};

// What a publish (AddDocuments) costs below the engine: CorpusBuilder
// AddXml + Build on the live epoch, timed directly, 30 times.
std::vector<double> DirectBuilds(Serving* s, const Inputs& in) {
  std::vector<double> out;
  auto snap = s->engine->CurrentSnapshot();
  for (size_t i = 0; i < 30; ++i) {
    const Doc& d = in.ingest[i % in.ingest.size()];
    const double t0 = NowMs();
    rox::CorpusBuilder b(*snap);
    if (!b.AddXml(d.xml, "probe_" + std::to_string(i)).ok()) {
      Fatal("CorpusBuilder::AddXml failed");
    }
    rox::Corpus next = std::move(b).Build();
    out.push_back(NowMs() - t0);
  }
  return out;
}

// Warm-up, one timed phase (with the publish probe outside
// ingest_mixed) and peak RSS. References are checked by the caller.
MeasuredRun MeasuredPhase(Serving* s, const Args& args, const Inputs& in,
                          double seconds, bool traced) {
  WarmUp(s, args, in);
  PhaseSpec spec;
  spec.requests = &in.requests;
  if (args.workload != Workload::kAdhoc) spec.schedule = &in.schedule;
  spec.seconds = seconds;
  spec.traced = traced;
  spec.writer = args.workload == Workload::kIngest;
  Serving probe;
  if (!spec.writer) {
    probe.metrics = std::make_unique<rox::obs::MetricsRegistry>();
    EngineOptions eo;
    eo.num_threads = 1;
    eo.num_shards = kShards;
    eo.metrics = probe.metrics.get();
    probe.engine = std::make_unique<Engine>(s->engine->CurrentSnapshot(), eo);
    spec.probe = &probe;
  }
  MeasuredRun m;
  m.phase = RunPhase(s, spec, in.ingest);
  m.peak_rss_mb = PeakRssMb();
  return m;
}

// Reference answers for every request index a phase may have used.
std::vector<Expected> ReferencesFor(const Serving& s, const Inputs& in,
                                    const std::vector<const PhaseResult*>& ps) {
  size_t used = 0;
  for (const PhaseResult* p : ps) {
    for (const Record& r : p->records) {
      used = std::max<size_t>(used, r.request + 1);
    }
  }
  std::vector<const std::string*> texts;
  for (size_t i = 0; i < used; ++i) texts.push_back(&in.requests[i].text);
  return References(s.engine->CurrentSnapshot(), texts, in.row_cap);
}

// The median latency of each kWindowMs window of the timed phase
// (correct answers, by completion time), one per window that qps
// counted. Like qps and cpu_ms_per_query, query_p50_ms is their
// median, so a transient stall of the host moves one window, not the
// figure; p99 stays pooled, as a window holds too few tail samples.
std::vector<double> WindowMedians(const PhaseResult& p) {
  std::vector<std::vector<double>> windows(p.window_qps.size());
  for (const Record& r : p.records) {
    const auto k = static_cast<size_t>((r.sent_ms + r.latency_ms) / kWindowMs);
    if (r.correct && k < windows.size()) windows[k].push_back(r.latency_ms);
  }
  std::vector<double> out;
  for (std::vector<double>& w : windows) {
    if (!w.empty()) out.push_back(Median(std::move(w)));
  }
  return out;
}

void AddEndToEnd(const MeasuredRun& m,
                 const std::vector<double>& setups, Report* rep) {
  const Tally t = TallyOf(m.phase);
  rep->Add("setup_s", Median(setups), "s", setups.size());
  rep->Add("qps", Median(m.phase.window_qps), "1/s",
           m.phase.window_qps.size());
  const std::vector<double> p50s = WindowMedians(m.phase);
  rep->Add("query_p50_ms", Median(p50s), "ms", p50s.size());
  rep->Add("query_p99_ms", Quantile(t.latencies, 0.99), "ms",
           t.latencies.size());
  rep->Add("cpu_ms_per_query", Median(m.phase.window_cpu_ms_per_query), "ms",
           m.phase.window_cpu_ms_per_query.size());
  rep->Add("ok_share", Share(t.ok, t.attempted), "ratio", t.attempted);
  rep->Add("peak_rss_mb", m.peak_rss_mb, "MB", 1);
  rep->Add("publish_p50_ms", Quantile(m.phase.publish_ms, 0.50), "ms",
           m.phase.publish_ms.size());
  rep->Add("publish_p90_ms", Quantile(m.phase.publish_ms, 0.90), "ms",
           m.phase.publish_ms.size());
}

// Median of `reps` timings of `fn`.
template <typename Fn>
double MedianMs(int reps, Fn fn) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) v.push_back(fn());
  return Median(v);
}

void AddPerLayer(const Inputs& in, Serving* s,
                 const MeasuredRun& plain, const PhaseResult& traced,
                 Report* rep) {
  const PhaseResult& p = plain.phase;
  const Tally plain_tally = TallyOf(p);
  const Tally traced_tally = TallyOf(traced);
  const size_t n = p.records.size();
  const double dn = static_cast<double>(std::max<size_t>(1, n));

  // server: client latency minus engine wall time, untraced.
  std::vector<double> overhead, wall;
  double overhead_sum = 0, latency_sum = 0, bytes = 0;
  double sampling = 0, execution = 0, edges = 0;
  size_t plan_hits = 0, result_hits = 0;
  for (const Record& r : p.records) {
    overhead.push_back(r.latency_ms - r.wall_ms);
    wall.push_back(r.wall_ms);
    overhead_sum += r.latency_ms - r.wall_ms;
    latency_sum += r.latency_ms;
    bytes += static_cast<double>(r.bytes);
    sampling += r.sampling_ms;
    execution += r.execution_ms;
    edges += r.edges;
    plan_hits += r.plan_hit;
    result_hits += r.result_hit;
  }
  rep->Add("server.overhead_ms_p50", Median(overhead), "ms", n);
  rep->Add("server.overhead_share",
           latency_sum > 0 ? overhead_sum / latency_sum : 0, "ratio", n);

  // QueryResponse::ToJson at the server's row cap, per distinct text,
  // weighted by how often the phase sent it.
  std::unordered_map<uint32_t, double> render_ms;
  {
    std::vector<uint32_t> ids;
    for (const Record& r : p.records) {
      if (render_ms.emplace(r.request, 0).second) ids.push_back(r.request);
      if (ids.size() >= 200) break;
    }
    std::vector<const std::string*> texts;
    for (uint32_t id : ids) texts.push_back(&in.requests[id].text);
    rox::engine::ResponseJsonOptions jo;
    jo.max_rows = in.row_cap;
    ForEachReference(
        s->engine->CurrentSnapshot(), texts,
        [&](size_t i, const QueryResponse& resp) {
          render_ms[ids[i]] = MedianMs(3, [&] {
            const double t0 = NowMs();
            const std::string json = resp.ToJson(jo);
            return NowMs() - t0;
          });
        });
  }
  std::vector<double> render;
  for (const Record& r : p.records) {
    auto it = render_ms.find(r.request);
    if (it != render_ms.end()) render.push_back(it->second);
  }
  rep->Add("server.render_ms_p50", Median(render), "ms", render.size());
  rep->Add("server.response_kb_mean", bytes / dn / 1024.0, "KB", n);
  const double handler_n =
      MetricValue(p.metrics_after, "rox_server_query_ms_count") -
      MetricValue(p.metrics_before, "rox_server_query_ms_count");
  const double handler_sum =
      MetricValue(p.metrics_after, "rox_server_query_ms_sum") -
      MetricValue(p.metrics_before, "rox_server_query_ms_sum");
  rep->Add("server.handler_ms_mean",
           handler_n > 0 ? handler_sum / handler_n : 0, "ms",
           static_cast<size_t>(handler_n));

  // engine: response stats and /stats of the untraced phase.
  rep->Add("engine.execute_ms_p50", Quantile(wall, 0.50), "ms", n);
  rep->Add("engine.execute_ms_p99", Quantile(wall, 0.99), "ms", n);
  rep->Add("engine.plan_hit_share", Share(plan_hits, n), "ratio", n);
  rep->Add("engine.result_hit_share", Share(result_hits, n), "ratio", n);
  const double pubs = StatDelta(p, "publishes");
  rep->Add("engine.invalidations_per_publish",
           pubs > 0 ? StatDelta(p, "cache_invalidations") / pubs : 0, "count",
           static_cast<size_t>(pubs));

  const double build_p50 = Median(plain.build_ms);
  rep->Add("engine.publish_other_ms_p50",
           Quantile(plain.phase.publish_ms, 0.5) - build_p50, "ms",
           plain.phase.publish_ms.size());

  // Span-derived layers: the traced phase.
  LayerTotals totals;
  double traced_latency = 0, traced_wall = 0;
  for (size_t i = 0; i < traced.records.size(); ++i) {
    const Record& r = traced.records[i];
    Json trace;
    TraceFold fold;
    if (r.trace.empty() || !ParseJson(r.trace, &trace) ||
        !FoldTrace(trace, &fold)) {
      continue;
    }
    totals.Add(fold);
    traced_latency += r.latency_ms;
    traced_wall += r.wall_ms;
  }
  const size_t tn = totals.requests;
  const double dtn = static_cast<double>(std::max<size_t>(1, tn));
  auto span_per_q = [&](const char* span) {
    auto it = totals.span_ms.find(span);
    return it == totals.span_ms.end() ? 0.0 : it->second / dtn;
  };
  auto layer_per_q = [&](const char* layer) {
    auto it = totals.layer_self_ms.find(layer);
    return it == totals.layer_self_ms.end() ? 0.0 : it->second / dtn;
  };
  rep->Add("server.self_ms_per_query", (traced_latency - traced_wall) / dtn,
           "ms", tn);
  rep->Add("engine.self_ms_per_query", layer_per_q("engine"), "ms", tn);
  rep->Add("xq.parse_ms_per_query", span_per_q("parse"), "ms", tn);
  rep->Add("xq.compile_ms_per_query", span_per_q("compile"), "ms", tn);
  rep->Add("xq.self_ms_per_query", layer_per_q("xq"), "ms", tn);
  rep->Add("rox.phase1_ms_per_query", span_per_q("phase1"), "ms", tn);
  rep->Add("rox.sampling_ms_per_query", sampling / dn, "ms", n);
  rep->Add("rox.sampling_share",
           sampling + execution > 0 ? sampling / (sampling + execution) : 0,
           "ratio", n);
  rep->Add("rox.edges_per_query", edges / dn, "count", n);
  rep->Add("rox.execution_ms_per_query", execution / dn, "ms", n);
  rep->Add("rox.edge_rows_per_query", totals.edge_rows / dtn, "count", tn);
  rep->Add("rox.self_ms_per_query", layer_per_q("rox"), "ms", tn);
  for (const std::string& k : Kernels()) {
    double ms = totals.kernel_ms.count(k) ? totals.kernel_ms.at(k) : 0;
    double rows = totals.kernel_rows.count(k) ? totals.kernel_rows.at(k) : 0;
    rep->Add("exec." + k + ".ms_per_query", ms / dtn, "ms", tn);
    rep->Add("exec." + k + ".rows_per_ms", ms > 0 ? rows / ms : 0, "rows/ms",
             tn);
  }
  rep->Add("exec.assembly_ms_per_query", span_per_q("assembly"), "ms", tn);
  rep->Add("exec.gather_ms_per_query", span_per_q("gather"), "ms", tn);
  rep->Add("exec.plan_tail_ms_per_query", span_per_q("plan_tail"), "ms", tn);
  rep->Add("exec.self_ms_per_query", layer_per_q("exec"), "ms", tn);

  // xml / index: direct calls on the set-up texts.
  const double parse_ms = MedianMs(3, [&] {
    auto pool = std::make_shared<rox::StringPool>();
    const double t0 = NowMs();
    for (const Doc& d : in.corpus) {
      if (!rox::ParseXml(d.xml, d.name, pool).ok()) Fatal("ParseXml failed");
    }
    return NowMs() - t0;
  });
  rep->Add("xml.parse_mb_per_s",
           static_cast<double>(in.corpus_bytes) / 1048576.0 /
               (parse_ms / 1e3),
           "MB/s", 3);
  const double index_ms = MedianMs(3, [&] {
    rox::Corpus c;
    std::vector<std::unique_ptr<rox::Document>> docs;
    for (const Doc& d : in.corpus) {
      auto doc = rox::ParseXml(d.xml, d.name, c.pool());
      if (!doc.ok()) Fatal("ParseXml failed");
      docs.push_back(std::move(*doc));
    }
    const double t0 = NowMs();
    for (auto& d : docs) {
      if (!c.Add(std::move(d)).ok()) Fatal("Corpus::Add failed");
    }
    return NowMs() - t0;
  });
  rep->Add("index.build_ms", index_ms, "ms", 3);
  rep->Add("index.publish_build_ms_p50", build_p50, "ms",
           plain.build_ms.size());

  // obs: tracing cost and the time no span covers.
  const double qps_plain =
      static_cast<double>(plain_tally.ok) / p.wall_s;
  const double qps_traced =
      static_cast<double>(traced_tally.ok) / traced.wall_s;
  rep->Add("obs.trace_overhead_pct",
           qps_plain > 0 ? 100.0 * (qps_plain - qps_traced) / qps_plain : 0,
           "%", traced_tally.ok);
  rep->Add("obs.untracked_share",
           traced_latency > 0
               ? (traced_wall - totals.covered_ms) / traced_latency
               : 0,
           "ratio", tn);
  rep->Add("obs.unmapped_ms_per_query", layer_per_q("other"), "ms", tn);
}

// Writes the traced phase's spans, one JSON object per line. Span 0 of
// each request is the load generator's own "http_request" span
// (request sent to last response byte, on the phase clock); the
// engine's spans follow as its descendants, on the engine trace's clock.
void WriteSpans(const std::string& path, const PhaseResult& traced) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  for (size_t i = 0; i < traced.records.size(); ++i) {
    const Record& r = traced.records[i];
    Json trace;
    TraceFold fold;
    if (!ParseJson(r.trace, &trace) || !FoldTrace(trace, &fold)) continue;
    double engine_ms = 0;
    for (const Span& sp : fold.spans) {
      if (sp.parent < 0) engine_ms += sp.duration_ms();
    }
    std::fprintf(f,
                 "{\"request\":%zu,\"name\":\"http_request\",\"parent\":-1,"
                 "\"start_ms\":%.6f,\"end_ms\":%.6f,\"self_ms\":%.6f,"
                 "\"layer\":\"server\",\"clock\":\"client\"}\n",
                 i, r.sent_ms, r.sent_ms + r.latency_ms,
                 r.latency_ms - engine_ms);
    std::vector<double> self = SelfTimes(fold.spans);
    for (size_t k = 0; k < fold.spans.size(); ++k) {
      const Span& sp = fold.spans[k];
      std::fprintf(f,
                   "{\"request\":%zu,\"name\":\"%s\",\"parent\":%d,"
                   "\"start_ms\":%.6f,\"end_ms\":%.6f,\"self_ms\":%.6f,"
                   "\"layer\":\"%s\",\"clock\":\"engine\"}\n",
                   i, sp.name.c_str(), sp.parent + 1, sp.start_ms, sp.end_ms,
                   self[k], LayerOfSpan(sp.name));
    }
  }
  std::fclose(f);
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const double gen0 = NowMs();
  const Inputs in = MakeInputs(args);
  std::printf("perfbench: workload %s, seed %llu, %zu corpus docs (%.2f MB), "
              "inputs in %.0f ms\n",
              args.workload_name.c_str(),
              static_cast<unsigned long long>(args.seed), in.corpus.size(),
              static_cast<double>(in.corpus_bytes) / 1048576.0,
              NowMs() - gen0);
  ResetPeakRss();

  // The last of the first kSetupReps set-ups serves.
  std::vector<double> setups;
  auto serving = std::make_unique<Serving>();
  for (int i = 0; i < kSetupReps; ++i) {
    if (i > 0) serving = std::make_unique<Serving>();
    setups.push_back(SetUp(in, serving.get()));
  }

  const double phase_seconds = args.trace ? args.seconds / 2 : args.seconds;
  MeasuredRun plain =
      MeasuredPhase(serving.get(), args, in, phase_seconds, false);
  if (args.trace) plain.build_ms = DirectBuilds(serving.get(), in);
  std::vector<const PhaseResult*> phases = {&plain.phase};

  PhaseResult traced;
  std::unique_ptr<Serving> traced_serving;
  if (args.trace) {
    traced_serving = std::make_unique<Serving>();
    SetUp(in, traced_serving.get());
    traced = MeasuredPhase(traced_serving.get(), args, in, phase_seconds,
                           true)
                 .phase;
    phases.push_back(&traced);
  }

  if (!args.trace) {
    for (int i = 0; i < kSetupReps; ++i) {
      Serving extra;
      setups.push_back(SetUp(in, &extra));
    }
    std::printf("setup_s samples:");
    for (double v : setups) std::printf(" %.4f", v);
    std::printf("\n");
  }

  const std::vector<Expected> expected = ReferencesFor(*serving, in, phases);
  CheckAnswers(expected, &plain.phase);
  if (args.trace) CheckAnswers(expected, &traced);

  Report rep;
  if (args.trace) {
    AddPerLayer(in, serving.get(), plain, traced, &rep);
    if (!args.trace_dir.empty()) {
      WriteSpans(args.trace_dir + "/" + args.workload_name + "-seed" +
                     std::to_string(args.seed) + ".jsonl",
                 traced);
    }
  } else {
    AddEndToEnd(plain, setups, &rep);
  }
  traced_serving.reset();
  serving.reset();

  Validity v;
  CheckWorkload(args, plain.phase, !args.trace, &v);
  size_t attempted = 0, failed = 0, wrong = 0;
  for (const PhaseResult* p : phases) {
    Tally t = TallyOf(*p);
    attempted += t.attempted;
    failed += t.attempted - t.ok;
    wrong += t.wrong;
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf), "answers: %zu attempted, %zu wrong, %zu "
                "errors", attempted, wrong, failed - wrong);
  v.Check(failed == 0 && attempted > 0, buf);

  for (const PhaseResult* p : phases) {
    std::printf("phase: %zu requests in %.2f s, serving cpu %.0f ms, load "
                "generator cpu %.0f ms, %zu publishes\n",
                p->records.size(), p->wall_s, p->serving_cpu_ms,
                p->loadgen_cpu_ms, p->publish_ms.size());
  }
  for (const std::string& line : v.lines) {
    std::printf("validity: %s\n", line.c_str());
  }
  for (const Metric& m : rep.metrics) {
    std::printf("metric: %-34s %14.6f %-8s (n=%zu)\n", m.name.c_str(),
                m.value, m.unit.c_str(), m.samples);
  }
  std::string json = "{\"correct\": ";
  json += v.ok ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < rep.metrics.size(); ++i) {
    const Metric& m = rep.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + FormatNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return v.ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
