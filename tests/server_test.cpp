// End-to-end tests for the synthesis server: loopback round trips through
// the real TCP stack using the `lowbist client` implementation
// (run_client), byte-identical parity with `lowbist batch`, warm-cache
// accounting via the metrics request, deterministic admission-control
// rejection with a held worker, queue deadlines, and SIGTERM draining.
// The whole file must stay ThreadSanitizer-clean (the CI sanitizer job
// runs it under -DLBIST_SANITIZE=thread).

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "binding/module_spec.hpp"
#include "dfg/benchmarks.hpp"
#include "hybrid/eval.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "passes/pipeline.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "service/batch.hpp"
#include "service/diskcache/diskcache.hpp"
#include "support/json.hpp"

// The live-profiler round trip arms real per-thread SIGPROF timers, which
// TSan's signal interception turns into spurious reports; everything else
// in this file stays TSan-clean.
#if defined(__SANITIZE_THREAD__)
#define LBIST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define LBIST_TSAN 1
#endif
#endif

namespace lbist {
namespace {

std::vector<std::string> sorted_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

/// A gate the test holds closed to pin workers inside job execution, so
/// admission overflow and shutdown draining become deterministic instead
/// of racing against synthesis speed.
class Gate {
 public:
  std::function<void()> hold() {
    return [this] {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return open_; });
    };
  }
  void open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

/// Polls a metrics counter until it reaches `target` (bounded wait).
bool wait_counter(Server& server, const std::string& name,
                  std::uint64_t target) {
  for (int i = 0; i < 4000; ++i) {
    if (server.metrics().counter(name).value() >= target) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

/// Polls a histogram's sample count (signals "a worker dequeued N
/// requests" via queue_ms).
bool wait_histogram_count(Server& server, const std::string& name,
                          std::uint64_t target) {
  for (int i = 0; i < 4000; ++i) {
    if (server.metrics().histogram(name).summarize().count >= target) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

const char* kParityManifest =
    "# parity manifest: duplicates, comments, blanks and broken lines\n"
    "\n"
    "{\"bench\": \"ex1\"}\n"
    "{\"bench\": \"ex1\"}\n"
    "{\"bench\": \"paulin\", \"binder\": \"trad\", \"width\": 8}\n"
    "{\"bench\": \"tseng\", \"modules\": \"1+,3[-*/&|]\"}\n"
    "{oops not json\n"
    "{\"bench\": \"not-a-benchmark\"}\n"
    "{\"bench\": \"ex2\", \"design\": \"two-sources.dfg\"}\n"
    "{\"text\": \"dfg t\\ninput a b\\nop add1 + a b -> c @1\\noutput c\\n\"}\n";

// (a) Sorted responses are byte-identical to `lowbist batch` on the same
// manifest: both sides decode with decode_manifest_line and execute with
// run_entry, so even error text and line numbers must agree.
TEST(ServerEndToEnd, ResponsesMatchBatchByteForByte) {
  const auto entries = parse_manifest(kParityManifest);
  std::ostringstream batch_out;
  BatchOptions batch_opts;
  batch_opts.jobs = 1;
  run_batch(entries, batch_opts, batch_out);

  ServerOptions opts;
  opts.jobs = 2;
  Server server(std::move(opts));
  server.start();
  std::ostringstream server_out;
  const ClientSummary summary =
      run_client("127.0.0.1", server.port(), kParityManifest, server_out);
  server.stop();

  EXPECT_EQ(summary.responses, static_cast<int>(entries.size()));
  EXPECT_EQ(sorted_lines(batch_out.str()), sorted_lines(server_out.str()));
}

// (b) The cache persists across connections: a second identical pass is
// served from the cache, observable through a {"type":"metrics"} request.
TEST(ServerEndToEnd, SecondPassReportsCacheHitsThroughMetricsRequest) {
  const std::string manifest =
      "{\"bench\": \"ex1\"}\n"
      "{\"bench\": \"paulin\", \"binder\": \"trad\"}\n";
  Server server(ServerOptions{});
  server.start();

  std::ostringstream first, second;
  run_client("127.0.0.1", server.port(), manifest, first);
  run_client("127.0.0.1", server.port(), manifest, second);
  EXPECT_EQ(sorted_lines(first.str()), sorted_lines(second.str()));

  std::ostringstream metrics_out;
  const ClientSummary summary = run_client("127.0.0.1", server.port(),
                                           "{\"type\": \"metrics\"}\n",
                                           metrics_out);
  server.stop();

  ASSERT_EQ(summary.responses, 1);
  const Json reply = Json::parse(sorted_lines(metrics_out.str()).at(0));
  EXPECT_EQ(reply.at("type").as_string(), "metrics");
  const Json& cache = reply.at("metrics").at("cache");
  EXPECT_GE(cache.at("hits").as_int(), 2);    // the whole second pass
  EXPECT_EQ(cache.at("misses").as_int(), 2);  // only the cold pass misses
  EXPECT_GT(cache.at("hit_rate").as_number(), 0.0);
  const Json& registry = reply.at("metrics").at("registry");
  EXPECT_EQ(registry.at("counters").at("requests_ok").as_int(), 4);
  EXPECT_GE(registry.at("histograms").at("synth_ms").at("count").as_int(),
            1);
}

// (c) Admission control: with one worker pinned and max_queue=2, exactly
// two of six requests are admitted; the rest get an immediate structured
// "overloaded" rejection — and the server stays healthy afterwards.
TEST(ServerEndToEnd, OverflowYieldsOverloadedErrorsAndServerStaysHealthy) {
  Gate gate;
  ServerOptions opts;
  opts.jobs = 1;
  opts.max_queue = 2;
  opts.test_hold = gate.hold();
  Server server(std::move(opts));
  server.start();

  std::string burst;
  for (int i = 0; i < 6; ++i) burst += "{\"bench\": \"ex1\"}\n";
  std::ostringstream out;
  ClientSummary summary;
  std::thread client([&] {
    summary = run_client("127.0.0.1", server.port(), burst, out);
  });
  // 2 admitted (1 held by the worker, 1 queued), 4 rejected on arrival.
  ASSERT_TRUE(wait_counter(server, "requests_rejected", 4));
  gate.open();
  client.join();

  EXPECT_EQ(summary.responses, 6);
  EXPECT_EQ(summary.ok, 2);
  EXPECT_EQ(summary.errors, 4);
  int overloaded = 0;
  for (const auto& line : sorted_lines(out.str())) {
    const Json j = Json::parse(line);
    if (j.at("status").as_string() == "error") {
      EXPECT_EQ(j.at("error").as_string(), "overloaded");
      EXPECT_TRUE(j.contains("job"));
      ++overloaded;
    }
  }
  EXPECT_EQ(overloaded, 4);

  // Still healthy: a fresh connection gets a health reply and a result.
  std::ostringstream after;
  const ClientSummary healthy =
      run_client("127.0.0.1", server.port(),
                 "{\"type\": \"health\"}\n{\"bench\": \"ex1\"}\n", after);
  EXPECT_EQ(healthy.responses, 2);
  EXPECT_EQ(healthy.ok, 2);
  bool saw_health = false;
  for (const auto& line : sorted_lines(after.str())) {
    const Json j = Json::parse(line);
    if (j.find("type") != nullptr) {
      EXPECT_EQ(j.at("type").as_string(), "health");
      EXPECT_EQ(j.at("status").as_string(), "ok");
      EXPECT_EQ(j.at("max_queue").as_int(), 2);
      EXPECT_EQ(j.at("workers").as_int(), 1);
      saw_health = true;
    }
  }
  EXPECT_TRUE(saw_health);
  server.stop();
  EXPECT_EQ(server.metrics().counter("requests_rejected").value(), 4u);
}

// Per-request deadlines: requests that sat in the queue past the deadline
// are answered with a timeout error when a worker picks them up; the
// worker itself moves on unharmed and the fresh request still executes.
TEST(ServerEndToEnd, ExpiredQueueDeadlineAnswersWithTimeoutError) {
  Gate gate;
  ServerOptions opts;
  opts.jobs = 1;
  opts.deadline_ms = 500;
  opts.test_hold = gate.hold();
  Server server(std::move(opts));
  server.start();

  const std::string manifest =
      "{\"bench\": \"ex1\"}\n"
      "{\"bench\": \"ex1\", \"width\": 8}\n"
      "{\"bench\": \"ex1\", \"width\": 16}\n";
  std::ostringstream out;
  ClientSummary summary;
  std::thread client([&] {
    summary = run_client("127.0.0.1", server.port(), manifest, out);
  });
  // The worker dequeues job 0 (within its deadline) and blocks in the
  // gate; jobs 1 and 2 age in the queue past the 500ms deadline.
  ASSERT_TRUE(wait_histogram_count(server, "queue_ms", 1));
  ASSERT_TRUE(wait_counter(server, "requests_total", 3));
  std::this_thread::sleep_for(std::chrono::milliseconds(900));
  gate.open();
  client.join();

  EXPECT_EQ(summary.responses, 3);
  EXPECT_EQ(summary.ok, 1);
  EXPECT_EQ(summary.errors, 2);
  for (const auto& line : sorted_lines(out.str())) {
    const Json j = Json::parse(line);
    if (j.at("status").as_string() == "error") {
      EXPECT_EQ(j.at("error").as_string(), "deadline exceeded");
    }
  }
  EXPECT_EQ(server.metrics().counter("requests_deadline").value(), 2u);

  // The worker was not poisoned: a fresh request still gets a result.
  std::ostringstream after;
  const ClientSummary fresh =
      run_client("127.0.0.1", server.port(), "{\"bench\": \"ex2\"}\n", after);
  EXPECT_EQ(fresh.ok, 1);
  server.stop();
}

// (d) Graceful shutdown: SIGTERM with in-flight requests stops accepting
// but answers everything already admitted before the server exits.
TEST(ServerEndToEnd, SigtermDrainsInFlightRequestsBeforeExit) {
  Gate gate;
  ServerOptions opts;
  opts.jobs = 1;
  opts.handle_signals = true;
  opts.test_hold = gate.hold();
  Server server(std::move(opts));
  server.start();

  const std::string manifest =
      "{\"bench\": \"ex1\"}\n"
      "{\"bench\": \"ex1\", \"width\": 8}\n"
      "{\"bench\": \"paulin\"}\n";
  std::ostringstream out;
  ClientSummary summary;
  std::thread client([&] {
    summary = run_client("127.0.0.1", server.port(), manifest, out);
  });
  ASSERT_TRUE(wait_counter(server, "requests_total", 3));
  ASSERT_EQ(std::raise(SIGTERM), 0);  // graceful: drain, then exit
  gate.open();
  server.wait();  // returns only after the drain completes
  client.join();

  EXPECT_EQ(summary.responses, 3);
  EXPECT_EQ(summary.ok, 3);
  EXPECT_EQ(summary.errors, 0);
  EXPECT_EQ(server.metrics().counter("requests_ok").value(), 3u);
}

// Framing robustness: an oversized request line is answered with a
// protocol error instead of ballooning server memory.
TEST(ServerEndToEnd, OversizedRequestLineIsRejected) {
  Server server(ServerOptions{});
  server.start();
  std::string huge = "{\"bench\": \"";
  huge.append((1 << 20) + 4096, 'x');
  huge += "\"}\n";
  std::ostringstream out;
  const ClientSummary summary =
      run_client("127.0.0.1", server.port(), huge, out);
  server.stop();
  ASSERT_EQ(summary.responses, 1);
  const Json j = Json::parse(sorted_lines(out.str()).at(0));
  EXPECT_NE(j.at("error").as_string().find("exceeds"), std::string::npos);
}

TEST(ServerEndToEnd, UnknownControlTypeGetsStructuredError) {
  Server server(ServerOptions{});
  server.start();
  std::ostringstream out;
  const ClientSummary summary = run_client(
      "127.0.0.1", server.port(), "{\"type\": \"frobnicate\"}\n", out);
  server.stop();
  ASSERT_EQ(summary.responses, 1);
  const Json j = Json::parse(sorted_lines(out.str()).at(0));
  EXPECT_EQ(j.at("status").as_string(), "error");
  EXPECT_NE(j.at("error").as_string().find("unknown request type"),
            std::string::npos);
}

// Remote single-pass execution: post a binding-stage snapshot, ask the
// server to run the interconnect pass, and compare against running the
// same pass locally.  A repeat of the identical request must be served
// from the cache, and a stage-mismatched request must fail cleanly.
TEST(ServerEndToEnd, PassRequestAdvancesSnapshotAndCaches) {
  const Benchmark bench = make_ex1();
  const auto protos = parse_module_spec(bench.module_spec);
  const PassPipeline& pipeline = PassPipeline::standard();
  const std::size_t index = pipeline.index_of("interconnect");

  SynthState state(bench.design.dfg, *bench.design.schedule, protos,
                   SynthesisOptions{});
  pipeline.run(state, index);
  const Json snap = pipeline.snapshot(state);
  pipeline.run(state, index + 1);
  const std::string want = pipeline.snapshot(state).dump_compact();

  const std::string request =
      Json::object()
          .set("type", Json::string("pass"))
          .set("pass", Json::string("interconnect"))
          .set("snapshot", snap)
          .dump_compact() +
      "\n";

  Server server(ServerOptions{});
  server.start();
  std::ostringstream first, second;
  const ClientSummary s1 =
      run_client("127.0.0.1", server.port(), request, first);
  const ClientSummary s2 =
      run_client("127.0.0.1", server.port(), request, second);
  const SynthesisCache::Stats cache = server.cache().stats();

  // A snapshot that is already past "binding" cannot feed the binding pass.
  const std::string mismatched =
      Json::object()
          .set("type", Json::string("pass"))
          .set("pass", Json::string("binding"))
          .set("snapshot", snap)
          .dump_compact() +
      "\n";
  std::ostringstream bad;
  run_client("127.0.0.1", server.port(), mismatched, bad);
  server.stop();

  ASSERT_EQ(s1.responses, 1);
  ASSERT_EQ(s2.responses, 1);
  const Json r1 = Json::parse(sorted_lines(first.str()).at(0));
  EXPECT_EQ(r1.at("status").as_string(), "ok");
  EXPECT_EQ(r1.at("pass").as_string(), "interconnect");
  EXPECT_EQ(r1.at("snapshot").at("stage").as_string(), "interconnect");
  EXPECT_EQ(r1.at("snapshot").dump_compact(), want);
  // Identical request, identical bytes — the second served from the cache.
  EXPECT_EQ(sorted_lines(first.str()), sorted_lines(second.str()));
  EXPECT_GE(cache.hits, 1u);

  const Json rbad = Json::parse(sorted_lines(bad.str()).at(0));
  EXPECT_EQ(rbad.at("status").as_string(), "error");
  EXPECT_NE(rbad.at("error").as_string().find("is not the predecessor"),
            std::string::npos);
}

// Remote hybrid evaluation: post a snapshot plus a hybrid configuration,
// get the (config, bist_area, result) report back; identical requests are
// served from the pass-snapshot cache and the result matches running
// evaluate_hybrid locally.
TEST(ServerEndToEnd, HybridRequestEvaluatesAndCaches) {
  const Benchmark bench = make_ex1();
  const auto protos = parse_module_spec(bench.module_spec);
  const PassPipeline& pipeline = PassPipeline::standard();
  SynthesisOptions so;
  so.area.bit_width = 8;
  SynthState state(bench.design.dfg, *bench.design.schedule, protos, so);
  pipeline.run(state, pipeline.index_of("binding") + 1);
  const Json snap = pipeline.snapshot(state);

  HybridConfig config;
  config.name = "hybrid+topup";
  config.mode = HybridMode::ReseedTopup;
  config.pr_patterns = 62;
  const Json want = evaluate_hybrid(state, config);

  const std::string request =
      Json::object()
          .set("type", Json::string("hybrid"))
          .set("config", hybrid_config_to_json(config))
          .set("snapshot", snap)
          .dump_compact() +
      "\n";
  Server server(ServerOptions{});
  server.start();
  std::ostringstream first, second, bad;
  run_client("127.0.0.1", server.port(), request, first);
  run_client("127.0.0.1", server.port(), request, second);
  const SynthesisCache::Stats cache = server.cache().stats();
  // A request without a snapshot is a structured error, not a hangup.
  run_client("127.0.0.1", server.port(), "{\"type\": \"hybrid\"}\n", bad);
  server.stop();

  const Json r1 = Json::parse(sorted_lines(first.str()).at(0));
  EXPECT_EQ(r1.at("type").as_string(), "hybrid");
  EXPECT_EQ(r1.at("status").as_string(), "ok");
  EXPECT_EQ(r1.at("hybrid").dump_compact(), want.dump_compact());
  EXPECT_EQ(sorted_lines(first.str()), sorted_lines(second.str()));
  EXPECT_GE(cache.hits, 1u);
  const Json rbad = Json::parse(sorted_lines(bad.str()).at(0));
  EXPECT_EQ(rbad.at("status").as_string(), "error");
  EXPECT_NE(rbad.at("error").as_string().find("snapshot"),
            std::string::npos);
}

// A hybrid config asking for a 2^31-candidate GA is refused with an error
// naming the field, and the shard goes on answering the same connection.
// Unbounded, such a request dies in pop.reserve with an uncaught
// std::bad_alloc or runs ~2^31 gate sessions on the shard loop.
TEST(ServerEndToEnd, OversizedEvolveConfigIsRejectedAndShardStaysUp) {
  const Benchmark bench = make_ex1();
  SynthState state(bench.design.dfg, *bench.design.schedule,
                   parse_module_spec(bench.module_spec), SynthesisOptions{});
  const PassPipeline& pipeline = PassPipeline::standard();
  pipeline.run(state, pipeline.index_of("binding") + 1);
  const std::string request =
      Json::object()
          .set("type", Json::string("hybrid"))
          .set("config",
               Json::object()
                   .set("mode", Json::string("evolved"))
                   .set("evolve_population", Json::number(2147483647)))
          .set("snapshot", pipeline.snapshot(state))
          .dump_compact() +
      "\n{\"type\": \"health\"}\n";

  Server server(ServerOptions{});
  server.start();
  std::ostringstream out;
  const ClientSummary summary =
      run_client("127.0.0.1", server.port(), request, out);
  server.stop();

  ASSERT_EQ(summary.responses, 2);
  std::istringstream lines(out.str());
  std::string first, second;
  ASSERT_TRUE(std::getline(lines, first));
  ASSERT_TRUE(std::getline(lines, second));
  const Json rejected = Json::parse(first);
  EXPECT_EQ(rejected.at("type").as_string(), "hybrid");
  EXPECT_EQ(rejected.at("status").as_string(), "error");
  EXPECT_NE(rejected.at("error").as_string().find("evolve_population"),
            std::string::npos);
  const Json health = Json::parse(second);
  EXPECT_EQ(health.at("type").as_string(), "health");
  EXPECT_EQ(health.at("status").as_string(), "ok");
}

// A snapshot whose area width no LFSR supports is answered with an error
// before any shift by that width, and the shard goes on answering the
// same connection.
TEST(ServerEndToEnd, OverwideHybridWidthIsRejectedAndShardStaysUp) {
  const Benchmark bench = make_ex1();
  SynthState state(bench.design.dfg, *bench.design.schedule,
                   parse_module_spec(bench.module_spec), SynthesisOptions{});
  const PassPipeline& pipeline = PassPipeline::standard();
  pipeline.run(state, pipeline.index_of("binding") + 1);
  Json snap = pipeline.snapshot(state);
  Json options = snap.at("options");
  Json area = options.at("area");
  area.set("bit_width", Json::number(40));
  options.set("area", std::move(area));
  snap.set("options", std::move(options));
  const std::string request =
      Json::object()
          .set("type", Json::string("hybrid"))
          .set("snapshot", std::move(snap))
          .dump_compact() +
      "\n{\"type\": \"health\"}\n";

  Server server(ServerOptions{});
  server.start();
  std::ostringstream out;
  const ClientSummary summary =
      run_client("127.0.0.1", server.port(), request, out);
  server.stop();

  ASSERT_EQ(summary.responses, 2);
  std::istringstream lines(out.str());
  std::string first, second;
  ASSERT_TRUE(std::getline(lines, first));
  ASSERT_TRUE(std::getline(lines, second));
  const Json rejected = Json::parse(first);
  EXPECT_EQ(rejected.at("type").as_string(), "hybrid");
  EXPECT_EQ(rejected.at("status").as_string(), "error");
  EXPECT_NE(rejected.at("error").as_string().find("width 40 is outside"),
            std::string::npos)
      << rejected.at("error").as_string();
  const Json health = Json::parse(second);
  EXPECT_EQ(health.at("type").as_string(), "health");
  EXPECT_EQ(health.at("status").as_string(), "ok");
}

// The health reply carries the build record so clients can detect
// server/client version skew before posting snapshots.
TEST(ServerEndToEnd, HealthReplyCarriesBuildInfo) {
  Server server(ServerOptions{});
  server.start();
  std::ostringstream out;
  const ClientSummary summary = run_client(
      "127.0.0.1", server.port(), "{\"type\": \"health\"}\n", out);
  server.stop();
  ASSERT_EQ(summary.responses, 1);
  const Json j = Json::parse(sorted_lines(out.str()).at(0));
  EXPECT_EQ(j.at("type").as_string(), "health");
  const Json& build = j.at("build");
  for (const char* key : {"version", "git", "compiler", "sanitizer"}) {
    EXPECT_TRUE(build.contains(key)) << key;
  }
}

// Multi-shard parity: with several SO_REUSEPORT event loops the kernel
// spreads client connections across shards, but responses must stay
// byte-identical to single-threaded `lowbist batch` on the same manifest.
TEST(ShardedServer, ParityMatchesBatchAcrossShards) {
  const auto entries = parse_manifest(kParityManifest);
  std::ostringstream batch_out;
  BatchOptions batch_opts;
  batch_opts.jobs = 1;
  run_batch(entries, batch_opts, batch_out);

  ServerOptions opts;
  opts.jobs = 2;
  opts.shards = 3;
  Server server(std::move(opts));
  server.start();
  // Several sequential clients so different kernel-picked shards serve
  // traffic; each full pass must match batch byte-for-byte.
  for (int pass = 0; pass < 3; ++pass) {
    std::ostringstream server_out;
    const ClientSummary summary =
        run_client("127.0.0.1", server.port(), kParityManifest, server_out);
    EXPECT_EQ(summary.responses, static_cast<int>(entries.size()));
    EXPECT_EQ(sorted_lines(batch_out.str()), sorted_lines(server_out.str()));
  }
  server.stop();
}

// Restart-rewarm: results written to the persistent cache by one server
// process are served as L2 hits by a fresh server (empty in-memory LRU)
// pointed at the same cache directory.
TEST(ShardedServer, RestartRewarmsFromPersistentCache) {
  char tmpl[] = "/tmp/lowbist-server-cache-XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string cache_dir = tmpl;

  const std::string manifest =
      "{\"bench\": \"ex1\"}\n"
      "{\"bench\": \"paulin\", \"binder\": \"trad\"}\n";
  std::string cold_text;
  {
    ServerOptions opts;
    opts.cache_dir = cache_dir;
    Server cold(std::move(opts));
    cold.start();
    std::ostringstream out;
    const ClientSummary summary =
        run_client("127.0.0.1", cold.port(), manifest, out);
    EXPECT_EQ(summary.ok, 2);
    EXPECT_EQ(cold.cache().persistent_hits(), 0u);  // nothing on disk yet
    cold_text = out.str();
    cold.stop();
  }
  {
    ServerOptions opts;
    opts.cache_dir = cache_dir;
    Server warm(std::move(opts));
    warm.start();
    std::ostringstream out;
    const ClientSummary summary =
        run_client("127.0.0.1", warm.port(), manifest, out);
    EXPECT_EQ(summary.ok, 2);
    EXPECT_EQ(sorted_lines(out.str()), sorted_lines(cold_text));
    // Both results came off disk, not from re-running synthesis.
    EXPECT_EQ(warm.cache().persistent_hits(), 2u);
    ASSERT_NE(warm.disk(), nullptr);
    EXPECT_GE(warm.disk()->stats().hits, 2u);
    EXPECT_EQ(warm.disk()->stats().recovered, 2u);

    // The metrics request exposes the persistent tier.
    std::ostringstream metrics_out;
    run_client("127.0.0.1", warm.port(), "{\"type\": \"metrics\"}\n",
               metrics_out);
    const Json reply = Json::parse(sorted_lines(metrics_out.str()).at(0));
    EXPECT_EQ(reply.at("metrics").at("cache").at("persistent_hits").as_int(),
              2);
    EXPECT_GE(reply.at("metrics").at("diskcache").at("hits").as_int(), 2);
    warm.stop();
  }

  for (const char* name : {"cache.dat", "cache.lock", "cache.dat.compact"}) {
    std::remove((cache_dir + "/" + name).c_str());
  }
  ::rmdir(cache_dir.c_str());
}

// With trace_path set, the Chrome trace is exported as part of wait()'s
// graceful drain — a SIGTERM'd server writes the file itself before the
// final shutdown log instead of relying on the launcher surviving it.
TEST(ServerEndToEnd, SigtermDrainExportsTraceFile) {
  char tmpl[] = "/tmp/lowbist-server-trace-XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string trace_path = std::string(tmpl) + "/trace.json";

  TraceRecorder trace;
  trace.set_enabled(true);
  ServerOptions opts;
  opts.handle_signals = true;
  opts.trace = &trace;
  opts.trace_path = trace_path;
  Server server(std::move(opts));
  server.start();

  std::ostringstream out;
  const ClientSummary summary =
      run_client("127.0.0.1", server.port(), "{\"bench\": \"ex1\"}\n", out);
  EXPECT_EQ(summary.ok, 1);
  ASSERT_EQ(std::raise(SIGTERM), 0);
  server.wait();  // returns only after the drain — file must exist now

  std::ifstream in(trace_path);
  ASSERT_TRUE(in.good()) << "trace not exported during the SIGTERM drain";
  std::ostringstream buf;
  buf << in.rdbuf();
  const Json doc = Json::parse(buf.str());
  const Json& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  bool saw_request_span = false;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events.at(i).at("name").as_string() == "request") {
      saw_request_span = true;
    }
  }
  EXPECT_TRUE(saw_request_span);

  std::remove(trace_path.c_str());
  ::rmdir(tmpl);
}

// Every shard pre-registers its labeled series at start, so one scrape
// shows all shards — including ones that never took traffic — as one
// metric family per base name.
TEST(ShardedServer, PerShardSeriesAppearInPrometheusScrape) {
  ServerOptions opts;
  opts.jobs = 2;
  opts.shards = 3;
  Server server(std::move(opts));
  server.start();
  std::ostringstream out;
  const ClientSummary summary = run_client(
      "127.0.0.1", server.port(),
      "{\"bench\": \"ex1\"}\n{\"type\": \"prometheus\"}\n", out);
  server.stop();
  EXPECT_EQ(summary.responses, 2);

  std::string body;
  for (const std::string& line : sorted_lines(out.str())) {
    const Json j = Json::parse(line);
    if (const Json* t = j.find("type");
        t != nullptr && t->as_string() == "prometheus") {
      body = j.at("body").as_string();
    }
  }
  ASSERT_FALSE(body.empty());

  for (const char* family :
       {"lowbist_shard_conns", "lowbist_shard_queue_depth",
        "lowbist_shard_requests", "lowbist_shard_dirty_wakeups",
        "lowbist_shard_outbound_hwm_bytes"}) {
    for (const char* shard : {"0", "1", "2"}) {
      const std::string series =
          std::string(family) + "{shard=\"" + shard + "\"}";
      EXPECT_NE(body.find(series), std::string::npos)
          << "missing series: " << series;
    }
    // Grouped into one family: a single TYPE header despite three series.
    const std::string header = std::string("# TYPE ") + family + " ";
    const std::size_t first = body.find(header);
    ASSERT_NE(first, std::string::npos) << family;
    EXPECT_EQ(body.find(header, first + 1), std::string::npos) << family;
  }
  // The profiler's scrape-side gauges ride along on every exposition.
  EXPECT_NE(body.find("lowbist_profiler_running"), std::string::npos);
  EXPECT_NE(body.find("lowbist_profiler_dropped_samples"),
            std::string::npos);
}

// slow_request log lines fire past the threshold and carry the request's
// span id, connecting the log to the trace/profile.
TEST(ServerEndToEnd, SlowRequestsLogWithSpanId) {
  Gate gate;
  std::ostringstream log;
  ServerOptions opts;
  opts.jobs = 1;
  opts.slow_request_ms = 1;
  opts.log = &log;
  opts.test_hold = gate.hold();
  Server server(std::move(opts));
  server.start();

  std::ostringstream out;
  ClientSummary summary;
  std::thread client([&] {
    summary =
        run_client("127.0.0.1", server.port(), "{\"bench\": \"ex1\"}\n", out);
  });
  ASSERT_TRUE(wait_counter(server, "requests_total", 1));
  // The held worker keeps the request in flight well past the 1 ms
  // threshold, making the slow-request path deterministic.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.open();
  client.join();
  server.stop();

  EXPECT_EQ(summary.ok, 1);
  EXPECT_GE(server.metrics().counter("requests_slow").value(), 1u);

  bool found = false;
  std::istringstream lines(log.str());
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("\"slow_request\"") == std::string::npos) continue;
    const Json j = Json::parse(line);
    EXPECT_EQ(j.at("event").as_string(), "slow_request");
    EXPECT_GE(j.at("span_id").as_int(), 1);
    EXPECT_EQ(j.at("threshold_ms").as_int(), 1);
    EXPECT_GT(j.at("ms").as_number(), 1.0);
    found = true;
  }
  EXPECT_TRUE(found) << log.str();
}

#if !defined(LBIST_TSAN)
// Live profile capture against a running 3-shard server: start arms the
// shard loops and pool workers, dump drains and symbolizes inline, stop
// disarms — all without restarting or disturbing job traffic.
TEST(ShardedServer, ProfileControlRoundTrip) {
  ServerOptions opts;
  opts.jobs = 2;
  opts.shards = 3;
  Server server(std::move(opts));
  server.start();

  auto control = [&](const std::string& line) {
    std::ostringstream out;
    const ClientSummary summary =
        run_client("127.0.0.1", server.port(), line + "\n", out);
    EXPECT_EQ(summary.responses, 1);
    return Json::parse(sorted_lines(out.str()).at(0));
  };

  const Json started =
      control("{\"type\": \"profile\", \"action\": \"start\", \"hz\": 997}");
  EXPECT_EQ(started.at("status").as_string(), "ok");
  EXPECT_TRUE(started.at("running").as_bool());
  EXPECT_EQ(started.at("hz").as_int(), 997);

  // Push some real work through the armed workers (distinct widths dodge
  // the cache) so the dump has something to attribute.
  std::ostringstream jobs_out;
  run_client("127.0.0.1", server.port(),
             "{\"bench\": \"paulin\", \"width\": 5}\n"
             "{\"bench\": \"paulin\", \"width\": 6}\n"
             "{\"bench\": \"tseng\", \"width\": 7}\n",
             jobs_out);

  const Json dumped = control("{\"type\": \"profile\", \"action\": \"dump\"}");
  EXPECT_EQ(dumped.at("status").as_string(), "ok");
  EXPECT_TRUE(dumped.at("running").as_bool());  // dump does not stop it
  const Json& profile = dumped.at("profile");
  EXPECT_EQ(profile.at("format").as_string(), "lowbist-profile-v1");
  EXPECT_EQ(profile.at("hz").as_int(), 997);
  EXPECT_TRUE(profile.at("spans").is_array());
  EXPECT_TRUE(profile.at("top_stacks").is_array());

  const Json bogus =
      control("{\"type\": \"profile\", \"action\": \"bogus\"}");
  EXPECT_EQ(bogus.at("status").as_string(), "error");

  const Json stopped =
      control("{\"type\": \"profile\", \"action\": \"stop\"}");
  EXPECT_EQ(stopped.at("status").as_string(), "ok");
  EXPECT_FALSE(stopped.at("running").as_bool());
  server.stop();
}
#endif  // !LBIST_TSAN

TEST(ClientHelpers, ParseHostPort) {
  std::string host;
  std::uint16_t port = 0;
  parse_host_port("127.0.0.1:8080", &host, &port);
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 8080);
  parse_host_port("localhost:1", &host, &port);
  EXPECT_EQ(host, "localhost");
  EXPECT_EQ(port, 1);
  EXPECT_THROW(parse_host_port("nocolon", &host, &port), Error);
  EXPECT_THROW(parse_host_port("host:", &host, &port), Error);
  EXPECT_THROW(parse_host_port(":80", &host, &port), Error);
  EXPECT_THROW(parse_host_port("host:99999", &host, &port), Error);
  EXPECT_THROW(parse_host_port("host:abc", &host, &port), Error);
}

}  // namespace
}  // namespace lbist
