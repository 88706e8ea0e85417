// Load generator for the synthesis server (ISSUE 3): spins up an
// in-process Server, drives it over real loopback sockets with 1, 4 and 8
// concurrent client connections, and reports throughput and per-request
// round-trip p50/p95/p99 — cold cache vs warm cache.  A sustained-load
// section (ISSUE 8) pushes 64-256 concurrent connections at a sharded
// server and compares a cold persistent cache against a restart that
// rewarms from disk.
//
// This is a plain main() (not google-benchmark): each scenario is one
// timed run over a fixed request mix, which maps better onto "N
// connections, M requests each" than benchmark's auto-scaled iteration
// model.
//
//   ./bench/bench_server [requests-per-connection]   (default 32)

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "obs/trace.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "server/server.hpp"
#include "service/diskcache/diskcache.hpp"
#include "support/table.hpp"

namespace {

using Clock = std::chrono::steady_clock;

/// The request mix: a small rotation of distinct jobs so a cold run
/// exercises real synthesis and a warm run hits the cache.
const char* kJobs[] = {
    "{\"bench\": \"ex1\"}",
    "{\"bench\": \"ex2\"}",
    "{\"bench\": \"paulin\"}",
    "{\"bench\": \"tseng\"}",
    "{\"bench\": \"paulin\", \"binder\": \"trad\"}",
    "{\"bench\": \"ex1\", \"width\": 8}",
    "{\"bench\": \"ex2\", \"width\": 16}",
    "{\"bench\": \"paulin\", \"width\": 8, \"binder\": \"clique\"}",
};
constexpr int kJobCount = static_cast<int>(sizeof(kJobs) / sizeof(kJobs[0]));

struct RunStats {
  double seconds = 0.0;
  std::vector<double> latencies_ms;  // one per request, all connections
};

/// One client connection issuing `requests` jobs in closed loop (send one
/// line, wait for its response line, repeat) and timing each round trip.
void run_connection(std::uint16_t port, int requests, int seed,
                    std::vector<double>* latencies) {
  lbist::net::Socket sock = lbist::net::connect_to("127.0.0.1", port);
  lbist::net::LineFramer framer;
  std::string line;
  latencies->reserve(static_cast<std::size_t>(requests));
  for (int i = 0; i < requests; ++i) {
    const std::string request =
        std::string(kJobs[(seed + i) % kJobCount]) + "\n";
    const Clock::time_point t0 = Clock::now();
    lbist::net::send_all(sock.fd(), request);
    if (!lbist::net::recv_line(sock.fd(), framer, &line)) {
      break;  // server went away
    }
    latencies->push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0)
            .count());
  }
  sock.shutdown_write();
}

RunStats run_scenario(lbist::Server& server, int connections,
                      int requests_per_conn) {
  std::vector<std::vector<double>> per_conn(
      static_cast<std::size_t>(connections));
  std::vector<std::thread> threads;
  const Clock::time_point t0 = Clock::now();
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back(run_connection, server.port(), requests_per_conn,
                         c, &per_conn[static_cast<std::size_t>(c)]);
  }
  for (auto& t : threads) t.join();
  RunStats stats;
  stats.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  for (auto& v : per_conn) {
    stats.latencies_ms.insert(stats.latencies_ms.end(), v.begin(), v.end());
  }
  std::sort(stats.latencies_ms.begin(), stats.latencies_ms.end());
  return stats;
}

/// One connection issuing `requests` lines drawn from `mix` in closed
/// loop (used by the sustained-load section, where the rotation is wider
/// than kJobs so the persistent tier has real work to absorb).
void run_connection_mix(std::uint16_t port, int requests, int seed,
                        const std::vector<std::string>* mix,
                        std::vector<double>* latencies) {
  lbist::net::Socket sock = lbist::net::connect_to("127.0.0.1", port);
  lbist::net::LineFramer framer;
  std::string line;
  latencies->reserve(static_cast<std::size_t>(requests));
  for (int i = 0; i < requests; ++i) {
    const std::string& request =
        (*mix)[static_cast<std::size_t>(seed + i) % mix->size()];
    const Clock::time_point t0 = Clock::now();
    lbist::net::send_all(sock.fd(), request);
    if (!lbist::net::recv_line(sock.fd(), framer, &line)) break;
    latencies->push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0)
            .count());
  }
  sock.shutdown_write();
}

RunStats run_scenario_mix(lbist::Server& server, int connections,
                          int requests_per_conn,
                          const std::vector<std::string>& mix) {
  std::vector<std::vector<double>> per_conn(
      static_cast<std::size_t>(connections));
  std::vector<std::thread> threads;
  const Clock::time_point t0 = Clock::now();
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back(run_connection_mix, server.port(),
                         requests_per_conn, c, &mix,
                         &per_conn[static_cast<std::size_t>(c)]);
  }
  for (auto& t : threads) t.join();
  RunStats stats;
  stats.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  for (auto& v : per_conn) {
    stats.latencies_ms.insert(stats.latencies_ms.end(), v.begin(), v.end());
  }
  std::sort(stats.latencies_ms.begin(), stats.latencies_ms.end());
  return stats;
}

/// A wide rotation (4 benches x 6 widths = 24 distinct syntheses) so the
/// cold arm pays for real synthesis work that the persistent-warm arm
/// recovers from disk instead.
std::vector<std::string> sustained_mix() {
  std::vector<std::string> mix;
  for (const char* bench : {"ex1", "ex2", "paulin", "tseng"}) {
    for (const int width : {8, 12, 16, 20, 24, 32}) {
      mix.push_back("{\"bench\": \"" + std::string(bench) +
                    "\", \"width\": " + std::to_string(width) + "}\n");
    }
  }
  return mix;
}

std::string make_cache_dir() {
  char tmpl[] = "/tmp/lowbist-bench-cache-XXXXXX";
  if (::mkdtemp(tmpl) == nullptr) {
    std::fprintf(stderr, "mkdtemp failed; persistent arm disabled\n");
    return std::string();
  }
  return tmpl;
}

void remove_cache_dir(const std::string& dir) {
  if (dir.empty()) return;
  for (const char* name : {"cache.dat", "cache.lock", "cache.dat.compact"}) {
    std::remove((dir + "/" + name).c_str());
  }
  ::rmdir(dir.c_str());
}

using lbist::benchjson::percentile;

}  // namespace

int main(int argc, char** argv) {
  int requests_per_conn = 32;
  if (argc > 1) requests_per_conn = std::atoi(argv[1]);
  if (requests_per_conn < 1) requests_per_conn = 1;

  lbist::TextTable table({"connections", "cache", "requests", "seconds",
                          "req/s", "p50 ms", "p95 ms", "p99 ms"});
  table.set_title("lowbist serve loopback load (closed loop per connection)");
  lbist::benchjson::BenchJson artifact("server");

  for (int connections : {1, 4, 8}) {
    // A fresh server per connection count: "cold" means an empty cache,
    // "warm" repeats the identical mix against the now-populated cache.
    lbist::ServerOptions opts;
    opts.jobs = 0;  // hardware concurrency
    opts.max_queue = 256;
    lbist::Server server(std::move(opts));
    server.start();
    for (const char* label : {"cold", "warm"}) {
      const RunStats stats =
          run_scenario(server, connections, requests_per_conn);
      const auto n = static_cast<double>(stats.latencies_ms.size());
      artifact.add("loopback",
                   std::to_string(connections) + " conn, " + label,
                   stats.latencies_ms,
                   lbist::Json::object().set(
                       "req_per_sec", lbist::Json::number(n / stats.seconds)));
      table.add_row({std::to_string(connections), label,
                     std::to_string(stats.latencies_ms.size()),
                     lbist::fmt_double(stats.seconds, 3),
                     lbist::fmt_double(n / stats.seconds, 1),
                     lbist::fmt_double(percentile(stats.latencies_ms, 0.50), 3),
                     lbist::fmt_double(percentile(stats.latencies_ms, 0.95), 3),
                     lbist::fmt_double(percentile(stats.latencies_ms, 0.99), 3)});
    }
    const auto cache = server.cache().stats();
    server.stop();
    std::printf("connections=%d: cache hits=%llu misses=%llu\n", connections,
                static_cast<unsigned long long>(cache.hits),
                static_cast<unsigned long long>(cache.misses));
  }
  std::printf("%s\n", table.str().c_str());

  // Tracing overhead at 4 connections, cold cache each time: a recorder
  // that is attached but disabled must cost nothing measurable; enabled,
  // every request records a span tree (docs/observability.md).
  lbist::TextTable trace_table({"tracing", "requests", "seconds", "req/s",
                                "p50 ms", "p95 ms", "p99 ms", "spans"});
  trace_table.set_title("tracing overhead (4 connections, cold cache)");
  for (const bool enabled : {false, true}) {
    lbist::TraceRecorder rec;
    rec.set_enabled(enabled);
    lbist::ServerOptions opts;
    opts.jobs = 0;
    opts.max_queue = 256;
    opts.trace = &rec;
    lbist::Server server(std::move(opts));
    server.start();
    const RunStats stats = run_scenario(server, 4, requests_per_conn);
    server.stop();
    const auto n = static_cast<double>(stats.latencies_ms.size());
    artifact.add("tracing", enabled ? "enabled" : "disabled",
                 stats.latencies_ms,
                 lbist::Json::object()
                     .set("req_per_sec", lbist::Json::number(n / stats.seconds))
                     .set("spans", lbist::Json::number(static_cast<std::int64_t>(
                                       rec.event_count()))));
    trace_table.add_row(
        {enabled ? "enabled" : "disabled",
         std::to_string(stats.latencies_ms.size()),
         lbist::fmt_double(stats.seconds, 3),
         lbist::fmt_double(n / stats.seconds, 1),
         lbist::fmt_double(percentile(stats.latencies_ms, 0.50), 3),
         lbist::fmt_double(percentile(stats.latencies_ms, 0.95), 3),
         lbist::fmt_double(percentile(stats.latencies_ms, 0.99), 3),
         std::to_string(rec.event_count())});
  }
  std::printf("%s\n", trace_table.str().c_str());

  // Sustained load against the sharded server: 64-256 concurrent
  // connections in closed loop over a 24-job rotation.  "cold" starts
  // with an empty persistent cache and pays for every distinct synthesis;
  // "warm-persistent" is a *restarted* server (empty in-memory LRU)
  // pointed at the cache directory the cold run populated, so repeated
  // work is answered from disk.
  lbist::TextTable sustained_table({"connections", "cache", "requests",
                                    "seconds", "req/s", "p50 ms", "p95 ms",
                                    "p99 ms"});
  sustained_table.set_title(
      "sustained sharded load (4 shards, persistent cache restart-rewarm)");
  const std::vector<std::string> mix = sustained_mix();
  for (const int connections : {64, 128, 256}) {
    const std::string cache_dir = make_cache_dir();
    for (const char* label : {"cold", "warm-persistent"}) {
      // A fresh server per arm: the warm arm rewarms from disk alone.
      lbist::ServerOptions opts;
      opts.jobs = 0;
      opts.shards = 4;
      opts.max_queue = 1024;
      opts.cache_dir = cache_dir;
      lbist::Server server(std::move(opts));
      server.start();
      const RunStats stats =
          run_scenario_mix(server, connections, requests_per_conn, mix);
      const auto n = static_cast<double>(stats.latencies_ms.size());
      lbist::Json extra = lbist::Json::object()
                              .set("req_per_sec",
                                   lbist::Json::number(n / stats.seconds))
                              .set("shards", lbist::Json::number(4));
      if (server.disk() != nullptr) {
        const lbist::DiskCache::Stats disk = server.disk()->stats();
        extra
            .set("disk_hits", lbist::Json::number(
                                  static_cast<std::int64_t>(disk.hits)))
            .set("disk_entries", lbist::Json::number(static_cast<std::int64_t>(
                                     disk.entries)))
            .set("persistent_hits",
                 lbist::Json::number(static_cast<std::int64_t>(
                     server.cache().persistent_hits())));
      }
      server.stop();
      artifact.add("sustained",
                   std::to_string(connections) + " conn, " + label,
                   stats.latencies_ms, std::move(extra));
      sustained_table.add_row(
          {std::to_string(connections), label,
           std::to_string(stats.latencies_ms.size()),
           lbist::fmt_double(stats.seconds, 3),
           lbist::fmt_double(n / stats.seconds, 1),
           lbist::fmt_double(percentile(stats.latencies_ms, 0.50), 3),
           lbist::fmt_double(percentile(stats.latencies_ms, 0.95), 3),
           lbist::fmt_double(percentile(stats.latencies_ms, 0.99), 3)});
    }
    remove_cache_dir(cache_dir);
  }
  std::printf("%s\n", sustained_table.str().c_str());

  artifact.write();
  return 0;
}
