#pragma once
// Long-running synthesis server.
//
// `lowbist serve` binds a loopback TCP port and speaks newline-delimited
// JSON: one request object per line in, one result line out.  Job requests
// use the exact `lowbist batch` manifest schema and produce byte-identical
// result lines (every job runs through service/batch's decode_manifest_
// line + run_entry), so a JSONL manifest is replayable against a
// live server — but the ThreadPool and SynthesisCache now persist across
// requests and connections, keeping the cache warm between sweeps.
//
// Architecture (one Server instance, `shards` event-loop shards):
//
//   shard 0..N-1, each: SO_REUSEPORT listener + epoll loop ──► ThreadPool
//        │  (non-blocking line framing, queries,                   │
//   SIGINT/SIGTERM  bounded admission → reject "overloaded")  workers run
//   self-pipe       └◄── responses queued by workers, flushed  jobs, pass
//   wakeup               by the shard loop with backpressure ◄─ and hybrid
//
// The kernel load-balances incoming connections across the shard
// listeners; each shard owns its connections outright, so no lock is
// shared between shards on the I/O path.  Responses are queued into a
// bounded per-connection outbound buffer; a peer that stops reading while
// responses pile up past `max_outbound` is disconnected (slow-reader
// protection) instead of growing server memory without bound.
//
// Work — a manifest job, a {"type":"pass"} or a {"type":"hybrid"} request
// — takes one path: at most `max_queue` items may be admitted-but-
// unfinished; past that an item is refused at once with a status:"error"/
// "overloaded" line instead of buffering without bound.  Deadlines: with
// `deadline_ms` > 0, an item that waited longer than the deadline in the
// queue is answered with a "deadline exceeded" error when a worker picks
// it up — the stale item never executes, so one backlog spike cannot
// poison workers with long-dead work.  Queries (health, metrics,
// prometheus, profile) read server state and are answered inline by the
// shard loop, so they keep working under full overload.  Graceful
// shutdown (request_stop(), or SIGINT/SIGTERM with handle_signals): stop
// accepting, stop reading, drain every admitted item, flush responses,
// then dump final metrics to the log stream.  See docs/server.md.
//
// Persistent cache: with `cache_dir` set, a content-addressed DiskCache
// (service/diskcache) sits behind the in-memory LRU as L2 — shared by all
// shards, surviving restarts, bounded by `cache_budget_bytes`.  See
// docs/diskcache.md.

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/events.hpp"
#include "service/batch.hpp"
#include "service/cache.hpp"
#include "service/metrics.hpp"
#include "service/thread_pool.hpp"

namespace lbist {

class TraceRecorder;  // obs/trace.hpp

struct ServerOptions {
  std::uint16_t port = 0;            ///< 0 = kernel-assigned ephemeral port
  int jobs = 1;                      ///< worker threads; < 1 = hardware count
  int shards = 1;                    ///< event-loop shards; < 1 = 1
  std::size_t cache_capacity = 256;  ///< SynthesisCache entries
  std::size_t max_queue = 64;        ///< admitted-but-unfinished work bound
  int deadline_ms = 0;               ///< per-item queue deadline; 0 = none
  /// Pending (unsent) response bytes allowed per connection before the
  /// peer is treated as a slow reader and disconnected.
  std::size_t max_outbound = 8u << 20;
  /// Persistent L2 cache directory ("" = in-memory cache only).
  std::string cache_dir;
  std::uint64_t cache_budget_bytes = 256ull << 20;  ///< L2 size bound
  bool handle_signals = false;       ///< SIGINT/SIGTERM → graceful shutdown
  std::ostream* log = nullptr;       ///< structured log lines (e.g. &std::cerr)
  /// Optional: per-request "request" spans (with nested pipeline phase
  /// spans) are recorded here.  Borrowed; must outlive the server.
  TraceRecorder* trace = nullptr;
  /// With `trace` set, write the Chrome trace here during wait() — i.e. as
  /// part of the SIGTERM/SIGINT graceful drain — so a killed server still
  /// exports its trace without the launcher's cooperation.  "" = the
  /// caller exports (or discards) the recorder itself.
  std::string trace_path;
  /// Threshold for the "slow_request" log line (carries the request's span
  /// id, connecting the log to the trace/profile).  0 = disabled.
  int slow_request_ms = 0;
  /// Retain decision-event objects (exportable via events().write_jsonl)
  /// in addition to the always-on counters.  Off by default: a long-lived
  /// server should not accumulate an unbounded event log.
  bool keep_events = false;
  /// Test seam: when set, workers invoke this before running each work
  /// item (after the deadline check).  Tests block here to hold workers
  /// busy and make admission and shutdown draining deterministic.
  std::function<void()> test_hold;
};

class DiskCache;  // service/diskcache/diskcache.hpp

class Server {
 public:
  explicit Server(ServerOptions opts);
  /// Stops the server (request_stop + wait) if still running.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the shard listeners and spawns the shard loops; on return
  /// port() is valid and the server accepts connections.  Throws Error on
  /// bind failure or when cache_dir is locked by another process.
  void start();

  /// The bound port (resolves an ephemeral `port = 0` request).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Initiates graceful shutdown from any thread (signal-safe wakeup: one
  /// write to the self-pipe).  Returns immediately; wait() observes the
  /// drain.
  void request_stop();

  /// Blocks until shutdown completes: every admitted request answered,
  /// responses flushed, connections closed, shard loops joined, pool
  /// drained.  Dumps final metrics to the log stream.
  void wait();

  /// request_stop() + wait().
  void stop();

  /// Live instruments (shared with every worker).
  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] SynthesisCache& cache() { return cache_; }
  /// The persistent L2 store, or nullptr when cache_dir was empty.
  [[nodiscard]] DiskCache* disk() const { return disk_.get(); }
  /// Decision-event sink (counters always; objects iff keep_events).
  [[nodiscard]] const AlgorithmEvents& events() const { return events_; }

 private:
  struct Conn;
  struct Shard;

  void shard_loop(Shard& shard);
  void accept_burst(Shard& shard);
  void on_readable(Shard& shard, const std::shared_ptr<Conn>& conn);
  /// Answers a query inline or submits work, for one request line.
  void route_line(const std::shared_ptr<Conn>& conn, std::string line);
  void answer_query(Conn* conn, const std::string& type, const Json& doc);
  /// A pass or hybrid request, run on a worker; `reply` holds the reply's
  /// leading fields.
  JobOutcome run_on_snapshot(const std::string& line, Json reply);
  /// The one path for work: admission, queue deadline, pool, accounting.
  void submit(const std::shared_ptr<Conn>& conn, std::size_t index,
              std::string name, Json head, std::function<JobOutcome()> run);
  /// Queues one response line (any thread); flags overflow for the loop.
  void append_response(Conn* conn, const Json& line);
  /// Flushes, rearms epoll interest and retires the connection when it is
  /// finished (loop thread only).
  void flush_and_update(Shard& shard, const std::shared_ptr<Conn>& conn);
  void close_conn(Shard& shard, std::uint64_t id);
  void notify_dirty(int shard_index, std::uint64_t conn_id);
  void start_drain(Shard& shard);
  void log_event(const Json& line);
  [[nodiscard]] Json metrics_json() const;

  ServerOptions opts_;
  MetricsRegistry metrics_;
  /// Decision-event sink: every synthesis run feeds the binding.* /
  /// cbilbo.* / interconnect.* / bist.* counters of metrics_ (scraped via
  /// {"type":"prometheus"}); event objects are retained only when
  /// opts_.keep_events asks for them.
  AlgorithmEvents events_;
  std::unique_ptr<DiskCache> disk_;
  SynthesisCache cache_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::uint16_t port_ = 0;
  bool started_ = false;
  bool finished_ = false;

  std::atomic<std::uint64_t> next_conn_id_{1};  // 0 tags the listener
  std::atomic<std::int64_t> in_flight_{0};
  std::atomic<std::uint64_t> next_span_id_{1};  // request span identity

  std::mutex log_mu_;
  int stop_pipe_[2] = {-1, -1};  // [0] read / [1] write (self-pipe)
  bool signals_installed_ = false;
};

}  // namespace lbist
