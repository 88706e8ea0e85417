#include "server/server.hpp"

#include <csignal>
#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <fstream>
#include <ostream>
#include <thread>
#include <unordered_map>
#include <utility>

#include "hybrid/eval.hpp"
#include "net/event_loop.hpp"
#include "net/frame.hpp"
#include "net/listener.hpp"
#include "net/socket.hpp"
#include "obs/profiler.hpp"
#include "obs/prom.hpp"
#include "obs/trace.hpp"
#include "passes/pipeline.hpp"
#include "service/diskcache/diskcache.hpp"
#include "support/version.hpp"

namespace lbist {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kListenerTag = 0;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// Graceful-shutdown self-pipe shared with the signal handler.  Only one
// server installs handlers at a time (the CLI's); the handler does nothing
// but one async-signal-safe write().
std::atomic<int> g_signal_fd{-1};

void on_signal(int) {
  const int fd = g_signal_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 's';
    [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
  }
}

bool blank_or_comment(const std::string& line) {
  const std::size_t first = line.find_first_not_of(" \t\r");
  return first == std::string::npos || line[first] == '#';
}

}  // namespace

/// One accepted connection.  The owning shard loop is the only thread that
/// reads, flushes or closes it; workers only queue response lines under
/// `out_mu` and then nudge the loop through the shard's dirty list.  The
/// connection table holds shared_ptrs and every worker lambda captures
/// one, so a connection torn down mid-request (slow reader, peer reset)
/// stays a valid — if inert — object until the last worker drops it.
struct Server::Conn {
  explicit Conn(std::size_t max_outbound) : outbound(max_outbound) {}

  std::uint64_t id = 0;  ///< epoll tag and log identity
  int shard = 0;         ///< owning shard index
  net::Socket sock;
  net::LineFramer framer;

  // Loop-thread-only state.
  bool read_open = true;
  std::uint32_t interest = 0;  ///< currently registered epoll interest
  int line_no = 0;
  std::size_t next_job = 0;

  // Shared with workers, guarded by out_mu.
  std::mutex out_mu;
  net::OutboundBuffer outbound;
  bool closed = false;    ///< socket retired; late responses are dropped
  bool overflow = false;  ///< outbound bound hit; disconnect as slow reader

  /// Admitted-but-unanswered jobs on this connection.  The worker's
  /// release-decrement pairs with the loop's acquire-load: observing zero
  /// proves every response line is already in `outbound`.
  std::atomic<int> jobs_in_flight{0};
};

/// One event-loop shard: its SO_REUSEPORT listener, epoll loop, thread and
/// private connection table.  `dirty` is the only cross-thread door:
/// workers push connection ids there (plus an eventfd wakeup) after
/// queueing a response.
struct Server::Shard {
  int index = 0;
  net::EventLoop loop;
  std::unique_ptr<net::ReuseportListener> listener;
  std::thread thread;
  std::unordered_map<std::uint64_t, std::shared_ptr<Conn>> conns;

  std::mutex dirty_mu;
  std::vector<std::uint64_t> dirty;

  std::atomic<bool> drain{false};
  bool drain_handled = false;

  // Per-shard instrument names, pre-encoded with the shard label (see
  // labeled_metric) so the hot paths do no string building.
  std::string m_conns;
  std::string m_queue_depth;
  std::string m_loop_iter_ms;
  std::string m_outbound_hwm;
  std::string m_dirty_wakeups;
  std::string m_requests;

  /// Jobs admitted through this shard's connections, still unanswered.
  std::atomic<int> in_flight{0};
  /// Largest pending outbound-buffer size seen at flush (loop thread only).
  std::size_t outbound_hwm = 0;
};

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)),
      events_(&metrics_, opts_.keep_events),
      cache_(opts_.cache_capacity) {
  if (opts_.max_queue == 0) opts_.max_queue = 1;
  if (opts_.shards < 1) opts_.shards = 1;
  if (opts_.max_outbound < 4096) opts_.max_outbound = 4096;
}

Server::~Server() {
  if (started_ && !finished_) stop();
}

void Server::start() {
  LBIST_CHECK(!started_, "Server::start called twice");
  if (::pipe(stop_pipe_) != 0) throw Error("pipe: self-pipe setup failed");
  if (opts_.handle_signals) {
    g_signal_fd.store(stop_pipe_[1], std::memory_order_relaxed);
    struct sigaction sa = {};
    sa.sa_handler = on_signal;
    ::sigemptyset(&sa.sa_mask);
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
    signals_installed_ = true;
  }
  if (!opts_.cache_dir.empty()) {
    DiskCacheOptions dopts;
    dopts.dir = opts_.cache_dir;
    dopts.budget_bytes = opts_.cache_budget_bytes;
    disk_ = std::make_unique<DiskCache>(dopts);
    cache_.attach_disk(disk_.get());
  }
  // Workers register with the sampling profiler as they start, so a
  // {"type":"profile"} control request can arm them live.
  ThreadPool::set_thread_start_hook(
      [] { obs::Profiler::attach_current_thread(); });
  pool_ = std::make_unique<ThreadPool>(ThreadPool::resolve_jobs(opts_.jobs));
  shards_.reserve(static_cast<std::size_t>(opts_.shards));
  for (int i = 0; i < opts_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = i;
    // Shard 0 resolves an ephemeral port request; the rest join it.
    shard->listener = std::make_unique<net::ReuseportListener>(
        i == 0 ? opts_.port : port_);
    if (i == 0) port_ = shard->listener->port();
    shard->loop.add(shard->listener->fd(), net::EventLoop::kRead,
                    kListenerTag);
    const PromLabels shard_label = {{"shard", std::to_string(i)}};
    shard->m_conns = labeled_metric("shard.conns", shard_label);
    shard->m_queue_depth = labeled_metric("shard.queue_depth", shard_label);
    shard->m_loop_iter_ms = labeled_metric("shard.loop_iter_ms", shard_label);
    shard->m_outbound_hwm =
        labeled_metric("shard.outbound_hwm_bytes", shard_label);
    shard->m_dirty_wakeups =
        labeled_metric("shard.dirty_wakeups", shard_label);
    shard->m_requests = labeled_metric("shard.requests", shard_label);
    // Materialize every per-shard series up front so a scrape sees all
    // shards, including ones that never took traffic.
    metrics_.gauge(shard->m_conns).set(0.0);
    metrics_.gauge(shard->m_queue_depth).set(0.0);
    metrics_.gauge(shard->m_outbound_hwm).set(0.0);
    metrics_.counter(shard->m_dirty_wakeups);
    metrics_.counter(shard->m_requests);
    shards_.push_back(std::move(shard));
  }
  started_ = true;
  log_event(Json::object()
                .set("event", Json::string("listening"))
                .set("port", Json::number(static_cast<int>(port_)))
                .set("workers", Json::number(pool_->size()))
                .set("shards", Json::number(opts_.shards))
                .set("max_queue", Json::number(opts_.max_queue)));
  for (auto& shard : shards_) {
    Shard* raw = shard.get();
    raw->thread = std::thread([this, raw] { shard_loop(*raw); });
  }
}

void Server::request_stop() {
  if (stop_pipe_[1] >= 0) {
    const char byte = 's';
    [[maybe_unused]] const ssize_t n = ::write(stop_pipe_[1], &byte, 1);
  }
}

void Server::stop() {
  request_stop();
  wait();
}

void Server::wait() {
  LBIST_CHECK(started_, "Server::wait before start");
  if (finished_) return;
  // Block until request_stop() or a handled signal writes the self-pipe.
  char drain[16];
  while (true) {
    const ssize_t n = ::read(stop_pipe_[0], drain, sizeof drain);
    if (n > 0) break;
    if (n < 0 && errno == EINTR) continue;
    break;  // pipe gone; treat as stop
  }
  for (auto& shard : shards_) {
    shard->drain.store(true, std::memory_order_release);
    shard->loop.wakeup();
  }
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  finished_ = true;
  pool_.reset();  // workers already idle: every admitted job was answered
  if (signals_installed_) {
    g_signal_fd.store(-1, std::memory_order_relaxed);
    struct sigaction sa = {};
    sa.sa_handler = SIG_DFL;
    ::sigemptyset(&sa.sa_mask);
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
    signals_installed_ = false;
  }
  for (int& fd : stop_pipe_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  // Export the trace as part of the graceful drain: every worker has
  // finished (pool joined above), so the recorder is quiescent and a
  // SIGTERM'd server still leaves a complete trace behind.
  if (opts_.trace != nullptr && !opts_.trace_path.empty()) {
    std::ofstream trace_out(opts_.trace_path);
    if (trace_out) {
      opts_.trace->write_chrome(trace_out);
      log_event(Json::object()
                    .set("event", Json::string("trace_exported"))
                    .set("path", Json::string(opts_.trace_path))
                    .set("spans", Json::number(opts_.trace->event_count())));
    } else {
      log_event(Json::object()
                    .set("event", Json::string("trace_export_failed"))
                    .set("path", Json::string(opts_.trace_path)));
    }
  }
  log_event(Json::object()
                .set("event", Json::string("shutdown"))
                .set("metrics", metrics_json()));
}

void Server::shard_loop(Shard& shard) {
  obs::Profiler::attach_current_thread();
  Histogram& iter_ms = metrics_.histogram(shard.m_loop_iter_ms);
  shard.loop.set_iteration_hook([&iter_ms](std::uint64_t busy_ns) {
    iter_ms.record(static_cast<double>(busy_ns) / 1e6);
  });
  std::vector<net::EventLoop::Ready> ready;
  std::vector<std::uint64_t> dirty;
  while (true) {
    bool woken = false;
    shard.loop.wait(&ready, -1, &woken);
    if (woken) {
      dirty.clear();
      {
        std::lock_guard<std::mutex> lock(shard.dirty_mu);
        dirty.swap(shard.dirty);
      }
      for (const std::uint64_t id : dirty) {
        auto it = shard.conns.find(id);
        if (it != shard.conns.end()) flush_and_update(shard, it->second);
      }
    }
    if (shard.drain.load(std::memory_order_acquire) && !shard.drain_handled) {
      start_drain(shard);
    }
    for (const net::EventLoop::Ready& ev : ready) {
      if (ev.tag == kListenerTag) {
        if (shard.listener != nullptr && ev.readable) accept_burst(shard);
        continue;
      }
      auto it = shard.conns.find(ev.tag);
      if (it == shard.conns.end()) continue;  // closed earlier this batch
      if (ev.hangup) {
        // Both directions are gone (RST or full close while we still held
        // the fd); any unflushed responses are undeliverable.
        close_conn(shard, ev.tag);
        continue;
      }
      if (ev.readable) on_readable(shard, it->second);
      it = shard.conns.find(ev.tag);
      if (it != shard.conns.end() && ev.writable) {
        flush_and_update(shard, it->second);
      }
    }
    if (shard.drain_handled && shard.conns.empty()) break;
  }
}

void Server::accept_burst(Shard& shard) {
  while (shard.listener != nullptr) {
    net::Socket sock;
    const net::ReuseportListener::AcceptStatus status =
        shard.listener->accept_one(&sock);
    if (status == net::ReuseportListener::AcceptStatus::WouldBlock) break;
    if (status == net::ReuseportListener::AcceptStatus::Retry) continue;
    if (status == net::ReuseportListener::AcceptStatus::FdExhausted) {
      // One pending connection was shed against the reserve descriptor;
      // count it and let the level-triggered loop retry on the next event
      // instead of spinning here.
      metrics_.counter("accept_fd_exhausted").inc();
      log_event(Json::object()
                    .set("event", Json::string("accept_fd_exhausted"))
                    .set("shard", Json::number(shard.index)));
      break;
    }
    auto conn = std::make_shared<Conn>(opts_.max_outbound);
    conn->id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
    conn->shard = shard.index;
    conn->sock = std::move(sock);
    conn->interest = net::EventLoop::kRead;
    shard.loop.add(conn->sock.fd(), conn->interest, conn->id);
    metrics_.counter("connections").inc();
    log_event(Json::object()
                  .set("event", Json::string("conn_open"))
                  .set("conn", Json::number(conn->id))
                  .set("shard", Json::number(shard.index)));
    shard.conns.emplace(conn->id, std::move(conn));
    metrics_.gauge(shard.m_conns)
        .set(static_cast<double>(shard.conns.size()));
  }
}

void Server::on_readable(Shard& shard, const std::shared_ptr<Conn>& conn) {
  char chunk[16384];
  bool peer_gone = false;
  try {
    while (conn->read_open) {
      const ssize_t n = ::recv(conn->sock.fd(), chunk, sizeof chunk, 0);
      if (n > 0) {
        conn->framer.feed(chunk, static_cast<std::size_t>(n));
        process_pending_lines(conn);
        continue;
      }
      if (n == 0) {
        // Clean end-of-requests (possibly a half-close: the peer still
        // reads responses).  Deliver a final unterminated line, then stop
        // reading; in-flight responses keep flowing until drained.
        std::string line;
        if (conn->framer.finish(&line)) {
          ++conn->line_no;
          if (!blank_or_comment(line) && !handle_control(conn.get(), line)) {
            submit_job(conn, decode_manifest_line(conn->line_no, line),
                       conn->next_job++);
          }
        }
        conn->read_open = false;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      peer_gone = true;  // ECONNRESET and friends
      break;
    }
  } catch (const Error& e) {
    // Framing/manifest failure (oversized line, bad JSON): answer with a
    // bare protocol error and stop reading; already-admitted responses
    // still drain before the socket closes.
    append_response(conn.get(), Json::object().set(
                                    "error", Json::string(e.what())));
    log_event(Json::object()
                  .set("event", Json::string("conn_error"))
                  .set("conn", Json::number(conn->id))
                  .set("error", Json::string(e.what())));
    conn->read_open = false;
  }
  if (peer_gone) {
    close_conn(shard, conn->id);
    return;
  }
  flush_and_update(shard, conn);
}

void Server::process_pending_lines(const std::shared_ptr<Conn>& conn) {
  std::string line;
  while (conn->read_open && conn->framer.next(&line)) {
    ++conn->line_no;
    if (blank_or_comment(line)) continue;
    if (handle_control(conn.get(), line)) continue;
    submit_job(conn, decode_manifest_line(conn->line_no, line),
               conn->next_job++);
  }
}

bool Server::handle_control(Conn* conn, const std::string& line) {
  std::string type;
  Json doc;
  try {
    doc = Json::parse(line);
    const Json* t = doc.find("type");
    if (t == nullptr || !t->is_string()) return false;
    type = t->as_string();
  } catch (const std::exception&) {
    return false;  // not even JSON; let the manifest decoder report it
  }
  metrics_.counter("requests_control").inc();
  Json reply = Json::object().set("type", Json::string(type));
  if (type == "health") {
    reply.set("status", Json::string("ok"))
        .set("in_flight", Json::number(static_cast<double>(
                              in_flight_.load(std::memory_order_relaxed))))
        .set("max_queue", Json::number(opts_.max_queue))
        .set("workers", Json::number(pool_->size()))
        .set("build", build_info_json());
  } else if (type == "pass") {
    // Remote single-pass execution: restore the posted IR snapshot, run
    // exactly the named pass, reply with the advanced snapshot.  Served
    // inline on the shard loop (one pass is far cheaper than a full job)
    // with its own LRU entry keyed on the writer-independent snapshot.
    try {
      const Json* name = doc.find("pass");
      LBIST_CHECK(name != nullptr && name->is_string(),
                  "pass request needs a \"pass\" name");
      const Json* snap = doc.find("snapshot");
      LBIST_CHECK(snap != nullptr && snap->is_object(),
                  "pass request needs a \"snapshot\" object");
      const PassPipeline& pipeline = PassPipeline::standard();
      const std::size_t index = pipeline.index_of(name->as_string());
      const std::string key = pass_cache_key(name->as_string(), *snap);
      Json out;
      if (auto cached = cache_.get(key)) {
        out = std::move(*cached);
      } else {
        SynthState state = pipeline.restore(*snap);
        LBIST_CHECK(
            state.completed == index,
            "snapshot stage \"" +
                (state.completed == 0
                     ? std::string("none")
                     : std::string(
                           pipeline.passes()[state.completed - 1]->name())) +
                "\" is not the predecessor of pass \"" + name->as_string() +
                "\"");
        state.options().trace = opts_.trace;
        state.options().events = &events_;
        pipeline.run(state, index + 1);
        out = pipeline.snapshot(state);
        cache_.put(key, out);
      }
      reply.set("status", Json::string("ok"))
          .set("pass", Json::string(name->as_string()))
          .set("snapshot", std::move(out));
    } catch (const std::exception& e) {
      reply.set("status", Json::string("error"))
          .set("error", Json::string(e.what()));
    }
  } else if (type == "hybrid") {
    // Hybrid-BIST evaluation of a posted IR snapshot: restore, run every
    // remaining pass, grade the allocated plan under the posted (or
    // default) configuration.  Cached like {"type":"pass"} — the key drops
    // the snapshot's writer record and canonicalizes the config, so
    // clients on different builds share entries.
    try {
      const Json* snap = doc.find("snapshot");
      LBIST_CHECK(snap != nullptr && snap->is_object(),
                  "hybrid request needs a \"snapshot\" object");
      const Json* cfg_json = doc.find("config");
      const HybridConfig config = cfg_json != nullptr
                                      ? hybrid_config_from_json(*cfg_json)
                                      : HybridConfig{};
      const std::string key = pass_cache_key(
          "hybrid#" + hybrid_config_to_json(config).dump_compact(), *snap);
      Json out;
      if (auto cached = cache_.get(key)) {
        out = std::move(*cached);
      } else {
        SynthState state = PassPipeline::standard().restore(*snap);
        state.options().trace = opts_.trace;
        state.options().events = &events_;
        out = evaluate_hybrid(state, config);
        cache_.put(key, out);
      }
      metrics_.counter("requests_hybrid").inc();
      reply.set("status", Json::string("ok"))
          .set("hybrid", std::move(out));
    } catch (const std::exception& e) {
      reply.set("status", Json::string("error"))
          .set("error", Json::string(e.what()));
    }
  } else if (type == "profile") {
    // Live profile capture, answered inline on the shard loop like
    // health/metrics: start arms every registered thread (shards +
    // workers), dump drains and symbolizes without stopping, stop disarms.
    metrics_.counter("requests_profile").inc();
    const Json* a = doc.find("action");
    const std::string action =
        (a != nullptr && a->is_string()) ? a->as_string() : "";
    try {
      obs::Profiler& prof = obs::Profiler::instance();
      if (action == "start") {
        obs::ProfilerOptions popts;
        if (const Json* hz = doc.find("hz");
            hz != nullptr && hz->is_number()) {
          popts.hz = static_cast<int>(hz->as_number());
        }
        prof.start(popts);
        metrics_.gauge("profiler.running").set(1.0);
        reply.set("status", Json::string("ok"))
            .set("running", Json::boolean(true))
            .set("hz", Json::number(popts.hz));
      } else if (action == "stop") {
        prof.stop();
        metrics_.gauge("profiler.running").set(0.0);
        reply.set("status", Json::string("ok"))
            .set("running", Json::boolean(false));
      } else if (action == "dump") {
        obs::ProfileReport rep = prof.collect();
        // Cap embedded stacks so one dump line stays scrape-sized; span
        // shares are always complete.
        reply.set("status", Json::string("ok"))
            .set("running", Json::boolean(prof.running()))
            .set("profile", rep.to_json(/*max_stacks=*/200));
      } else {
        reply.set("status", Json::string("error"))
            .set("error", Json::string(
                     "profile action must be start|stop|dump"));
      }
    } catch (const Error& e) {
      reply.set("status", Json::string("error"))
          .set("error", Json::string(e.what()));
    }
  } else if (type == "metrics") {
    reply.set("status", Json::string("ok")).set("metrics", metrics_json());
  } else if (type == "prometheus") {
    // Text exposition of the registry; cache statistics are mirrored into
    // gauges first so one scrape carries everything.
    const SynthesisCache::Stats cs = cache_.stats();
    metrics_.gauge("cache.hits").set(static_cast<double>(cs.hits));
    metrics_.gauge("cache.misses").set(static_cast<double>(cs.misses));
    metrics_.gauge("cache.evictions").set(static_cast<double>(cs.evictions));
    metrics_.gauge("cache.size").set(static_cast<double>(cs.size));
    metrics_.gauge("cache.capacity").set(static_cast<double>(cs.capacity));
    if (disk_ != nullptr) {
      const DiskCache::Stats ds = disk_->stats();
      metrics_.gauge("cache.persistent_hits")
          .set(static_cast<double>(cache_.persistent_hits()));
      metrics_.gauge("diskcache.hits").set(static_cast<double>(ds.hits));
      metrics_.gauge("diskcache.misses").set(static_cast<double>(ds.misses));
      metrics_.gauge("diskcache.puts").set(static_cast<double>(ds.puts));
      metrics_.gauge("diskcache.evictions")
          .set(static_cast<double>(ds.evictions));
      metrics_.gauge("diskcache.entries")
          .set(static_cast<double>(ds.entries));
      metrics_.gauge("diskcache.file_bytes")
          .set(static_cast<double>(ds.file_bytes));
      metrics_.gauge("diskcache.live_bytes")
          .set(static_cast<double>(ds.live_bytes));
      metrics_.gauge("diskcache.budget_bytes")
          .set(static_cast<double>(ds.budget_bytes));
      metrics_.gauge("diskcache.compactions")
          .set(static_cast<double>(ds.compactions));
      metrics_.gauge("diskcache.dropped")
          .set(static_cast<double>(ds.dropped));
      metrics_.gauge("diskcache.recovered")
          .set(static_cast<double>(ds.recovered));
    }
    {
      obs::Profiler& prof = obs::Profiler::instance();
      metrics_.gauge("profiler.running").set(prof.running() ? 1.0 : 0.0);
      metrics_.gauge("profiler.dropped_samples")
          .set(static_cast<double>(prof.dropped_samples()));
    }
    reply.set("status", Json::string("ok"))
        .set("body", Json::string(prometheus_exposition(metrics_)));
  } else {
    reply.set("status", Json::string("error"))
        .set("error", Json::string("unknown request type: " + type));
  }
  append_response(conn, reply);
  return true;
}

void Server::submit_job(const std::shared_ptr<Conn>& conn,
                        ManifestEntry entry, std::size_t index) {
  Shard& shard = *shards_[static_cast<std::size_t>(conn->shard)];
  metrics_.counter("requests_total").inc();
  metrics_.counter(shard.m_requests).inc();
  // Admission control: the increment reserves a slot; over the bound the
  // request is answered immediately instead of buffering without bound.
  if (in_flight_.fetch_add(1, std::memory_order_relaxed) >=
      static_cast<std::int64_t>(opts_.max_queue)) {
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    metrics_.counter("requests_rejected").inc();
    Json reject = Json::object()
                      .set("job", Json::number(index))
                      .set("name", Json::string(display_name(entry, index)))
                      .set("status", Json::string("error"))
                      .set("error", Json::string("overloaded"));
    append_response(conn.get(), reject);
    log_event(Json::object()
                  .set("event", Json::string("request"))
                  .set("conn", Json::number(conn->id))
                  .set("job", Json::number(index))
                  .set("status", Json::string("overloaded")));
    return;
  }
  metrics_.gauge("queue_depth")
      .set(static_cast<double>(in_flight_.load(std::memory_order_relaxed)));
  metrics_.gauge(shard.m_queue_depth)
      .set(static_cast<double>(
          shard.in_flight.fetch_add(1, std::memory_order_relaxed) + 1));
  conn->jobs_in_flight.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t span_id =
      next_span_id_.fetch_add(1, std::memory_order_relaxed);
  const Clock::time_point admitted = Clock::now();
  pool_->submit([this, conn, entry = std::move(entry), index, span_id,
                 admitted]() mutable {
    const double waited_ms = ms_since(admitted);
    metrics_.histogram("queue_ms").record(waited_ms);
    Json response;
    std::string status;
    if (opts_.deadline_ms > 0 &&
        waited_ms > static_cast<double>(opts_.deadline_ms)) {
      // Stale request: answer without executing so the worker moves
      // straight on to work someone is still waiting for.
      metrics_.counter("requests_deadline").inc();
      response = Json::object()
                     .set("job", Json::number(index))
                     .set("name", Json::string(display_name(entry, index)))
                     .set("status", Json::string("error"))
                     .set("error", Json::string("deadline exceeded"));
      status = "deadline";
    } else {
      if (opts_.test_hold) opts_.test_hold();
      auto span = trace_span(opts_.trace, "request");
      JobOutcome outcome =
          run_entry(entry, index, cache_, metrics_, opts_.trace, &events_);
      metrics_.counter(outcome.ok ? "requests_ok" : "requests_error").inc();
      status = outcome.ok ? "ok" : "error";
      response = std::move(outcome.line);
      if (span.active()) {
        span.arg("name", display_name(entry, index));
        span.arg("conn", static_cast<std::uint64_t>(conn->id));
        span.arg("span_id", span_id);
        span.arg("status", status);
      }
    }
    append_response(conn.get(), response);
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    Shard& home = *shards_[static_cast<std::size_t>(conn->shard)];
    metrics_.gauge(home.m_queue_depth)
        .set(static_cast<double>(
            home.in_flight.fetch_sub(1, std::memory_order_relaxed) - 1));
    const double total_ms = ms_since(admitted);
    metrics_.histogram("request_ms").record(total_ms);
    if (opts_.slow_request_ms > 0 &&
        total_ms > static_cast<double>(opts_.slow_request_ms)) {
      metrics_.counter("requests_slow").inc();
      log_event(Json::object()
                    .set("event", Json::string("slow_request"))
                    .set("conn", Json::number(conn->id))
                    .set("shard", Json::number(conn->shard))
                    .set("job", Json::number(index))
                    .set("name", Json::string(display_name(entry, index)))
                    .set("span_id", Json::number(span_id))
                    .set("threshold_ms", Json::number(opts_.slow_request_ms))
                    .set("ms", Json::number(total_ms)));
    }
    log_event(Json::object()
                  .set("event", Json::string("request"))
                  .set("conn", Json::number(conn->id))
                  .set("job", Json::number(index))
                  .set("name", Json::string(display_name(entry, index)))
                  .set("status", Json::string(status))
                  .set("span_id", Json::number(span_id))
                  .set("ms", Json::number(total_ms)));
    // Release-decrement after the append: a loop that observes zero knows
    // the response bytes are already queued.  The dirty nudge makes the
    // shard flush (and possibly retire) the connection.
    conn->jobs_in_flight.fetch_sub(1, std::memory_order_release);
    notify_dirty(conn->shard, conn->id);
  });
}

void Server::append_response(Conn* conn, const Json& line) {
  const std::string text = line.dump_compact() + "\n";
  std::lock_guard<std::mutex> lock(conn->out_mu);
  if (conn->closed) return;  // peer already gone; the response is dropped
  if (!conn->outbound.append(text)) conn->overflow = true;
}

void Server::flush_and_update(Shard& shard,
                              const std::shared_ptr<Conn>& conn) {
  // Read jobs_in_flight BEFORE flushing: observing zero (acquire, paired
  // with the worker's release-decrement) proves every response was
  // appended before this flush, so "drained and empty" below really means
  // the connection is finished.
  const bool no_jobs =
      conn->jobs_in_flight.load(std::memory_order_acquire) == 0;
  bool overflow = false;
  bool empty = true;
  std::size_t pending_before = 0;
  auto status = net::OutboundBuffer::Flush::Drained;
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    if (conn->closed) return;
    overflow = conn->overflow;
    pending_before = conn->outbound.pending();
    if (!overflow) {
      status = conn->outbound.flush(conn->sock.fd());
      empty = conn->outbound.empty();
    }
  }
  // High-water mark of pending response bytes (loop thread only): how
  // close this shard's slowest reader gets to the disconnect bound.
  if (pending_before > shard.outbound_hwm) {
    shard.outbound_hwm = pending_before;
    metrics_.gauge(shard.m_outbound_hwm)
        .set(static_cast<double>(pending_before));
  }
  if (overflow) {
    metrics_.counter("slow_reader_disconnects").inc();
    log_event(Json::object()
                  .set("event", Json::string("conn_error"))
                  .set("conn", Json::number(conn->id))
                  .set("error", Json::string(
                           "outbound buffer overflow (slow reader)")));
    close_conn(shard, conn->id);
    return;
  }
  if (status == net::OutboundBuffer::Flush::PeerGone) {
    close_conn(shard, conn->id);
    return;
  }
  if (!conn->read_open && empty && no_jobs) {
    close_conn(shard, conn->id);
    return;
  }
  const std::uint32_t want =
      (conn->read_open ? net::EventLoop::kRead : 0u) |
      (status == net::OutboundBuffer::Flush::Partial ? net::EventLoop::kWrite
                                                     : 0u);
  if (want != conn->interest) {
    shard.loop.mod(conn->sock.fd(), want, conn->id);
    conn->interest = want;
  }
}

void Server::close_conn(Shard& shard, std::uint64_t id) {
  auto it = shard.conns.find(id);
  if (it == shard.conns.end()) return;
  const std::shared_ptr<Conn> conn = it->second;
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    conn->closed = true;
  }
  shard.loop.del(conn->sock.fd());
  conn->sock.close();
  shard.conns.erase(it);
  metrics_.gauge(shard.m_conns).set(static_cast<double>(shard.conns.size()));
  log_event(Json::object()
                .set("event", Json::string("conn_close"))
                .set("conn", Json::number(conn->id)));
}

void Server::notify_dirty(int shard_index, std::uint64_t conn_id) {
  Shard& shard = *shards_[static_cast<std::size_t>(shard_index)];
  {
    std::lock_guard<std::mutex> lock(shard.dirty_mu);
    shard.dirty.push_back(conn_id);
  }
  metrics_.counter(shard.m_dirty_wakeups).inc();
  shard.loop.wakeup();
}

void Server::start_drain(Shard& shard) {
  shard.drain_handled = true;
  if (shard.listener != nullptr) {
    shard.loop.del(shard.listener->fd());
    shard.listener.reset();
  }
  // Stop reading everywhere; buffered-but-unprocessed lines are dropped.
  // Connections stay up until their admitted responses have flushed.
  std::vector<std::uint64_t> ids;
  ids.reserve(shard.conns.size());
  for (const auto& [id, conn] : shard.conns) ids.push_back(id);
  for (const std::uint64_t id : ids) {
    auto it = shard.conns.find(id);
    if (it == shard.conns.end()) continue;
    it->second->read_open = false;
    flush_and_update(shard, it->second);
  }
}

void Server::log_event(const Json& line) {
  if (opts_.log == nullptr) return;
  std::lock_guard<std::mutex> lock(log_mu_);
  *opts_.log << line.dump_compact() << "\n";
}

Json Server::metrics_json() const {
  const SynthesisCache::Stats cs = cache_.stats();
  const double lookups = static_cast<double>(cs.hits + cs.misses);
  Json out = Json::object()
      .set("registry", metrics_.to_json())
      .set("cache",
           Json::object()
               .set("hits", Json::number(cs.hits))
               .set("misses", Json::number(cs.misses))
               .set("evictions", Json::number(cs.evictions))
               .set("size", Json::number(cs.size))
               .set("capacity", Json::number(cs.capacity))
               .set("persistent_hits",
                    Json::number(cache_.persistent_hits()))
               .set("hit_rate", Json::number(lookups == 0.0
                                                 ? 0.0
                                                 : static_cast<double>(
                                                       cs.hits) /
                                                       lookups)));
  if (disk_ != nullptr) {
    const DiskCache::Stats ds = disk_->stats();
    out.set("diskcache",
            Json::object()
                .set("hits", Json::number(ds.hits))
                .set("misses", Json::number(ds.misses))
                .set("puts", Json::number(ds.puts))
                .set("evictions", Json::number(ds.evictions))
                .set("compactions", Json::number(ds.compactions))
                .set("dropped", Json::number(ds.dropped))
                .set("recovered", Json::number(ds.recovered))
                .set("entries", Json::number(ds.entries))
                .set("file_bytes", Json::number(ds.file_bytes))
                .set("live_bytes", Json::number(ds.live_bytes))
                .set("budget_bytes", Json::number(ds.budget_bytes)));
  }
  return out;
}

}  // namespace lbist
