#include "service/batch.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <ostream>
#include <sstream>

#include "core/synthesizer.hpp"
#include "dfg/benchmarks.hpp"
#include "dfg/parse.hpp"
#include "obs/events.hpp"
#include "obs/trace.hpp"
#include "passes/synth_state.hpp"
#include "sched/list_sched.hpp"
#include "service/thread_pool.hpp"

namespace lbist {

namespace {

/// Loads the job's design; fills `spec_hint` with the benchmark's pinned
/// module spec when the job names a built-in.
ParsedDfg load_job_design(const BatchJob& job, std::string* spec_hint) {
  if (!job.bench.empty()) {
    std::optional<Benchmark> b = find_benchmark(job.bench);
    if (!b.has_value()) {
      throw Error("unknown built-in benchmark: " + job.bench);
    }
    *spec_hint = b->module_spec;
    return std::move(b->design);
  }
  if (!job.design_path.empty()) {
    std::ifstream in(job.design_path);
    if (!in) throw Error("cannot open file: " + job.design_path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return parse_dfg(buf.str());
  }
  return parse_dfg(job.design_text);
}

std::string hex64(std::uint64_t h) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// Synthesizes one job (through the cache) and returns the deterministic
/// result object.  Throws on any failure.  `*cache_hit` reports whether the
/// cache served the request (a hit runs no synthesis, so no phase spans or
/// decision events are produced for it).
Json synthesize_job(const BatchJob& job, SynthesisCache& cache,
                    MetricsRegistry& metrics, TraceRecorder* trace,
                    AlgorithmEvents* events, bool* cache_hit) {
  std::string spec_hint;
  ParsedDfg design = load_job_design(job, &spec_hint);
  const Schedule sched = design.schedule.has_value()
                             ? *design.schedule
                             : list_schedule(design.dfg, ResourceLimits{});
  const std::string spec = !job.modules.empty() ? job.modules : spec_hint;
  const auto protos = spec.empty() ? minimal_module_spec(design.dfg, sched)
                                   : parse_module_spec(spec);

  SynthesisOptions opts;
  const std::optional<BinderKind> binder = binder_from_short_name(job.binder);
  if (!binder.has_value()) throw Error("unknown binder: " + job.binder);
  opts.binder = *binder;
  opts.area.bit_width = job.width;
  opts.trace = trace;
  opts.events = events;

  const std::string key =
      synthesis_cache_key(design.dfg, sched, protos, opts, job.patterns);
  if (auto cached = cache.get(key)) {
    if (cache_hit != nullptr) *cache_hit = true;
    return *cached;
  }
  if (cache_hit != nullptr) *cache_hit = false;

  const auto t0 = std::chrono::steady_clock::now();
  SynthesisResult r = Synthesizer(opts).run(design.dfg, sched, protos);
  const double ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  metrics.histogram("synth_ms").record(ms);

  std::string spec_label;
  for (const ModuleProto& p : protos) {
    if (!spec_label.empty()) spec_label += ',';
    spec_label += p.label();
  }
  Json result = Json::object()
                    .set("binder", Json::string(job.binder))
                    .set("modules", Json::string(spec_label))
                    .set("latency", Json::number(sched.num_steps()))
                    .set("registers", Json::number(r.num_registers()))
                    .set("muxes", Json::number(r.num_mux()))
                    .set("functional_area", Json::number(r.functional_area))
                    .set("bist_extra", Json::number(r.bist.extra_area))
                    .set("overhead_percent", Json::number(r.overhead_percent))
                    .set("bist", Json::string(r.bist.counts().to_string()))
                    .set("width", Json::number(job.width))
                    .set("patterns", Json::number(job.patterns))
                    .set("key", Json::string(hex64(fnv1a64(key))));
  cache.put(key, result);
  return result;
}

}  // namespace

std::string display_name(const ManifestEntry& entry, std::size_t index) {
  if (!entry.job.name.empty()) return entry.job.name;
  if (!entry.job.bench.empty()) return entry.job.bench;
  if (!entry.job.design_path.empty()) return entry.job.design_path;
  return "job" + std::to_string(index);
}

ManifestEntry decode_manifest_line(int line_no, const std::string& line) {
  ManifestEntry entry;
  entry.line = line_no;
  Json doc;
  try {
    doc = Json::parse(line);
    if (!doc.is_object()) throw Error("manifest line is not a JSON object");
    for (const std::string& k : doc.keys()) {
      const Json& v = doc.at(k);
      if (k == "name") {
        entry.job.name = v.as_string();
      } else if (k == "design") {
        entry.job.design_path = v.as_string();
      } else if (k == "bench") {
        entry.job.bench = v.as_string();
      } else if (k == "text") {
        entry.job.design_text = v.as_string();
      } else if (k == "modules") {
        entry.job.modules = v.as_string();
      } else if (k == "binder") {
        entry.job.binder = v.as_string();
      } else if (k == "width") {
        entry.job.width = v.as_int();
      } else if (k == "patterns") {
        entry.job.patterns = v.as_int();
      } else {
        throw Error("unknown manifest field \"" + k + "\"");
      }
    }
    const int sources = (entry.job.design_path.empty() ? 0 : 1) +
                        (entry.job.bench.empty() ? 0 : 1) +
                        (entry.job.design_text.empty() ? 0 : 1);
    if (sources != 1) {
      throw Error(
          "job needs exactly one design source (\"design\", \"bench\" or "
          "\"text\")");
    }
    if (entry.job.width < 1) throw Error("\"width\" must be >= 1");
    if (entry.job.patterns < 1) throw Error("\"patterns\" must be >= 1");
  } catch (const std::exception& e) {
    entry.error = "manifest line " + std::to_string(line_no) + ": " + e.what();
  }
  return entry;
}

JobOutcome run_entry(const ManifestEntry& entry, std::size_t index,
                     SynthesisCache& cache, MetricsRegistry& metrics,
                     TraceRecorder* trace, AlgorithmEvents* events) {
  const auto t0 = std::chrono::steady_clock::now();
  auto span = trace_span(trace, "job");
  JobOutcome outcome;
  outcome.line = Json::object()
                     .set("job", Json::number(index))
                     .set("name", Json::string(display_name(entry, index)));
  outcome.ok = true;
  bool cache_hit = false;
  if (!entry.ok()) {
    outcome.line.set("status", Json::string("error"))
        .set("error", Json::string(entry.error));
    outcome.ok = false;
  } else {
    try {
      Json result =
          synthesize_job(entry.job, cache, metrics, trace, events, &cache_hit);
      outcome.line.set("status", Json::string("ok"))
          .set("result", std::move(result));
    } catch (const std::exception& e) {
      outcome.line.set("status", Json::string("error"))
          .set("error", Json::string(e.what()));
      outcome.ok = false;
    }
  }
  if (span.active()) {
    span.arg("name", display_name(entry, index));
    span.arg("job", static_cast<std::uint64_t>(index));
    span.arg_bool("cache_hit", cache_hit);
    span.arg_bool("ok", outcome.ok);
  }
  metrics.histogram("job_ms").record(
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count());
  metrics.counter(outcome.ok ? "jobs_ok" : "jobs_error").inc();
  return outcome;
}

std::vector<ManifestEntry> parse_manifest(std::string_view text) {
  std::vector<ManifestEntry> entries;
  int line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const std::string line(
        text.substr(pos, nl == std::string_view::npos ? nl : nl - pos));
    ++line_no;
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    entries.push_back(decode_manifest_line(line_no, line));
  }
  return entries;
}

BatchSummary run_batch(const std::vector<ManifestEntry>& entries,
                       const BatchOptions& opts, std::ostream& out) {
  MetricsRegistry local_metrics;
  MetricsRegistry& metrics =
      opts.metrics != nullptr ? *opts.metrics : local_metrics;
  SynthesisCache local_cache(opts.cache_capacity);
  SynthesisCache& cache = opts.cache != nullptr ? *opts.cache : local_cache;
  const SynthesisCache::Stats base = cache.stats();

  ThreadPool pool(ThreadPool::resolve_jobs(opts.jobs));
  std::mutex out_mutex;
  std::vector<std::future<bool>> futures;
  futures.reserve(entries.size());

  for (std::size_t i = 0; i < entries.size(); ++i) {
    const ManifestEntry& entry = entries[i];
    futures.push_back(pool.submit([&, i]() -> bool {
      metrics.gauge("queue_depth")
          .set(static_cast<double>(pool.queue_depth()));
      JobOutcome outcome =
          run_entry(entry, i, cache, metrics, opts.trace, opts.events);
      {
        std::lock_guard<std::mutex> lock(out_mutex);
        out << outcome.line.dump_compact() << "\n";
      }
      return outcome.ok;
    }));
  }

  BatchSummary summary;
  summary.total = static_cast<int>(entries.size());
  for (auto& f : futures) {
    if (f.get()) {
      ++summary.ok;
    } else {
      ++summary.errors;
    }
  }

  const SynthesisCache::Stats cs = cache.stats();
  summary.cache_hits = cs.hits - base.hits;
  summary.cache_misses = cs.misses - base.misses;
  metrics.counter("cache_hits").inc(summary.cache_hits);
  metrics.counter("cache_misses").inc(summary.cache_misses);
  metrics.gauge("cache_size").set(static_cast<double>(cs.size));
  return summary;
}

}  // namespace lbist
