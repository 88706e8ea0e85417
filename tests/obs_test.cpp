// Observability layer tests: TraceRecorder span semantics, export formats,
// the decision-event sink, the bounded histogram reservoir and Prometheus
// exposition — plus one end-to-end check that a real BIST-aware synthesis
// emits the paper-level events the docs promise.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "binding/cbilbo_check.hpp"
#include "core/synthesizer.hpp"
#include "dfg/benchmarks.hpp"
#include "dfg/random_dfg.hpp"
#include "obs/events.hpp"
#include "obs/profiler.hpp"
#include "obs/prom.hpp"
#include "obs/trace.hpp"
#include "service/metrics.hpp"
#include "support/json.hpp"

// Real-timer profiler tests deliver SIGPROF at high rates, which TSan's
// signal interception serializes into spurious deadlock reports; the
// logic-only paths (ring, guard, spanmark) stay covered everywhere.
#if defined(__SANITIZE_THREAD__)
#define LBIST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define LBIST_TSAN 1
#endif
#endif

// Global allocation counter: the disabled-tracing path promises zero
// allocations, which we verify by replacing operator new for the whole
// test binary and measuring the delta around the instrumented region.
namespace {
std::atomic<std::uint64_t> g_news{0};
}  // namespace

void* operator new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
// The nothrow forms too (std::stable_sort's buffer uses them): their
// memory comes back through the replaced operator delete, which frees it.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return ::operator new[](n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace lbist {
namespace {

TEST(TraceRecorder, NestedSpansExportParentFirst) {
  TraceRecorder rec;
  rec.set_enabled(true);
  {
    auto outer = trace_span(&rec, "outer");
    ASSERT_TRUE(outer.active());
    outer.arg("design", "ex1");
    {
      auto inner = trace_span(&rec, "inner");
      inner.arg("registers", std::uint64_t{3});
    }
  }
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Sorted by (start, -duration): the enclosing span comes first.
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_LE(events[0].start_ns, events[1].start_ns);
  EXPECT_GE(events[0].start_ns + events[0].dur_ns,
            events[1].start_ns + events[1].dur_ns);
}

TEST(TraceRecorder, DisabledRecorderRecordsNothing) {
  TraceRecorder rec;  // disabled by default
  {
    auto s = trace_span(&rec, "ignored");
    EXPECT_FALSE(s.active());
    s.arg("k", "v");  // must be a safe no-op
    rec.set_enabled(true);  // enabling mid-span must not resurrect it
  }
  EXPECT_EQ(rec.event_count(), 0u);
  auto s2 = trace_span(static_cast<TraceRecorder*>(nullptr), "null");
  EXPECT_FALSE(s2.active());
}

TEST(TraceRecorder, DisabledPathDoesNotAllocate) {
  TraceRecorder rec;  // disabled
  // Warm up any lazy TLS/stream state outside the measured window.
  { auto warm = trace_span(&rec, "warm"); }
  const std::uint64_t before = g_news.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    auto a = trace_span(static_cast<TraceRecorder*>(nullptr), "a");
    auto b = trace_span(&rec, "b");
    b.arg("key", "value");
    b.arg("n", std::uint64_t{42});
    b.arg_bool("flag", true);
  }
  EXPECT_EQ(g_news.load(std::memory_order_relaxed), before);
}

TEST(TraceRecorder, PerThreadBuffersMergeDeterministically) {
  TraceRecorder rec;
  rec.set_enabled(true);
  constexpr int kThreads = 4;
  constexpr int kSpans = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec, t] {
      for (int i = 0; i < kSpans; ++i) {
        auto s = trace_span(&rec, "work");
        s.arg("thread", static_cast<std::uint64_t>(t));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(rec.event_count(),
            static_cast<std::size_t>(kThreads * kSpans));

  const auto a = rec.snapshot();
  const auto b = rec.snapshot();  // same events -> identical order
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].tid, b[i].tid);
    EXPECT_EQ(a[i].start_ns, b[i].start_ns);
    EXPECT_EQ(a[i].args_json, b[i].args_json);
  }
  // Thread ordinals are recorder-assigned and dense.
  for (const auto& e : a) EXPECT_LT(e.tid, kThreads + 1u);
}

TEST(TraceRecorder, ChromeExportIsValidTraceEventJson) {
  TraceRecorder rec;
  rec.set_enabled(true);
  {
    auto s = trace_span(&rec, "binding");
    s.arg("binder", "bist");
    s.arg("registers", std::uint64_t{3});
  }
  { auto s = trace_span(&rec, "bist"); }
  std::ostringstream os;
  rec.write_chrome(os);

  const Json doc = Json::parse(os.str());
  ASSERT_TRUE(doc.is_object());
  const Json& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_EQ(events.size(), 2u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Json& e = events.at(i);
    EXPECT_EQ(e.at("ph").as_string(), "X");
    EXPECT_TRUE(e.at("name").is_string());
    EXPECT_TRUE(e.at("ts").is_number());
    EXPECT_TRUE(e.at("dur").is_number());
    EXPECT_TRUE(e.at("pid").is_number());
    EXPECT_TRUE(e.at("tid").is_number());
  }
  // The span args made it through as a JSON object.
  EXPECT_EQ(events.at(0).at("args").at("binder").as_string(), "bist");
  EXPECT_EQ(events.at(0).at("args").at("registers").as_number(), 3.0);
}

TEST(TraceRecorder, JsonlExportIsOneObjectPerLine) {
  TraceRecorder rec;
  rec.set_enabled(true);
  { auto s = trace_span(&rec, "a"); }
  { auto s = trace_span(&rec, "b"); }
  std::ostringstream os;
  rec.write_jsonl(os);
  std::istringstream in(os.str());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const Json obj = Json::parse(line);
    EXPECT_TRUE(obj.is_object());
    EXPECT_TRUE(obj.at("name").is_string());
    ++lines;
  }
  EXPECT_EQ(lines, 2u);

  rec.clear();
  EXPECT_EQ(rec.event_count(), 0u);
}

TEST(AlgorithmEvents, CountersMirrorWithoutRetainingEvents) {
  MetricsRegistry metrics;
  AlgorithmEvents sink(&metrics, /*keep_events=*/false);
  EXPECT_FALSE(sink.recording());

  sink.pves_rank("x", 1, 2, 0);
  sink.assign("x", 0, 1, true, {});
  sink.case_override(1, "x", 0, 1);
  sink.case_override(2, "y", 1, 0);
  sink.cbilbo_checked("x", 0, false);
  sink.cbilbo_avoided("x", 0, 1);
  sink.cbilbo_forced(0, 1, 2);
  sink.mux_input("M1", 0, 'L', false);
  sink.mux_input("M1", 1, 'L', true);
  sink.port_flip("M1");
  sink.bist_role(0, "TPG");
  sink.bist_role(1, "CBILBO");
  sink.bist_greedy_fallback();
  sink.bist_embeddings_scanned(7);
  sink.bist_embeddings_scanned(5);

  EXPECT_TRUE(sink.snapshot().empty());  // counters-only mode
  EXPECT_EQ(sink.count("case_override"), 2u);
  EXPECT_EQ(sink.count("mux_input"), 1u);
  EXPECT_EQ(sink.count("mux_merge"), 1u);

  const Json dump = metrics.to_json();
  const Json& counters = dump.at("counters");
  EXPECT_EQ(counters.at("binding.case1_overrides").as_number(), 1.0);
  EXPECT_EQ(counters.at("binding.case2_overrides").as_number(), 1.0);
  EXPECT_EQ(counters.at("cbilbo.forced").as_number(), 1.0);
  EXPECT_EQ(counters.at("cbilbo.avoided").as_number(), 1.0);
  EXPECT_EQ(counters.at("interconnect.mux_merges").as_number(), 1.0);
  EXPECT_EQ(counters.at("interconnect.port_flips").as_number(), 1.0);
  EXPECT_EQ(counters.at("bist.roles_tpg").as_number(), 1.0);
  EXPECT_EQ(counters.at("bist.roles_cbilbo").as_number(), 1.0);
  EXPECT_EQ(counters.at("bist.greedy_fallbacks").as_number(), 1.0);
  EXPECT_EQ(counters.at("bist.embeddings_scanned").as_number(), 12.0);
}

TEST(AlgorithmEvents, KeepEventsRetainsTypedDetail) {
  AlgorithmEvents sink(nullptr, /*keep_events=*/true);
  sink.assign("v3", 2, 1, false, {{0, 3}, {2, 1}});
  sink.cbilbo_forced(1, 0, 2);
  const auto events = sink.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, "assign");
  EXPECT_EQ(events[0].detail.at("var").as_string(), "v3");
  EXPECT_EQ(events[0].detail.at("candidates").size(), 2u);
  EXPECT_EQ(events[1].kind, "cbilbo_forced");
  EXPECT_EQ(events[1].detail.at("lemma_case").as_number(), 2.0);

  std::ostringstream os;
  sink.write_jsonl(os);
  std::istringstream in(os.str());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    EXPECT_TRUE(Json::parse(line).is_object());
    ++lines;
  }
  EXPECT_EQ(lines, 2u);
}

TEST(Histogram, ReservoirBoundsMemoryButKeepsExactAggregates) {
  Histogram h;  // default 4096-sample reservoir
  constexpr int kSamples = 20000;
  for (int i = 1; i <= kSamples; ++i) h.record(static_cast<double>(i));

  EXPECT_EQ(h.reservoir_size(), Histogram::kDefaultReservoir);
  const auto s = h.summarize();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kSamples));
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, static_cast<double>(kSamples));
  EXPECT_DOUBLE_EQ(s.mean, (kSamples + 1) / 2.0);
  // Percentiles are estimates over a uniform sample: loose sanity bands.
  EXPECT_GT(s.p50, 0.35 * kSamples);
  EXPECT_LT(s.p50, 0.65 * kSamples);
  EXPECT_GT(s.p99, s.p95);
  EXPECT_GE(s.p95, s.p50);
}

TEST(Histogram, DeterministicAcrossRuns) {
  Histogram a;
  Histogram b;
  for (int i = 0; i < 10000; ++i) {
    const double v = static_cast<double>((i * 37) % 1001);
    a.record(v);
    b.record(v);
  }
  const auto sa = a.summarize();
  const auto sb = b.summarize();
  EXPECT_EQ(sa.p50, sb.p50);
  EXPECT_EQ(sa.p95, sb.p95);
  EXPECT_EQ(sa.p99, sb.p99);
}

TEST(Histogram, ExactPercentilesBelowCapacity) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i));
  const auto s = h.summarize();
  EXPECT_EQ(s.count, 100u);
  EXPECT_NEAR(s.p50, 50.5, 0.01);
  EXPECT_NEAR(s.p95, 95.05, 0.01);
  EXPECT_NEAR(s.p99, 99.01, 0.01);
}

TEST(MetricsRegistry, DumpHasSnapshotTimestamp) {
  MetricsRegistry reg;
  reg.counter("jobs_ok").inc();
  const Json dump = reg.to_json();
  ASSERT_TRUE(dump.is_object());
  EXPECT_GT(dump.at("snapshot_unix_ms").as_number(), 0.0);
  EXPECT_EQ(dump.at("counters").at("jobs_ok").as_number(), 1.0);
}

TEST(Prometheus, MetricNamesAreSanitized) {
  EXPECT_EQ(prom_metric_name("binding.case1_overrides"),
            "binding_case1_overrides");
  EXPECT_EQ(prom_metric_name("job ms/synth"), "job_ms_synth");
}

TEST(Prometheus, LabelValuesEscapeQuoteBackslashNewline) {
  EXPECT_EQ(prom_escape_label_value("plain"), "plain");
  EXPECT_EQ(prom_escape_label_value("a\"b"), "a\\\"b");
  EXPECT_EQ(prom_escape_label_value("a\\b"), "a\\\\b");
  EXPECT_EQ(prom_escape_label_value("a\nb"), "a\\nb");
}

TEST(Prometheus, ExpositionRendersEscapedLabelsOnEverySeries) {
  MetricsRegistry reg;
  reg.counter("cbilbo.forced").inc(3);
  reg.gauge("queue_depth").set(2.0);
  reg.histogram("job_ms").record(1.5);
  const std::string text = prometheus_exposition(
      reg, "lowbist", {{"instance", "node\"1\n"}});

  EXPECT_NE(text.find("# TYPE lowbist_cbilbo_forced counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE lowbist_queue_depth gauge"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE lowbist_job_ms summary"), std::string::npos);
  // The escaped label value is attached to series of every instrument
  // type, with quote and newline escaped exactly once.
  const std::string label = "instance=\"node\\\"1\\n\"";
  EXPECT_NE(text.find("lowbist_cbilbo_forced{" + label + "} 3"),
            std::string::npos);
  EXPECT_NE(text.find("lowbist_queue_depth{" + label + "}"),
            std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.5\""), std::string::npos);
  EXPECT_NE(text.find("lowbist_job_ms_count{" + label + "} 1"),
            std::string::npos);
  // No raw newline may survive inside any line's label section.
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    EXPECT_EQ(line.find("node\"1"), std::string::npos) << line;
  }
}

TEST(Prometheus, RoundTripsThroughRegistryJsonDump) {
  MetricsRegistry reg;
  reg.counter("jobs_ok").inc(7);
  const std::string live = prometheus_exposition(reg);
  const std::string offline = prometheus_exposition(reg.to_json());
  EXPECT_EQ(live, offline);
}

// End-to-end: a real BIST-aware synthesis run must surface the paper's
// decision points — and its cbilbo_forced events must agree with an
// independent Lemma-2 evaluation of the final binding (the same
// cross-check the fuzzer's events oracle applies).
TEST(ObsIntegration, Ex1SynthesisEmitsPaperDecisions) {
  auto bench = make_ex1();
  const auto protos = parse_module_spec(bench.module_spec);

  TraceRecorder rec;
  rec.set_enabled(true);
  MetricsRegistry metrics;
  AlgorithmEvents events(&metrics, /*keep_events=*/true);

  SynthesisOptions opts;
  opts.binder = BinderKind::BistAware;
  opts.trace = &rec;
  opts.events = &events;
  const SynthesisResult result = Synthesizer(opts).run(
      bench.design.dfg, *bench.design.schedule, protos);

  // Pipeline phases all appear as spans.
  std::vector<std::string> names;
  for (const auto& e : rec.snapshot()) names.push_back(e.name);
  for (const char* phase :
       {"sched", "conflict_graph", "binding", "interconnect", "bist"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), phase), names.end())
        << "missing span: " << phase;
  }

  // The paper's decision events fired.
  EXPECT_GT(events.count("pves_rank"), 0u);
  EXPECT_GT(events.count("assign"), 0u);
  EXPECT_GE(events.count("case_override"), 1u);
  EXPECT_GT(events.count("cbilbo_checked"), 0u);
  EXPECT_GT(events.count("bist_role"), 0u);

  // cbilbo_forced must match an independent Lemma-2 evaluation.
  const auto lemma =
      forced_cbilbos(bench.design.dfg, result.modules, result.registers);
  EXPECT_EQ(events.count("cbilbo_forced"), lemma.size());

  // And the counter mirror saw the same totals.
  const Json dump = metrics.to_json();
  EXPECT_EQ(dump.at("counters").at("binding.assignments").as_number(),
            static_cast<double>(events.count("assign")));
  // The exact allocator's greedy incumbent published its scan.
  EXPECT_GT(dump.at("counters").at("bist.embeddings_scanned").as_number(),
            0.0);
}

// --- sampling profiler -----------------------------------------------------

TEST(SpanMark, MarkingPathDoesNotAllocate) {
  spanmark::set_enabled(true);
  {  // warm any lazy TLS state outside the measured window
    auto warm = trace_span(static_cast<TraceRecorder*>(nullptr), "warm");
  }
  const std::uint64_t before = g_news.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    auto outer = trace_span(static_cast<TraceRecorder*>(nullptr), "outer");
    auto inner = trace_span(static_cast<TraceRecorder*>(nullptr), "inner");
    inner.arg("k", "v");  // args are dropped on mark-only spans
  }
  spanmark::set_enabled(false);
  EXPECT_EQ(g_news.load(std::memory_order_relaxed), before);
}

TEST(SpanMark, SnapshotKeepsInnermostEntriesOnDeepStacks) {
  spanmark::set_enabled(true);
  // 36 pushes overflow kMaxDepth (32): the excess names are not stored,
  // but depth still tracks so the pops below unwind cleanly.
  for (int i = 0; i < 36; ++i) spanmark::push(i % 2 == 0 ? "even" : "odd");
  EXPECT_EQ(spanmark::depth(), 36);
  const char* got[8];
  const int n = spanmark::snapshot(got, 8);
  ASSERT_EQ(n, 8);
  for (int i = 0; i < n; ++i) {
    // Entries 24..31 of the stored stack, outermost first.
    EXPECT_STREQ(got[i], (24 + i) % 2 == 0 ? "even" : "odd");
  }
  for (int i = 0; i < 36; ++i) spanmark::pop();
  EXPECT_EQ(spanmark::depth(), 0);
  spanmark::push("solo");
  EXPECT_EQ(spanmark::snapshot(got, 8), 1);
  EXPECT_STREQ(got[0], "solo");
  spanmark::pop();
  spanmark::set_enabled(false);
}

TEST(SampleRing, OverflowCountsDropsInsteadOfBlocking) {
  obs::SampleRing ring(8);
  ASSERT_EQ(ring.capacity(), 8u);
  for (std::size_t i = 0; i < ring.capacity(); ++i) {
    obs::RawSample* slot = ring.begin_push();
    ASSERT_NE(slot, nullptr);
    slot->num_frames = 0;
    slot->num_spans = 1;
    slot->spans[0] = "filler";
    ring.commit_push();
  }
  for (int i = 0; i < 3; ++i) EXPECT_EQ(ring.begin_push(), nullptr);
  EXPECT_EQ(ring.dropped(), 3u);

  obs::RawSample out;
  std::size_t drained = 0;
  while (ring.pop(&out)) ++drained;
  EXPECT_EQ(drained, ring.capacity());  // drops lost samples, kept the rest
  EXPECT_EQ(ring.dropped(), 3u);        // accounting survives the drain

  // Space reclaimed by the reader is writable again.
  EXPECT_NE(ring.begin_push(), nullptr);
}

TEST(Profiler, HandlerReentrancyGuardCountsNestedDeliveries) {
  ASSERT_TRUE(obs::Profiler::test_enter_guard());
  const std::uint64_t before = obs::Profiler::handler_reentries();
  // A SIGPROF landing while the handler runs must bounce off, counted.
  EXPECT_FALSE(obs::Profiler::test_enter_guard());
  EXPECT_FALSE(obs::Profiler::test_enter_guard());
  EXPECT_EQ(obs::Profiler::handler_reentries(), before + 2);
  obs::Profiler::test_leave_guard();
  ASSERT_TRUE(obs::Profiler::test_enter_guard());
  obs::Profiler::test_leave_guard();
}

TEST(Profiler, SyntheticSampleCapturesSpanStack) {
  obs::Profiler& prof = obs::Profiler::instance();
  spanmark::set_enabled(true);
  {
    auto outer = trace_span(static_cast<TraceRecorder*>(nullptr), "outer");
    auto inner = trace_span(static_cast<TraceRecorder*>(nullptr), "inner");
    prof.sample_now_for_testing();
  }
  spanmark::set_enabled(false);
  const obs::ProfileReport rep = prof.collect();
  ASSERT_GE(rep.samples, 1u);

  auto self_of = [&](const char* name) -> std::uint64_t {
    for (const auto& s : rep.spans) {
      if (s.name == name) return s.self_samples;
    }
    return 0;
  };
  auto total_of = [&](const char* name) -> std::uint64_t {
    for (const auto& s : rep.spans) {
      if (s.name == name) return s.total_samples;
    }
    return 0;
  };
  EXPECT_GE(self_of("inner"), 1u);   // innermost gets the self sample
  EXPECT_EQ(self_of("outer"), 0u);   // enclosing span does not
  EXPECT_GE(total_of("outer"), 1u);  // but it is on the sample's stack

  // The folded export roots the stack at the innermost span.
  std::ostringstream os;
  rep.write_folded(os);
  EXPECT_NE(os.str().find("inner;"), std::string::npos);
}

TEST(Profiler, CollectIsCumulativeAcrossDumps) {
  // A mid-run dump (the server's {"action":"dump"}) must not steal samples
  // from a later export: collect() reports everything since start().
  obs::Profiler& prof = obs::Profiler::instance();
  const std::uint64_t base = prof.collect().samples;
  for (int i = 0; i < 3; ++i) prof.sample_now_for_testing();
  EXPECT_EQ(prof.collect().samples, base + 3);
  for (int i = 0; i < 2; ++i) prof.sample_now_for_testing();
  EXPECT_EQ(prof.collect().samples, base + 5);  // dump #1 stole nothing
}

#if !defined(LBIST_TSAN)
TEST(Profiler, TimerSamplesAttributeToPipelineSpans) {
  // Same workload shape as bench_scaling's CI tier, small enough for a
  // test: the BIST-aware binder and the interconnect builder both burn
  // visible CPU, so at 997 Hz both spans must collect self samples.
  RandomDfgOptions o;
  o.seed = 424242;
  o.ops_per_step = 8;
  o.num_steps = 250;
  o.num_inputs = 12;
  o.reuse_probability = 0.9;
  o.chain_probability = 0.3;
  const RandomDfg rd = make_random_dfg(o);
  const auto protos = minimal_module_spec(rd.dfg, rd.schedule);
  SynthesisOptions so;
  so.binder = BinderKind::BistAware;
  so.lifetime.hold_outputs_to_end = false;

  obs::Profiler& prof = obs::Profiler::instance();
  obs::Profiler::attach_current_thread();
  obs::ProfilerOptions po;
  po.hz = 997;
  prof.start(po);

  std::uint64_t binding_self = 0;
  std::uint64_t interconnect_self = 0;
  std::uint64_t total = 0;
  std::string folded;
  // Samples are statistical; keep synthesizing (bounded) until both spans
  // have been hit rather than flaking on one unlucky scheduling run.
  for (int attempt = 0; attempt < 10; ++attempt) {
    const SynthesisResult res =
        Synthesizer(so).run(rd.dfg, rd.schedule, protos);
    ASSERT_GT(res.num_registers(), 0);
    const obs::ProfileReport rep = prof.collect();
    total += rep.samples;
    for (const auto& s : rep.spans) {
      if (s.name == "binding") binding_self += s.self_samples;
      if (s.name == "interconnect") interconnect_self += s.self_samples;
    }
    std::ostringstream os;
    rep.write_folded(os);
    folded += os.str();
    if (binding_self > 0 && interconnect_self > 0) break;
  }
  prof.stop();

  EXPECT_GT(total, 0u);
  EXPECT_GT(binding_self, 0u) << "no samples attributed to the binder";
  EXPECT_GT(interconnect_self, 0u)
      << "no samples attributed to the interconnect pass";

  // Every folded line is "frames count" with a positive count.
  std::istringstream lines(folded);
  std::string line;
  std::size_t checked = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    EXPECT_FALSE(line.substr(0, sp).empty());
    EXPECT_GT(std::stoull(line.substr(sp + 1)), 0u);
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST(Profiler, BackgroundDrainerOutrunsATinyRing) {
  // With a 4-slot ring, a multi-second run can only keep more than 4
  // samples if the background drainer folds the ring while sampling is
  // still live — this is what keeps hour-long captures representative
  // instead of freezing the first few seconds of the run.
  obs::Profiler& prof = obs::Profiler::instance();
  obs::Profiler::attach_current_thread();
  obs::ProfilerOptions po;
  po.hz = 997;
  po.ring_slots = 4;
  prof.start(po);
  std::uint64_t sink = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(1200);
  while (std::chrono::steady_clock::now() < deadline) {
    for (std::uint64_t i = 0; i < 1000; ++i) sink += i * i;
  }
  // Defeats optimizing the spin away without a deprecated volatile store.
  asm volatile("" : : "r"(sink) : "memory");
  prof.stop();
  const obs::ProfileReport rep = prof.collect();
  EXPECT_GT(rep.samples, 4u);
}
#endif  // !LBIST_TSAN

// --- labeled metric families ----------------------------------------------

TEST(Prometheus, LabeledMetricEncodesAndSanitizes) {
  EXPECT_EQ(labeled_metric("shard.conns", {{"shard", "0"}}),
            "shard.conns|shard=0");
  EXPECT_EQ(labeled_metric("m", {{"a", "1"}, {"b", "2"}}), "m|a=1|b=2");
  EXPECT_EQ(labeled_metric("m", {}), "m");
  // The encoding's delimiters cannot be smuggled through keys or values.
  EXPECT_EQ(labeled_metric("m", {{"a|b", "c=d"}}), "m|a_b=c_d");
}

TEST(Prometheus, LabeledSeriesGroupIntoOneFamily) {
  MetricsRegistry reg;
  reg.counter(labeled_metric("shard.requests", {{"shard", "0"}})).inc();
  reg.counter(labeled_metric("shard.requests", {{"shard", "1"}})).inc(2);
  reg.gauge(labeled_metric("shard.conns", {{"shard", "1"}})).set(3);
  const std::string text = prometheus_exposition(reg);

  // Exactly one TYPE header for the family, one series per shard.
  const std::string header = "# TYPE lowbist_shard_requests counter";
  const std::size_t first = text.find(header);
  ASSERT_NE(first, std::string::npos) << text;
  EXPECT_EQ(text.find(header, first + 1), std::string::npos);
  EXPECT_NE(text.find("lowbist_shard_requests{shard=\"0\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("lowbist_shard_requests{shard=\"1\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("lowbist_shard_conns{shard=\"1\"} 3"),
            std::string::npos);
}

TEST(Prometheus, LabeledHistogramsShareSummaryHeader) {
  MetricsRegistry reg;
  reg.histogram(labeled_metric("shard.loop_iter_ms", {{"shard", "0"}}))
      .record(1.0);
  reg.histogram(labeled_metric("shard.loop_iter_ms", {{"shard", "1"}}))
      .record(2.0);
  const std::string text = prometheus_exposition(reg);

  const std::string header = "# TYPE lowbist_shard_loop_iter_ms summary";
  const std::size_t first = text.find(header);
  ASSERT_NE(first, std::string::npos) << text;
  EXPECT_EQ(text.find(header, first + 1), std::string::npos);
  EXPECT_NE(
      text.find("lowbist_shard_loop_iter_ms{shard=\"0\",quantile=\"0.5\"} 1"),
      std::string::npos);
  EXPECT_NE(
      text.find("lowbist_shard_loop_iter_ms{shard=\"1\",quantile=\"0.5\"} 2"),
      std::string::npos);
  EXPECT_NE(text.find("lowbist_shard_loop_iter_ms_count{shard=\"0\"} 1"),
            std::string::npos);
}

TEST(Prometheus, EmbeddedLabelValuesAreEscaped) {
  MetricsRegistry reg;
  reg.counter(labeled_metric("c", {{"k", "a\"b\\c\nd"}})).inc();
  const std::string text = prometheus_exposition(reg);
  EXPECT_NE(text.find("lowbist_c{k=\"a\\\"b\\\\c\\nd\"} 1"),
            std::string::npos)
      << text;
}

}  // namespace
}  // namespace lbist
