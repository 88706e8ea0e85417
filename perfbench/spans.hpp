#pragma once
// In-memory span log for the traced benchmark run.
//
// The driver opens a span around each call it makes into a library layer
// (a pipeline pass, the PEO, the BIST allocator, a grading engine, ...).
// A span records its name, start, end, parent span and a group id shared
// by every span of one design or request.  Spans stay in memory until the
// run ends; `self_seconds` then attributes each span's duration minus the
// time its children cover.  A disabled log records nothing, so the
// untraced run calls the same functions without any bookkeeping.

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  struct Span {
    std::string name;
    double start = 0.0;  ///< seconds since the log was created
    double end = 0.0;
    int parent = -1;  ///< index into spans(), -1 for a root span
    std::uint64_t group = 0;
  };

  /// RAII scope: opens a span on construction, closes it on destruction.
  class Scope {
   public:
    Scope(SpanLog* log, std::string name, std::uint64_t group) : log_(log) {
      if (log_ != nullptr) index_ = log_->open(std::move(name), group);
    }
    ~Scope() {
      if (log_ != nullptr) log_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    int index_ = -1;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Opens a span named `name` in `group`; no-op when disabled.
  [[nodiscard]] Scope scope(std::string name, std::uint64_t group = 0) {
    return Scope(enabled_ ? this : nullptr, std::move(name), group);
  }

  /// Duration of span `i` in seconds.
  [[nodiscard]] double duration(std::size_t i) const {
    return spans_[i].end - spans_[i].start;
  }

  /// Self time per span name, summed over every span of that name.
  [[nodiscard]] std::map<std::string, double> self_seconds() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = duration(i);
    // Children of one parent run one after another on one thread, so the
    // time they cover is the sum of their durations.
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
      }
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name] += self[i];
    }
    return out;
  }

  /// Writes one JSON object per span (name, start, end, parent, group).
  void write_jsonl(const std::string& path) const {
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"start\":" << s.start << ",\"end\":" << s.end
          << ",\"parent\":" << s.parent << ",\"group\":" << s.group
          << "}\n";
    }
  }

 private:
  using Clock = std::chrono::steady_clock;

  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  int open(std::string name, std::uint64_t group) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{std::move(name), now(), 0.0, parent, group});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }

  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end = now();
    stack_.pop_back();
  }

  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

}  // namespace perfbench
