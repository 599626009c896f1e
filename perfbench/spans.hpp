#pragma once

/// \file spans.hpp
/// In-memory span recorder for the benchmark's traced run. Each span is a
/// (name, start, end, parent) record taken with steady_clock around one
/// call into a library layer, from outside the library. Spans stay in
/// memory and are written out once, when the run ends.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// Host steady-clock seconds (arbitrary epoch).
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;  // index of the enclosing span, -1 at top level
  double seconds() const { return end - start; }
};

class SpanRecorder {
 public:
  int open(const char* name) {
    spans_.push_back({name, now_s(), 0.0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end = now_s();
    stack_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Durations of the spans called `name` whose parent is `parent` (any
  /// parent when `parent` is -2), in recording order.
  std::vector<double> durations(const std::string& name,
                                int parent = -2) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name && (parent == -2 || s.parent == parent)) {
        out.push_back(s.seconds());
      }
    }
    return out;
  }
  double total(const std::string& name, int parent = -2) const {
    double sum = 0.0;
    for (const double d : durations(name, parent)) sum += d;
    return sum;
  }
  /// Indices of the spans called `name`.
  std::vector<int> find(const std::string& name) const {
    std::vector<int> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name == name) out.push_back(static_cast<int>(i));
    }
    return out;
  }
  /// Sum of the durations of the direct children of span `id`.
  double child_seconds(int id) const {
    double sum = 0.0;
    for (const Span& s : spans_) {
      if (s.parent == id) sum += s.seconds();
    }
    return sum;
  }

  /// Writes every span as one JSON array (times relative to the first span).
  bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
    std::fputs("[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                   "\"end_s\": %.9f, \"parent\": %d}%s\n",
                   i, s.name.c_str(), s.start - t0, s.end - t0, s.parent,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fputs("]\n", f);
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Scoped span; a null recorder records nothing, so every rank can run the
/// same code while only rank 0 keeps spans.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name)
      : rec_(rec), id_(rec != nullptr ? rec->open(name) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int id_;
};

}  // namespace perfbench
