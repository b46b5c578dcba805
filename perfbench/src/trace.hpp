// In-memory span recorder for the benchmark's traced run.
//
// A span is one call into a layer of the library, recorded from the
// benchmark's side of the call: name, start, end, the span that was open
// when it began (its parent), and the run it belongs to. Spans stay in
// memory while the benchmark measures and are written out once, at the
// end. A layer's self time is its span durations minus the parts covered
// by child spans; per-layer metrics are sums of self time by span name.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name;  ///< static string: the layer's metric prefix
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;  ///< index into spans(), -1 for a root span
    int run;     ///< run id (setup repetition, flow pass, replay)
  };

  /// RAII guard: opens a span on construction, closes it on destruction.
  /// A null tracer records nothing, so untraced code paths share the
  /// traced ones.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  /// Spans opened from now on carry this run id.
  void set_run(int run) { run_ = run; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Sum over spans named `name` of their self time, in seconds;
  /// `run` >= 0 restricts the sum to that run.
  double self_seconds(const std::string& name, int run = -1) const;

  /// Number of spans named `name`.
  long count(const std::string& name) const;

  /// Self seconds of every span named `name`, in recording order.
  std::vector<double> self_samples(const std::string& name) const;

  /// Writes one JSON object per span (name, start_ns, end_ns, parent,
  /// run, self_ns), times relative to the first span. Returns false when
  /// the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  std::int64_t now_ns() const;
  std::vector<std::int64_t> self_ns() const;

  std::vector<Span> spans_;
  std::vector<int> open_;  ///< stack of open span indices
  int run_ = 0;
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
};

}  // namespace perfbench
