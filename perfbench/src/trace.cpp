#include "trace.hpp"

#include <fstream>

namespace perfbench {

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr) {
    return;
  }
  index_ = static_cast<int>(tracer_->spans_.size());
  const int parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  const std::int64_t start = tracer_->now_ns();
  tracer_->spans_.push_back({name, start, start, parent, tracer_->run_});
  tracer_->open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) {
    return;
  }
  tracer_->spans_[static_cast<std::size_t>(index_)].end_ns =
      tracer_->now_ns();
  tracer_->open_.pop_back();
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::vector<std::int64_t> Tracer::self_ns() const {
  // Spans of one thread nest, so a child lies inside its parent and
  // siblings do not overlap: self time is the duration minus the
  // children's durations.
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -=
          spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  return self;
}

double Tracer::self_seconds(const std::string& name, int run) const {
  const std::vector<std::int64_t> self = self_ns();
  std::int64_t total = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name && (run < 0 || spans_[i].run == run)) {
      total += self[i];
    }
  }
  return static_cast<double>(total) * 1e-9;
}

long Tracer::count(const std::string& name) const {
  long n = 0;
  for (const Span& span : spans_) {
    n += name == span.name ? 1 : 0;
  }
  return n;
}

std::vector<double> Tracer::self_samples(const std::string& name) const {
  const std::vector<std::int64_t> self = self_ns();
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) {
      out.push_back(static_cast<double>(self[i]) * 1e-9);
    }
  }
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  const std::vector<std::int64_t> self = self_ns();
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":"
        << s.start_ns - origin << ",\"end_ns\":" << s.end_ns - origin
        << ",\"parent\":" << s.parent << ",\"run\":" << s.run
        << ",\"self_ns\":" << self[i] << "}\n";
  }
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace perfbench
