// In-memory span recorder of the traced run.  Spans are recorded from
// the benchmark's own code, around the calls into each layer, and kept
// in memory; write() emits them once at exit as a Chrome trace
// (chrome://tracing or Perfetto).  Single-threaded: only the driver's
// main thread records.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace bench {

class Tracer {
 public:
  /// (key, value) pairs shown in the span's args, written as strings.
  using Args = std::vector<std::pair<std::string, std::string>>;

  class Span {
   public:
    Span() = default;
    Span(Tracer* t, std::size_t index) : tracer_(t), index_(index) {}
    Span(Span&& o) noexcept : tracer_(o.tracer_), index_(o.index_) {
      o.tracer_ = nullptr;
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    Span& operator=(Span&&) = delete;
    ~Span() { end(); }

    /// Add an arg once the value is known (e.g. a verdict).
    void arg(const std::string& key, std::string value);
    void end();

   private:
    Tracer* tracer_ = nullptr;
    std::size_t index_ = 0;
  };

  /// Recording starts disabled; a disabled tracer hands out inert spans.
  void setEnabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  Span span(std::string name, std::string category, Args args = {});

  std::size_t spanCount() const { return events_.size(); }

  /// Write every recorded span as one Chrome trace JSON document.
  bool write(const std::string& path, std::string* err) const;

 private:
  struct Event {
    std::string name;
    std::string category;
    std::int64_t beginNs = 0;
    std::int64_t durNs = -1;  ///< -1 while open
    Args args;
  };

  std::int64_t nowNs() const;

  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::vector<Event> events_;
  bool enabled_ = false;
};

}  // namespace bench
