// Wall-clock span recorder for the traced run.
//
// Spans wrap the benchmark's own calls into each layer's public functions.
// Each span records its name, layer, start, end, parent span and a
// per-tick / per-submit id. Self time is the span's duration minus the part
// its child spans cover. Finished spans are kept in memory (up to a cap) and
// exported as Chrome trace_event JSON, which Perfetto and chrome://tracing
// open; the per-name reduction keeps counting past the cap.
//
// Single-threaded: only the benchmark's driver thread opens spans.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace servicebench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct SpanTotals {
  std::string layer;
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t capacity) : capacity_(capacity) {}

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// RAII span; a no-op when the recorder is disabled.
  class Scope {
   public:
    Scope(SpanRecorder& r, const char* name, const char* layer, std::uint64_t id)
        : r_(r.enabled_ ? &r : nullptr) {
      if (r_) r_->open(name, layer, id);
    }
    ~Scope() {
      if (r_) r_->close();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* r_;
  };

  const std::map<std::string, SpanTotals>& totals() const { return totals_; }
  std::size_t stored() const { return spans_.size(); }
  std::uint64_t dropped() const { return dropped_; }

  void export_chrome_json(std::ostream& os) const;

 private:
  struct Span {
    const char* name;
    const char* layer;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::int64_t parent;  // index into spans_, -1 for a root (or dropped)
    std::uint64_t id;
  };
  struct Frame {
    const char* name;
    const char* layer;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
    std::uint64_t id;
    std::int64_t index;  // reserved slot in spans_, -1 past the cap
  };

  void open(const char* name, const char* layer, std::uint64_t id);
  void close();

  std::size_t capacity_;
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<Frame> stack_;
  std::map<std::string, SpanTotals> totals_;
  std::uint64_t dropped_ = 0;
};

}  // namespace servicebench
