#include "spans.hpp"

#include <ostream>

namespace servicebench {

void SpanRecorder::open(const char* name, const char* layer, std::uint64_t id) {
  std::int64_t index = -1;
  if (spans_.size() < capacity_) {
    index = static_cast<std::int64_t>(spans_.size());
    const std::int64_t parent = stack_.empty() ? -1 : stack_.back().index;
    spans_.push_back(Span{name, layer, 0, 0, parent, id});
  } else {
    ++dropped_;
  }
  stack_.push_back(Frame{name, layer, now_ns(), 0, id, index});
}

void SpanRecorder::close() {
  const std::uint64_t end = now_ns();
  const Frame f = stack_.back();
  stack_.pop_back();
  const std::uint64_t dur = end - f.start_ns;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (f.index >= 0) {
    spans_[static_cast<std::size_t>(f.index)].start_ns = f.start_ns;
    spans_[static_cast<std::size_t>(f.index)].end_ns = end;
  }
  SpanTotals& t = totals_[f.name];
  t.layer = f.layer;
  ++t.calls;
  t.total_ns += dur;
  t.self_ns += dur > f.child_ns ? dur - f.child_ns : 0;
}

void SpanRecorder::export_chrome_json(std::ostream& os) const {
  const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ts = static_cast<double>(s.start_ns - t0) / 1000.0;
    const double dur = static_cast<double>(s.end_ns - s.start_ns) / 1000.0;
    os << "{\"name\":\"" << s.name << "\",\"cat\":\"" << s.layer
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << ts
       << ",\"dur\":" << dur << ",\"args\":{\"id\":" << s.id
       << ",\"span\":" << i << ",\"parent\":" << s.parent << "}}"
       << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "],\"otherData\":{\"dropped_spans\":" << dropped_ << "}}\n";
}

}  // namespace servicebench
