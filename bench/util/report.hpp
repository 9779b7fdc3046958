// Bench reports: one JSON writer, one common header, one write-to-path and
// one gate collector for every binary that emits a BENCH_*.json.
//
// A bench's claims live in the binary that measures them: each claim is a
// Gates::gate() call, a broken claim prints "FATAL: ..." at once, and main()
// still writes its report before returning Gates::exit_code(), so a failing
// run leaves the numbers behind for inspection.
#pragma once

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/trial_farm.hpp"

namespace sensornet::bench {

/// Streaming JSON writer. Block containers put one entry per line at
/// two-space indentation; line containers stay on one line (table rows).
/// Strings escape '"', '\\' and control characters (as \u00XX), doubles
/// are written at an explicit number of decimals, and non-finite doubles
/// become null.
class Json {
 public:
  enum Layout { kBlock, kLine };

  explicit Json(std::ostream& os) : os_(os) {}

  Json& object(Layout layout = kBlock) { return open('{', '}', layout); }
  Json& array(Layout layout = kBlock) { return open('[', ']', layout); }

  /// Closes the innermost open object or array.
  Json& end() {
    const Frame f = stack_.back();
    stack_.pop_back();
    if (f.items > 0 && f.layout == kBlock) newline();
    os_ << f.close;
    return *this;
  }

  Json& key(std::string_view k) {
    value(k);
    os_ << ": ";
    after_key_ = true;
    return *this;
  }

  Json& value(std::string_view s) {
    separate();
    os_ << '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        os_ << '\\' << c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
        os_ << buf;
      } else {
        os_ << c;
      }
    }
    os_ << '"';
    return *this;
  }
  Json& value(const char* s) { return value(std::string_view(s)); }

  Json& value(bool b) { return raw(b ? "true" : "false"); }

  template <std::integral T>
    requires(!std::same_as<T, bool>)
  Json& value(T v) {
    return raw(std::to_string(v));
  }

  Json& value(double v, int decimals) {
    if (!std::isfinite(v)) return raw("null");
    char buf[512];
    std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
    return raw(buf);
  }
  /// Doubles need their decimals spelled out.
  Json& value(double v) = delete;

  /// Embeds already-formatted JSON as one value, verbatim.
  Json& raw(std::string_view json) {
    separate();
    os_ << json;
    return *this;
  }

  /// key + value in one call: field("k", v) or field("k", x, decimals).
  template <class... V>
  Json& field(std::string_view k, const V&... v) {
    return key(k).value(v...);
  }

  /// Open containers; a raw multi-line value indents by 2 * depth().
  std::size_t depth() const { return stack_.size(); }

 private:
  struct Frame {
    Layout layout;
    char close;
    std::size_t items;
  };

  Json& open(char open, char close, Layout layout) {
    separate();
    os_ << open;
    stack_.push_back({layout, close, 0});
    return *this;
  }

  /// Emits what goes before a value or key: nothing after a key, else a
  /// comma after the first entry plus a newline (block) or space (line).
  void separate() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (stack_.empty()) return;
    Frame& f = stack_.back();
    if (f.items++ > 0) os_ << ',';
    if (f.layout == kBlock) {
      newline();
    } else if (f.items > 1) {
      os_ << ' ';
    }
  }

  void newline() { os_ << '\n' << std::string(2 * stack_.size(), ' '); }

  std::ostream& os_;
  std::vector<Frame> stack_;
  bool after_key_ = false;
};

/// num / den, or 0 when den is 0 (ratio fields of a report).
inline double ratio_of(std::uint64_t num, std::uint64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

/// Lower-case hex, the form every report gives its checksums in.
inline std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%llx", static_cast<unsigned long long>(v));
  return buf;
}

/// The fields every BENCH_*.json opens with.
inline void write_header(Json& j, std::string_view bench, bool quick,
                         unsigned threads) {
  j.field("bench", bench)
      .field("schema_version", 1)
      .field("quick", quick)
      .field("threads", threads)
      .field("hardware_threads", resolve_thread_count(0));
}

/// Writes one report object to `path` (`body` fills in its fields) and
/// prints "wrote PATH". A path that cannot be opened or written ends the
/// process with exit status 1.
template <class Body>
void write_report(const std::string& path, Body&& body) {
  std::ofstream out(path);
  if (out) {
    Json j(out);
    j.object();
    body(j);
    j.end();
    out << '\n';
    out.flush();
  }
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    std::exit(1);
  }
  std::cout << "wrote " << path << "\n";
}

/// Collects a binary's claims. gate(ok, msg...) prints "FATAL: msg" when
/// the claim is broken; main() returns exit_code() once its report is
/// written.
class Gates {
 public:
  explicit Gates(std::ostream& err = std::cerr) : err_(err) {}

  template <class... Msg>
  bool gate(bool ok, const Msg&... msg) {
    if (!ok) {
      ++failed_;
      err_ << "FATAL: ";
      (err_ << ... << msg) << "\n";
    }
    return ok;
  }

  int exit_code() const { return failed_ == 0 ? 0 : 1; }

 private:
  std::ostream& err_;
  std::size_t failed_ = 0;
};

/// Answer-stream checksums of one scenario replayed at several worker
/// counts: the determinism lanes require at least two rows, all equal.
struct Determinism {
  std::vector<std::pair<unsigned, std::uint64_t>> rows;  // (threads, sum)

  /// Records one row and prints it as "  threads=T checksum=HEX".
  void add(unsigned threads, std::uint64_t sum) {
    rows.emplace_back(threads, sum);
    std::cout << "  threads=" << threads << " checksum=" << hex(sum) << "\n";
  }

  bool agree() const {
    return std::ranges::all_of(
        rows, [&](const auto& row) { return row.second == rows[0].second; });
  }

  void gate(Gates& gates) const {
    gates.gate(rows.size() >= 2, "need >= 2 worker counts, got ",
               rows.size());
    for (const auto& [threads, sum] : rows) {
      gates.gate(sum == rows.front().second,
                 "answer-stream checksum diverged at ", threads, " workers");
    }
  }

  /// "determinism": [{"threads": T, "checksum": "hex"}, ...]
  void write(Json& j) const {
    j.key("determinism").array();
    for (const auto& [threads, sum] : rows) {
      j.object(Json::kLine)
          .field("threads", threads)
          .field("checksum", hex(sum))
          .end();
    }
    j.end();
  }
};

}  // namespace sensornet::bench
