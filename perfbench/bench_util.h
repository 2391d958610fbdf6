// Shared pieces of the perfbench driver: wall clock, sample statistics,
// the seeded input generator, bench-side spans, and the result report.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Linear-interpolated quantile of an unsorted sample (q in [0, 1]).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// A percentile is reported only when at least ten samples lie beyond it.
inline bool tail_supported(std::size_t n, double q) {
  return static_cast<double>(n) * (1.0 - q) >= 10.0;
}

// Run `fn` `iters` times per round for `rounds` rounds; return the median
// per-call time in microseconds.
template <typename Fn>
double median_call_us(int rounds, int iters, Fn&& fn) {
  std::vector<double> per_call;
  for (int r = 0; r < rounds; ++r) {
    const double t0 = now_s();
    for (int i = 0; i < iters; ++i) fn();
    per_call.push_back((now_s() - t0) * 1e6 / iters);
  }
  return median(per_call);
}

// splitmix64: the seeded generator behind every workload input.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t s_;
};

inline std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  return Rng(a * 0x100000001B3ull ^ b).next();
}

// Deterministic byte pattern keyed by `key` (n a multiple of 8).
inline void fill_pattern(std::uint8_t* p, std::size_t n, std::uint64_t key) {
  std::uint64_t x = key | 1;
  for (std::size_t i = 0; i + 8 <= n; i += 8) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::memcpy(p + i, &x, 8);
  }
}

// Peak resident set of this process (VmHWM), MiB.
inline double rss_peak_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ---- bench-side spans -------------------------------------------------------
// Recorded around calls into the program's public entry points, kept in
// memory, and written out when the run ends (traced runs only).
struct SpanRecord {
  std::string name;
  std::uint64_t trace = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  double start = 0.0;
  double end = 0.0;
};

class SpanLog {
 public:
  static constexpr std::size_t kCap = 200000;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  std::uint64_t add(std::string name, std::uint64_t trace, std::uint64_t parent,
                    double start, double end) {
    std::lock_guard lk(mu_);
    const std::uint64_t id = ++next_id_;
    if (spans_.size() < kCap) {
      spans_.push_back({std::move(name), trace, id, parent, start, end});
    } else {
      ++dropped_;
    }
    return id;
  }

  std::uint64_t new_trace() {
    std::lock_guard lk(mu_);
    return ++next_trace_;
  }

  // JSON Lines: one span per line.
  bool write(const std::string& path) const {
    std::lock_guard lk(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    for (const auto& s : spans_) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"trace\":%llu,\"span\":%llu,"
                   "\"parent\":%llu,\"start\":%.9f,\"end\":%.9f}\n",
                   s.name.c_str(), static_cast<unsigned long long>(s.trace),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), s.start, s.end);
    }
    std::fclose(f);
    return true;
  }

  std::size_t size() const {
    std::lock_guard lk(mu_);
    return spans_.size();
  }
  std::size_t dropped() const {
    std::lock_guard lk(mu_);
    return dropped_;
  }

 private:
  mutable std::mutex mu_;
  std::atomic<bool> enabled_{false};
  std::vector<SpanRecord> spans_;
  std::uint64_t next_id_ = 0;
  std::uint64_t next_trace_ = 0;
  std::size_t dropped_ = 0;
};

SpanLog& spans();

// RAII span; a no-op unless the span log is enabled.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, std::uint64_t trace)
      : name_(name), trace_(trace), start_(spans().enabled() ? now_s() : 0.0) {}
  ~ScopedSpan() {
    if (spans().enabled()) spans().add(name_, trace_, 0, start_, now_s());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  std::uint64_t trace_;
  double start_;
};

// ---- results ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

// Everything one run measured.  `e2e` and `layer` are the metrics the
// final JSON line carries (untraced and traced runs respectively);
// `detail` holds the workload's own named figures, printed and archived
// but not part of the cross-workload metric set.
struct Results {
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  std::vector<Metric> detail;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // first few verification failures

  void fail(const std::string& why) {
    ++failed;
    if (errors.size() < 8) errors.push_back(why);
  }
  const Metric* find(const std::string& name) const {
    for (const auto* list : {&e2e, &layer, &detail}) {
      for (const auto& m : *list) {
        if (m.name == name) return &m;
      }
    }
    return nullptr;
  }
};

}  // namespace perfbench
