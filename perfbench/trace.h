// Benchmark-side tracing: spans recorded around the harness's calls into
// each library layer, plus helpers that turn `obs` registry snapshots into
// per-section deltas and exclusive (self) times.
//
// Spans live in memory and are written once, when the run ends.  A span's
// self time is its duration minus the durations of its direct children
// (children of one span never overlap: every span opens and closes on the
// harness's main thread).
#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct SpanRecord {
  std::string name;          // "<layer>.<call>", e.g. "inject.run_campaigns"
  std::int64_t start_ns = 0;  // relative to the tracer's creation
  std::int64_t end_ns = 0;
  int parent = -1;            // index into the span list, -1 = root
  std::uint32_t run_id = 0;   // closed-loop round the span belongs to
};

struct SelfTime {
  std::uint64_t calls = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }
  void set_run(std::uint32_t run_id) noexcept { run_id_ = run_id; }

  // Returns the span index, or -1 when tracing is off.
  int open(const std::string& name);
  void close(int index);

  // Per span name: call count, inclusive and exclusive time.
  [[nodiscard]] std::map<std::string, SelfTime> self_times() const;
  // One JSON document holding every span; false on an I/O error.
  bool write_json(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point t0_;
  std::uint32_t run_id_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

// RAII span; a no-op when the tracer is off.
class Scope {
 public:
  Scope(Tracer& tracer, const std::string& name)
      : tracer_(tracer), index_(tracer.open(name)) {}
  ~Scope() { tracer_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

// The difference of one histogram between two registry snapshots.
struct HistDelta {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;  // in the histogram's unit (ns for timings)
  clear::obs::HistogramRow row;  // bucket deltas, for quantiles

  [[nodiscard]] double mean() const noexcept {
    return count ? static_cast<double>(sum) / static_cast<double>(count) : 0;
  }
  // Quantile q in [0, 1], interpolated linearly inside the log2 bucket that
  // holds it (a bucket's lower bound alone would read the same power of two
  // on every run); 0 when empty.
  [[nodiscard]] double quantile(double q) const noexcept;
};

[[nodiscard]] HistDelta hist_delta(const clear::obs::Snapshot& before,
                                   const clear::obs::Snapshot& after,
                                   const std::string& name);
[[nodiscard]] std::uint64_t counter_delta(const clear::obs::Snapshot& before,
                                          const clear::obs::Snapshot& after,
                                          const std::string& name);

// Exclusive time of a histogram-timed region that encloses another one
// (e.g. campaign.sample.classify encloses campaign.fork.replay): outer
// minus inner, clamped at zero, in the histograms' unit.
[[nodiscard]] std::uint64_t exclusive_sum(const HistDelta& outer,
                                          const HistDelta& inner) noexcept;

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H
