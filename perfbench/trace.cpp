#include "trace.h"

#include <cstdio>

namespace perfbench {

int Tracer::open(const std::string& name) {
  if (!enabled_) return -1;
  SpanRecord s;
  s.name = name;
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - t0_)
                   .count();
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.run_id = run_id_;
  spans_.push_back(std::move(s));
  stack_.push_back(static_cast<int>(spans_.size() - 1));
  return stack_.back();
}

void Tracer::close(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0_)
          .count();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

std::map<std::string, SelfTime> Tracer::self_times() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, SelfTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::int64_t dur = spans_[i].end_ns - spans_[i].start_ns;
    SelfTime& t = out[spans_[i].name];
    ++t.calls;
    t.total_s += static_cast<double>(dur) * 1e-9;
    t.self_s += static_cast<double>(dur - child_ns[i]) * 1e-9;
  }
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"spans\": [\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %d, \"run\": %u}%s\n",
                 i, s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, s.run_id,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

HistDelta hist_delta(const clear::obs::Snapshot& before, const clear::obs::Snapshot& after,
                     const std::string& name) {
  HistDelta d;
  const clear::obs::HistogramRow* a = before.find_histogram(name);
  const clear::obs::HistogramRow* b = after.find_histogram(name);
  if (b == nullptr) return d;
  d.row = *b;
  if (a != nullptr) {
    for (std::size_t i = 0; i < clear::obs::kHistBuckets; ++i) {
      d.row.buckets[i] -= a->buckets[i];
    }
    d.row.count -= a->count;
    d.row.sum -= a->sum;
  }
  d.count = d.row.count;
  d.sum = d.row.sum;
  return d;
}

double HistDelta::quantile(double q) const noexcept {
  if (count == 0) return 0.0;
  const double target = q * static_cast<double>(count);
  double seen = 0;
  for (std::size_t i = 0; i < clear::obs::kHistBuckets; ++i) {
    const double n = static_cast<double>(row.buckets[i]);
    if (n > 0 && seen + n >= target) {
      const double lo = static_cast<double>(clear::obs::Histogram::bucket_lo(i));
      const double hi = i == 0 ? 1.0 : 2.0 * lo;
      return lo + (hi - lo) * (target - seen) / n;
    }
    seen += n;
  }
  return static_cast<double>(
      clear::obs::Histogram::bucket_lo(clear::obs::kHistBuckets - 1));
}

std::uint64_t counter_delta(const clear::obs::Snapshot& before,
                            const clear::obs::Snapshot& after,
                            const std::string& name) {
  return after.counter_value(name) - before.counter_value(name);
}

std::uint64_t exclusive_sum(const HistDelta& outer,
                            const HistDelta& inner) noexcept {
  return outer.sum > inner.sum ? outer.sum - inner.sum : 0;
}

}  // namespace perfbench
