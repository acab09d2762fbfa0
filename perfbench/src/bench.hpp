// Shared pieces of the benchmark driver: clocks, seeded mixing, sample
// statistics, the in-memory span recorder and the per-workload result.
//
// Every span is recorded from the benchmark's own code, around a call
// into one layer's public functions; the library itself is untouched.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

enum class Workload { kGrid, kServe, kServeDurable, kAnalysis };

[[nodiscard]] const char* to_string(Workload w);

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
[[nodiscard]] inline double now_s() { return 1e-9 * static_cast<double>(now_ns()); }

/// splitmix64 finalizer over (a, b): derives every per-session and
/// per-step seed from the workload seed.
[[nodiscard]] std::uint64_t mix(std::uint64_t a, std::uint64_t b);

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample;
/// 0 for an empty one.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Completions per second of a timed phase, from each completion's
/// offset (s) into it: the median count over its whole one-second
/// windows, or the plain rate when it is shorter than two seconds. A
/// burst of interference from outside the process moves it less.
[[nodiscard]] double throughput(const std::vector<double>& done_s, double elapsed);

/// Quantile q of latencies `values` (completed at offsets `done_s`). When
/// every whole one-second window holds at least 1000 completions (so a
/// p99 has ten samples beyond it), the median over windows of each
/// window's quantile; otherwise the quantile of all samples.
[[nodiscard]] double windowed_quantile(const std::vector<double>& values,
                                       const std::vector<double>& done_s,
                                       double q, double elapsed);

/// Machine-wide CPU time counters from /proc/stat (USER_HZ ticks):
/// all time, and the share a hypervisor stole for other guests.
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
[[nodiscard]] CpuTicks cpu_ticks();

/// Peak resident set (VmHWM) of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// One timed interval at a layer boundary. Spans of one session (or one
/// pipeline step) share `trace`; `parent` is the span that caused it
/// (0 for a root).
struct Span {
  const char* name = "";
  std::uint64_t trace = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  [[nodiscard]] double us() const { return 1e-3 * static_cast<double>(end_ns - start_ns); }
};

/// Keeps spans in memory until the run ends. Disabled tracers record
/// nothing and hand out id 0, so untraced runs pay one branch per call.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] std::uint64_t next_id() {
    return enabled_ ? ids_.fetch_add(1, std::memory_order_relaxed) + 1 : 0;
  }
  void record(const Span& span) {
    if (!enabled_) return;
    std::lock_guard lock(mutex_);
    spans_.push_back(span);
  }
  /// Records [start_ns, now) under a fresh id.
  void close(const char* name, std::uint64_t trace, std::uint64_t parent,
             std::int64_t start_ns) {
    if (enabled_) record({name, trace, next_id(), parent, start_ns, now_ns()});
  }
  [[nodiscard]] std::vector<Span> spans() const {
    std::lock_guard lock(mutex_);
    return spans_;
  }

 private:
  const bool enabled_;
  std::atomic<std::uint64_t> ids_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Durations (µs) of every span named `name`.
[[nodiscard]] std::vector<double> durations_us(const std::vector<Span>& spans,
                                               const std::string& name);

/// Operation counts, shared by a workload's threads.
struct Tally {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};
  /// Counts one failed operation and keeps the first few messages.
  void fail(const std::string& what);
  [[nodiscard]] std::vector<std::string> messages() const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::string> messages_;
};

struct RunOptions {
  std::uint64_t seed = 1;
  /// Length of the timed phase; it also stops at `max_units` rounds,
  /// sessions or iterations when that is nonzero.
  double seconds = 10.0;
  std::size_t max_units = 0;
  /// How many times set-up runs (the last instance is the one timed).
  std::size_t setups = 1;
  bool traced = false;
  /// Tiny sizes: every metric still prints, nothing is representative.
  bool smoke = false;
  /// Scratch directory for journals and archives (inside the checkout).
  std::string workdir;
};

/// What one workload run produced. `e2e` holds the end-to-end metrics
/// this workload measures itself; `layers` the per-layer metrics of a
/// traced run; `spans` the traced run's span log.
struct WorkloadResult {
  Metrics e2e;
  Metrics layers;
  std::vector<Span> spans;
  /// Root span name whose median the trace report reconciles against,
  /// and the end-to-end metric that median corresponds to.
  std::string root_span;
  std::string root_metric;
  /// Sessions behind session_p50_ms / session_p99_ms.
  std::size_t latency_samples = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
};

[[nodiscard]] WorkloadResult run_grid(const RunOptions& options);
[[nodiscard]] WorkloadResult run_serve(const RunOptions& options, bool durable);
[[nodiscard]] WorkloadResult run_analysis(const RunOptions& options);

/// Runs `setup` `count` times, keeping the last instance; returns the
/// median set-up time in seconds through `seconds_out`.
template <typename Setup>
auto timed_setups(std::size_t count, Setup&& setup, double& seconds_out) {
  std::vector<double> times;
  decltype(setup()) state;
  for (std::size_t i = 0; i < (count == 0 ? 1 : count); ++i) {
    state = {};  // tear the previous instance down outside the timing
    const double t0 = now_s();
    state = setup();
    times.push_back(now_s() - t0);
  }
  seconds_out = median(times);
  return state;
}

}  // namespace perfbench
