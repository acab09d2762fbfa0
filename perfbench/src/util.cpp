#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.hpp"

namespace perfbench {

const char* to_string(Workload w) {
  switch (w) {
    case Workload::kGrid: return "grid";
    case Workload::kServe: return "serve";
    case Workload::kServeDurable: return "serve-durable";
    case Workload::kAnalysis: return "analysis";
  }
  return "unknown";
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9E3779B97F4A7C15ULL + b + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double throughput(const std::vector<double>& done_s, double elapsed) {
  const auto windows = static_cast<std::size_t>(elapsed);
  if (windows < 2) return static_cast<double>(done_s.size()) / elapsed;
  std::vector<double> counts(windows, 0.0);
  for (const double t : done_s) {
    const auto w = static_cast<std::size_t>(t);
    if (t >= 0.0 && w < windows) counts[w] += 1.0;
  }
  return median(counts);
}

double windowed_quantile(const std::vector<double>& values,
                         const std::vector<double>& done_s, double q,
                         double elapsed) {
  const auto windows = static_cast<std::size_t>(elapsed);
  std::vector<std::vector<double>> by_window(windows);
  for (std::size_t i = 0; i < values.size() && i < done_s.size(); ++i) {
    const auto w = static_cast<std::size_t>(done_s[i]);
    if (done_s[i] >= 0.0 && w < windows) by_window[w].push_back(values[i]);
  }
  bool dense = windows >= 2;
  for (const auto& w : by_window) dense = dense && w.size() >= 1000;
  if (!dense) return quantile(values, q);
  std::vector<double> per_window;
  for (auto& w : by_window) per_window.push_back(quantile(std::move(w), q));
  return median(per_window);
}

CpuTicks cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  CpuTicks out;
  // user nice system idle iowait irq softirq steal ...
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(stat >> v)) break;
    out.total += v;
    if (field == 7) out.steal = v;
  }
  return out;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

std::vector<double> durations_us(const std::vector<Span>& spans,
                                 const std::string& name) {
  std::vector<double> out;
  for (const auto& s : spans) {
    if (name == s.name) out.push_back(s.us());
  }
  return out;
}

void Tally::fail(const std::string& what) {
  failed.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard lock(mutex_);
  if (messages_.size() < 8) messages_.push_back(what);
}

std::vector<std::string> Tally::messages() const {
  std::lock_guard lock(mutex_);
  return messages_;
}

}  // namespace perfbench
