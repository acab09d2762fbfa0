// batbench: runs one benchmark workload and prints its metrics.
//
//   batbench --workload grid|serve|serve-durable|analysis --seed N
//            --seconds S --trace 0|1 --workdir DIR [--out-dir DIR] [--smoke]
//
// --trace 0 prints every end-to-end metric, --trace 1 every per-layer
// metric, as the last stdout line:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// Lines before it are for people: result tags, and for traced runs the
// per-layer table (with the end-to-end metric and workload each layer
// should move), each layer's self time, the share of the end-to-end
// median the measured layers cover, and the tracing overhead.
//
// Every workload reports every end-to-end metric. One the workload does
// not measure itself (analysis_s on grid, sessions_per_s on analysis...)
// comes from a short run of the workload that does, in a child process
// (--part) after the main run; likewise for per-layer metrics in traced
// runs. perfbench/README.md lists which.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench.hpp"
#include "common/json.hpp"
#include "common/log.hpp"

extern char** environ;

namespace perfbench {
namespace {

using W = Workload;

struct E2eSpec {
  const char* name;
  const char* unit;
  Workload home;  // measures it when the running workload does not
};
const std::vector<E2eSpec> kEndToEnd{
    {"setup_s", "s", W::kGrid},
    {"sessions_per_s", "1/s", W::kGrid},
    {"session_p50_ms", "ms", W::kGrid},
    {"session_p99_ms", "ms", W::kGrid},
    {"analysis_s", "s", W::kAnalysis},
    {"peak_rss_mb", "MB", W::kGrid},
    {"optimum_fraction", "ratio", W::kGrid},
    {"r2_min", "r2", W::kAnalysis},
};

struct LayerSpec {
  std::string name;
  const char* unit;
  const char* moves;          // the end-to-end metric it should move
  std::vector<Workload> on;   // ...on these workloads
};
std::vector<LayerSpec> layer_specs() {
  std::vector<LayerSpec> specs{
      {"net.submit_rtt_us", "us", "session_p50_ms", {W::kServe}},
      {"net.poll_rtt_us", "us", "sessions_per_s", {W::kServe}},
      {"net.wire_us", "us", "session_p50_ms", {W::kServe}},
      {"api.handle_submit_us", "us", "session_p50_ms", {W::kServe, W::kServeDurable}},
      {"api.handle_done_us", "us", "sessions_per_s", {W::kServe}},
      {"api.polls_per_session", "count", "sessions_per_s", {W::kServe}},
      {"common.json_parse_us", "us", "sessions_per_s", {W::kServe}},
      {"service.submit_us", "us", "session_p50_ms", {W::kServe}},
      {"service.queue_wait_ms", "ms", "session_p99_ms", {W::kServe}},
      {"service.exec_ms", "ms", "sessions_per_s", {W::kGrid}},
      {"service.result_to_json_us", "us", "sessions_per_s", {W::kServe}},
      {"service.cache_hit_ratio", "ratio", "sessions_per_s", {W::kGrid}},
      {"service.cache_waited", "count", "sessions_per_s", {W::kGrid}},
      {"service.registry_sessions", "count", "peak_rss_mb", {W::kServe}},
      {"service.log_record_submit_us", "us", "session_p50_ms", {W::kServeDurable}},
      {"service.log_record_result_us", "us", "session_p99_ms", {W::kServeDurable}},
      {"service.log_checkpoint_ms", "ms", "session_p99_ms", {W::kServeDurable}},
      {"io.journal_commits_per_session", "count", "sessions_per_s", {W::kServeDurable}},
      {"io.journal_checkpoints_per_session", "count", "sessions_per_s", {W::kServeDurable}},
      {"io.journal_bytes_per_session", "count", "sessions_per_s", {W::kServeDurable}},
      {"io.replay_ns", "ns", "sessions_per_s", {W::kGrid}},
      {"io.dataset_open_us", "us", "setup_s", {W::kGrid}},
      {"core.sweep_ms", "ms", "setup_s", {W::kGrid, W::kAnalysis}},
      {"core.neighbors_ns", "ns", "sessions_per_s", {W::kGrid}},
      {"gpusim.eval_ns", "ns", "sessions_per_s", {W::kGrid}},
  };
  for (const char* tuner : {"random", "local", "annealing", "genetic", "ils",
                            "pso", "de", "surrogate"}) {
    specs.push_back({std::string("tuners.") + tuner + ".ns_per_eval", "ns",
                     "sessions_per_s", {W::kGrid}});
  }
  specs.push_back({"ml.fit_small_ms", "ms", "sessions_per_s", {W::kGrid}});
  specs.push_back({"ml.fit_large_ms", "ms", "analysis_s", {W::kAnalysis}});
  specs.push_back({"ml.predict_ns", "ns", "analysis_s", {W::kAnalysis}});
  specs.push_back({"ml.pfi_ms", "ms", "analysis_s", {W::kAnalysis}});
  specs.push_back({"analysis.ffg_ms", "ms", "analysis_s", {W::kAnalysis}});
  specs.push_back({"analysis.pagerank_ms", "ms", "analysis_s", {W::kAnalysis}});
  return specs;
}

struct Args {
  Workload workload = W::kGrid;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  /// Child mode: run only the short run of --workload and print its own
  /// metrics (see run_part).
  bool part = false;
  std::string workdir;
  std::string out_dir;
};

Workload parse_workload(const std::string& name) {
  for (const auto w : {W::kGrid, W::kServe, W::kServeDurable, W::kAnalysis}) {
    if (name == to_string(w)) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke" || flag == "--part") {
      (flag == "--smoke" ? args.smoke : args.part) = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = parse_workload(value);
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (args.workdir.empty()) throw std::invalid_argument("--workdir is required");
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

WorkloadResult run(Workload w, const RunOptions& options) {
  switch (w) {
    case W::kGrid: return run_grid(options);
    case W::kServe: return run_serve(options, false);
    case W::kServeDurable: return run_serve(options, true);
    case W::kAnalysis: return run_analysis(options);
  }
  throw std::logic_error("unreachable");
}

/// A short run of `w`, for the metrics the main workload does not
/// measure: fixed work (sessions or iterations), except grid, whose
/// session timings need a timed phase of their own.
RunOptions short_run(Workload w, const Args& args, bool traced) {
  RunOptions o;
  o.seed = mix(args.seed, static_cast<std::uint64_t>(w) + 101);
  o.traced = traced;
  o.smoke = args.smoke;
  o.workdir = args.workdir;
  o.seconds = 60.0;  // a cap; the unit counts below end the run
  switch (w) {
    case W::kGrid:  // as long as a grid run: it supplies session timings
      o.seconds = args.seconds;
      o.max_units = args.smoke ? 1 : 0;
      break;
    case W::kServe: o.max_units = args.smoke ? 40 : 1000; break;  // sessions
    case W::kServeDurable: o.max_units = args.smoke ? 40 : 1200; break;
    case W::kAnalysis: o.max_units = args.smoke ? 1 : 2; break;   // iterations
  }
  return o;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string tags_json(const Args& args) {
  return std::string("{\"workload\":") + json_string(to_string(args.workload)) +
         ",\"seed\":" + std::to_string(args.seed) +
         ",\"trace\":" + (args.trace ? "1" : "0") +
         ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"compiler\":" + json_string(BENCH_COMPILER) +
         ",\"build_type\":" + json_string(BENCH_BUILD_TYPE) +
         ",\"git_describe\":" + json_string(BENCH_GIT_DESCRIBE) + "}";
}

std::string metrics_json(const Metrics& metrics) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    if (out.size() > 1) out += ",";
    out += json_string(name) + ":{\"value\":" + number(m.value) +
           ",\"unit\":" + json_string(m.unit) + "}";
  }
  return out + "}";
}

/// The short run of `w` in a child process of this binary (--part), so it
/// shares no heap, threads or peak RSS with the main workload's run.
WorkloadResult run_part(Workload w, const Args& args) {
  const std::string exe = std::filesystem::read_symlink("/proc/self/exe").string();
  std::vector<std::string> words{exe,
                                 "--workload", to_string(w),
                                 "--seed", std::to_string(args.seed),
                                 "--seconds", number(args.seconds),
                                 "--trace", args.trace ? "1" : "0",
                                 "--workdir", args.workdir + "/part-" + to_string(w),
                                 "--part"};
  if (args.smoke) words.emplace_back("--smoke");
  std::vector<char*> argv;
  for (auto& word : words) argv.push_back(word.data());
  argv.push_back(nullptr);

  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  pid_t pid = 0;
  const int spawned = posix_spawn(&pid, exe.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string output;
  if (spawned == 0) {
    char buf[4096];
    ssize_t n = 0;
    while ((n = read(fds[0], buf, sizeof buf)) > 0) output.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  if (spawned != 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw std::runtime_error(std::string("short ") + to_string(w) + " run failed");
  }
  const auto last = output.find_last_of('\n', output.size() - 2);
  const auto json = bat::common::Json::parse(
      output.substr(last == std::string::npos ? 0 : last + 1));
  WorkloadResult out;
  out.attempted = json.at("attempted").as_uint();
  out.failed = json.at("failed").as_uint();
  if (!json.at("correct").as_bool() && out.failed == 0) out.failed = 1;
  auto& metrics = args.trace ? out.layers : out.e2e;
  for (const auto& [name, m] : json.at("metrics").as_object()) {
    metrics[name] = {m.at("value").as_double(), m.at("unit").as_string()};
  }
  return out;
}

struct Totals {
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  void add(const WorkloadResult& r, Workload w) {
    attempted += r.attempted;
    failed += r.failed;
    for (const auto& f : r.failures) failures.push_back(std::string(to_string(w)) + ": " + f);
  }
};

/// Self time of each span name (duration minus the union of its
/// children's intervals), the covered share of the root spans and the
/// tracing overhead, printed for people.
void print_trace_report(const WorkloadResult& traced,
                        const WorkloadResult& untraced) {
  const auto& spans = traced.spans;
  std::map<std::uint64_t, std::vector<const Span*>> children;
  for (const auto& s : spans) {
    if (s.parent != 0 && s.parent != s.id) children[s.parent].push_back(&s);
  }
  const auto covered_ns = [&](const Span& s) {
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (const auto* c : children[s.id]) {
      const auto a = std::max(c->start_ns, s.start_ns);
      const auto b = std::min(c->end_ns, s.end_ns);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t total = 0, cur_a = 0, cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (!open || a > cur_b) {
        if (open) total += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
        open = true;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (open) total += cur_b - cur_a;
    return total;
  };
  struct Agg {
    std::size_t count = 0;
    double self_ms = 0.0;
  };
  std::map<std::string, Agg> by_name;
  std::vector<double> root_ms, root_cover;
  for (const auto& s : spans) {
    const auto cov = covered_ns(s);
    auto& a = by_name[s.name];
    ++a.count;
    a.self_ms += 1e-6 * static_cast<double>(s.end_ns - s.start_ns - cov);
    if (traced.root_span == s.name) {
      root_ms.push_back(1e-6 * static_cast<double>(s.end_ns - s.start_ns));
      root_cover.push_back(1e-6 * static_cast<double>(cov));
    }
  }
  const double roots = static_cast<double>(std::max<std::size_t>(root_ms.size(), 1));
  std::printf("# self time by layer (%zu %s spans):\n", root_ms.size(),
              traced.root_span.c_str());
  std::printf("#   %-28s %9s %14s %14s\n", "span", "count", "self_ms_total",
              "self_ms/root");
  for (const auto& [name, a] : by_name) {
    std::printf("#   %-28s %9zu %14.3f %14.5f\n", name.c_str(), a.count,
                a.self_ms, a.self_ms / roots);
  }
  const double root_median = median(root_ms);
  const double covered_median = median(root_cover);
  std::printf("# coverage: median %s %.4f ms, of which child layers cover "
              "%.4f ms (%.1f%%)\n",
              traced.root_span.c_str(), root_median, covered_median,
              root_median > 0 ? 100.0 * covered_median / root_median : 0.0);
  for (const char* name : {"sessions_per_s", "session_p50_ms", "session_p99_ms",
                           "analysis_s"}) {
    const auto t = traced.e2e.find(name);
    const auto u = untraced.e2e.find(name);
    if (t == traced.e2e.end() || u == untraced.e2e.end()) continue;
    std::printf("# tracing overhead: %s traced %.6g vs untraced %.6g %s "
                "(%+.1f%%)\n",
                name, t->second.value, u->second.value, t->second.unit.c_str(),
                u->second.value != 0.0
                    ? 100.0 * (t->second.value - u->second.value) / u->second.value
                    : 0.0);
  }
  if (const auto u = untraced.e2e.find(traced.root_metric); u != untraced.e2e.end()) {
    const double e2e = traced.root_metric == "analysis_s" ? 1e3 * u->second.value
                                                          : u->second.value;
    std::printf("# covered share of the untraced %s median (%.6g ms): %.1f%%\n",
                traced.root_metric.c_str(), e2e,
                e2e > 0 ? 100.0 * covered_median / e2e : 0.0);
  }
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  for (const auto& s : spans) {
    out << "{\"name\":" << json_string(s.name) << ",\"trace\":" << s.trace
        << ",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns << "}\n";
  }
}

int main_impl(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  bat::common::set_log_level(bat::common::LogLevel::kWarn);
  std::filesystem::create_directories(args.workdir);
  if (!args.out_dir.empty()) std::filesystem::create_directories(args.out_dir);

  Metrics metrics;
  Totals totals;
  RunOptions main_options;
  main_options.seed = args.seed;
  main_options.smoke = args.smoke;
  main_options.workdir = args.workdir;

  if (args.part) {
    const auto r = run(args.workload, short_run(args.workload, args, args.trace));
    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":%s}\n",
                r.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed),
                metrics_json(args.trace ? r.layers : r.e2e).c_str());
    return 0;
  }
  std::printf("# tags %s\n", tags_json(args).c_str());
  std::fflush(stdout);
  const CpuTicks ticks_before = cpu_ticks();
  if (!args.trace) {
    main_options.seconds = args.seconds;
    main_options.setups = args.smoke ? 1 : 5;
    const auto main_run = run(args.workload, main_options);
    totals.add(main_run, args.workload);
    metrics = main_run.e2e;
    if (main_run.latency_samples != 0) {
      std::printf("# session latency samples: %zu\n", main_run.latency_samples);
    }
    std::map<Workload, WorkloadResult> extra;
    for (const auto& spec : kEndToEnd) {
      if (metrics.count(spec.name)) continue;
      auto it = extra.find(spec.home);
      if (it == extra.end()) {
        it = extra.emplace(spec.home, run_part(spec.home, args)).first;
        totals.add(it->second, spec.home);
      }
      metrics[spec.name] = it->second.e2e.at(spec.name);
      std::printf("# %s measured by a short %s run\n", spec.name, to_string(spec.home));
    }
    for (const auto& spec : kEndToEnd) {
      if (metrics.at(spec.name).unit != spec.unit) {
        totals.failed += 1;
        totals.failures.push_back(std::string("end-to-end metric mis-unit: ") + spec.name);
      }
    }
  } else {
    main_options.seconds = args.seconds / 2;
    const auto untraced = run(args.workload, main_options);
    totals.add(untraced, args.workload);
    main_options.traced = true;
    const auto traced = run(args.workload, main_options);
    totals.add(traced, args.workload);
    std::map<Workload, WorkloadResult> extra;
    std::printf("# %-38s %14s %-6s %-16s %-22s %s\n", "per-layer metric", "value",
                "unit", "moves", "on workload", "measured on");
    for (const auto& spec : layer_specs()) {
      const bool here = std::find(spec.on.begin(), spec.on.end(), args.workload) !=
                        spec.on.end();
      const Workload source = here ? args.workload : spec.on.front();
      const WorkloadResult* result = &traced;
      if (!here) {
        auto it = extra.find(source);
        if (it == extra.end()) {
          it = extra.emplace(source, run_part(source, args)).first;
          totals.add(it->second, source);
        }
        result = &it->second;
      }
      const auto m = result->layers.find(spec.name);
      if (m == result->layers.end() || m->second.unit != spec.unit) {
        totals.failed += 1;
        totals.failures.push_back("per-layer metric missing or mis-unit: " + spec.name);
        continue;
      }
      metrics[spec.name] = m->second;
      std::string on;
      for (const auto w : spec.on) on += std::string(on.empty() ? "" : ",") + to_string(w);
      std::printf("# %-38s %14.6g %-6s %-16s %-22s %s\n", spec.name.c_str(),
                  m->second.value, spec.unit, spec.moves, on.c_str(), to_string(source));
    }
    print_trace_report(traced, untraced);
    if (!args.out_dir.empty()) {
      write_spans(args.out_dir + "/spans-" + to_string(args.workload) + "-seed" +
                      std::to_string(args.seed) + ".jsonl",
                  traced.spans);
    }
  }

  // Time the hypervisor gave to other guests: a run with a large share
  // measured a busy host, not this program.
  const CpuTicks ticks_after = cpu_ticks();
  const double steal_pct =
      ticks_after.total > ticks_before.total
          ? 100.0 * static_cast<double>(ticks_after.steal - ticks_before.steal) /
                static_cast<double>(ticks_after.total - ticks_before.total)
          : 0.0;
  std::printf("# cpu steal during the run: %.1f%% of machine CPU time\n", steal_pct);

  bool correct = totals.failed == 0;
  for (const auto& [name, m] : metrics) correct = correct && std::isfinite(m.value);
  for (const auto& f : totals.failures) std::fprintf(stderr, "FAILED: %s\n", f.c_str());
  const std::string result =
      std::string("{\"correct\":") + (correct ? "true" : "false") +
      ",\"attempted\":" + std::to_string(std::max<std::uint64_t>(totals.attempted, 1)) +
      ",\"failed\":" + std::to_string(totals.failed) +
      ",\"metrics\":" + metrics_json(metrics) + "}";
  if (!args.out_dir.empty()) {
    std::ofstream(args.out_dir + "/" + to_string(args.workload) + "-seed" +
                  std::to_string(args.seed) + "-trace" + (args.trace ? "1" : "0") +
                  ".json")
        << "{\"tags\":" << tags_json(args) << ",\"cpu_steal_pct\":" << number(steal_pct)
        << ",\"result\":" << result << "}\n";
  }
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "batbench: %s\n", e.what());
    return 1;
  }
}
