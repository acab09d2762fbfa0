// grid: the paper's tuner comparison, run in process.
//
// One thread submits every (tuner, kernel, device) session of a round to
// a TuningService at default workers, keeping a window of sessions in
// flight, and starts the next round (fresh seeds) until the timed phase
// ends. As `compare_tuners auto` does, the four exhaustively enumerable
// kernels replay datasets swept during set-up and the three huge spaces
// run live. Surrogate sessions get a smaller budget than the others so
// that they are a large minority (~40%) of the grid's CPU time, not all
// of it: tuners, core, gpusim, io replay, the sharded cache and the
// small surrogate GBDT fits all do work; net, api and the journal none.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <filesystem>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "common/rng.hpp"
#include "core/backend.hpp"
#include "io/dataset_file.hpp"
#include "io/dataset_view.hpp"
#include "kernels/all_kernels.hpp"
#include "ml/gbdt.hpp"
#include "service/tuning_service.hpp"
#include "tuners/tuner.hpp"

namespace perfbench {
namespace {

using namespace bat;

constexpr std::size_t kBudget = 256;
constexpr std::size_t kSurrogateBudget = 28;
constexpr std::size_t kDevices = 4;
/// Sessions in flight: two per service worker keeps every worker busy
/// while the submitter observes completions.
constexpr std::size_t kWindowPerWorker = 2;
/// Sessions checked against a standalone run_tuner per run: this many
/// from the first round, plus every 997th session after it.
constexpr std::size_t kVerifyFirstRound = 8;
constexpr std::uint64_t kVerifyStride = 997;

bool is_replay(const std::string& kernel) {
  return kernel == "gemm" || kernel == "nbody" || kernel == "pnpoly" ||
         kernel == "convolution";
}

std::size_t budget_for(const std::string& tuner) {
  return tuner == "surrogate" ? kSurrogateBudget : kBudget;
}

std::vector<service::SessionSpec> round_specs(std::uint64_t seed,
                                              std::uint64_t round) {
  std::vector<service::SessionSpec> specs;
  std::uint64_t i = 0;
  for (const auto& tuner : tuners::tuner_names()) {
    for (const auto& kernel : kernels::paper_benchmark_names()) {
      for (core::DeviceIndex d = 0; d < kDevices; ++d) {
        service::SessionSpec spec;
        spec.kernel = kernel;
        spec.tuner = tuner;
        spec.device = d;
        spec.budget = budget_for(tuner);
        spec.seed = mix(seed, (round << 16) | i++);
        spec.backend = is_replay(kernel) ? "replay" : "live";
        specs.push_back(std::move(spec));
      }
    }
  }
  return specs;
}

struct GridState {
  std::unique_ptr<service::TuningService> service;
  /// True optimum per (kernel, device) of the replayed kernels.
  std::map<std::pair<std::string, core::DeviceIndex>, double> optimum;
  std::vector<double> sweep_ms;
};

std::unique_ptr<GridState> set_up() {
  auto state = std::make_unique<GridState>();
  state->service = std::make_unique<service::TuningService>();
  auto& svc = *state->service;
  for (const auto& kernel : kernels::paper_benchmark_names()) {
    if (!is_replay(kernel)) continue;
    const auto bench = kernels::make(kernel);
    for (core::DeviceIndex d = 0; d < kDevices; ++d) {
      const double t0 = now_s();
      const auto ds = svc.datasets().get(*bench, d);
      state->sweep_ms.push_back(1e3 * (now_s() - t0));
      state->optimum[{kernel, d}] = ds->best_time();
    }
  }
  // Build every (kernel, device, backend) workload now so that no timed
  // session pays for lazy construction.
  std::vector<service::SessionSpec> warm;
  for (const auto& kernel : kernels::paper_benchmark_names()) {
    for (core::DeviceIndex d = 0; d < kDevices; ++d) {
      service::SessionSpec spec;
      spec.kernel = kernel;
      spec.tuner = "random";
      spec.device = d;
      spec.budget = 1;
      spec.backend = is_replay(kernel) ? "replay" : "live";
      warm.push_back(std::move(spec));
    }
  }
  for (const auto& r : svc.run_all(warm)) {
    if (r.status != service::SessionStatus::kCompleted) {
      throw std::runtime_error("grid warm-up session failed: " + r.error);
    }
  }
  return state;
}

bool same_run(const tuners::TuningRun& a, const tuners::TuningRun& b) {
  if (a.trace.size() != b.trace.size()) return false;
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    if (a.trace[i].index != b.trace[i].index ||
        std::memcmp(&a.trace[i].objective, &b.trace[i].objective,
                    sizeof(double)) != 0) {
      return false;
    }
  }
  if (a.best.has_value() != b.best.has_value()) return false;
  return !a.best || (a.best->index == b.best->index &&
                     std::memcmp(&a.best->objective, &b.best->objective,
                                 sizeof(double)) == 0);
}

/// Standalone tuners::run_tuner of the same spec over a private backend.
tuners::TuningRun standalone(service::TuningService& svc,
                             const service::SessionSpec& spec) {
  const auto bench = kernels::make(spec.kernel);
  auto tuner = tuners::make_tuner(spec.tuner);
  if (spec.backend == "replay") {
    const auto ds = svc.datasets().find(spec.kernel,
                                        bench->device_name(spec.device));
    if (!ds) throw std::runtime_error("no swept dataset for " + spec.kernel);
    core::ReplayBackend backend(bench->space(), *ds);
    return tuners::run_tuner(*tuner, backend, spec.budget, spec.seed);
  }
  core::LiveBackend backend(*bench, spec.device);
  return tuners::run_tuner(*tuner, backend, spec.budget, spec.seed);
}

/// Per-layer probes of the layers grid sessions cross, each timing one
/// public call on inputs drawn from the workload seed.
void layer_probes(GridState& state, const RunOptions& options,
                  Metrics& layers) {
  auto& svc = *state.service;
  common::Rng rng(mix(options.seed, 0x9A0BE));
  const auto gemm = kernels::make("gemm");
  const auto gemm_ds = svc.datasets().find("gemm", gemm->device_name(2));
  const std::size_t reps = options.smoke ? 1 : 3;

  {  // io.replay_ns: replay lookups over every valid configuration.
    core::ReplayBackend backend(gemm->space(), *gemm_ds);
    auto indices = gemm->space().compiled().valid_indices();
    for (std::size_t i = indices.size(); i > 1; --i) {
      std::swap(indices[i - 1], indices[rng.next_below(i)]);
    }
    std::vector<double> per;
    for (std::size_t r = 0; r < reps; ++r) {
      const auto t0 = now_ns();
      for (std::size_t i = 0; i < indices.size(); i += 64) {
        const auto n = std::min<std::size_t>(64, indices.size() - i);
        (void)backend.evaluate_batch(
            std::span<const core::ConfigIndex>(indices.data() + i, n));
      }
      per.push_back(static_cast<double>(now_ns() - t0) /
                    static_cast<double>(indices.size()));
    }
    layers["io.replay_ns"] = {median(per), "ns"};
  }
  {  // io.dataset_open_us: DatasetView::open of a binary archive.
    const auto path = options.workdir + "/grid_probe_gemm.bin";
    io::save_dataset(path, *gemm_ds, io::DatasetFormat::kBinary);
    std::vector<double> per;
    for (std::size_t r = 0; r < 20 * reps; ++r) {
      const auto t0 = now_ns();
      const auto view = io::DatasetView::open(path);
      per.push_back(1e-3 * static_cast<double>(now_ns() - t0));
      if (view->size() != gemm_ds->size()) {
        throw std::runtime_error("archive row count mismatch");
      }
    }
    std::filesystem::remove(path);
    layers["io.dataset_open_us"] = {median(per), "us"};
  }
  layers["core.sweep_ms"] = {median(state.sweep_ms), "ms"};
  {  // core.neighbors_ns and gpusim.eval_ns over every kernel.
    double neighbor_ns = 0.0, eval_ns = 0.0;
    std::size_t bases = 0, evals = 0;
    for (const auto& kernel : kernels::paper_benchmark_names()) {
      const auto bench = kernels::make(kernel);
      const auto& compiled = bench->space().compiled();
      std::vector<core::ConfigIndex> sample;
      for (std::size_t i = 0; i < (options.smoke ? 32u : 512u); ++i) {
        sample.push_back(compiled.random_valid_index(rng));
      }
      core::NeighborScratch scratch;
      std::size_t visited = 0;
      auto t0 = now_ns();
      for (const auto base : sample) {
        compiled.for_each_valid_neighbor_index(
            base, scratch, [&](core::ConfigIndex) { ++visited; });
      }
      neighbor_ns += static_cast<double>(now_ns() - t0);
      bases += sample.size();
      if (visited == 0) throw std::runtime_error(kernel + ": no neighbours");
      // Below the fan-out threshold: one thread, no pool hand-off.
      core::LiveBackend live(*bench, static_cast<core::DeviceIndex>(
                                         rng.next_below(kDevices)),
                             sample.size() + 1);
      t0 = now_ns();
      (void)live.evaluate_batch(sample);
      eval_ns += static_cast<double>(now_ns() - t0);
      evals += sample.size();
    }
    layers["core.neighbors_ns"] = {neighbor_ns / static_cast<double>(bases), "ns"};
    layers["gpusim.eval_ns"] = {eval_ns / static_cast<double>(evals), "ns"};
  }
  {  // tuners.<tuner>.ns_per_eval over a replay-backed backend.
    core::ReplayBackend backend(gemm->space(), *gemm_ds);
    for (const auto& name : tuners::tuner_names()) {
      double ns = 0.0;
      std::size_t evaluated = 0;
      for (std::size_t r = 0; r < (options.smoke ? 1u : 4u); ++r) {
        auto tuner = tuners::make_tuner(name);
        const auto t0 = now_ns();
        const auto run = tuners::run_tuner(*tuner, backend, budget_for(name),
                                           mix(options.seed, 0x7E5 + r));
        ns += static_cast<double>(now_ns() - t0);
        evaluated += run.trace.size();
      }
      layers["tuners." + name + ".ns_per_eval"] = {
          ns / static_cast<double>(std::max<std::size_t>(evaluated, 1)), "ns"};
    }
  }
  {  // ml.fit_small_ms: a surrogate-sized fit (budget rows, 80 trees, depth 5).
    const auto features = gemm_ds->feature_matrix();
    const auto targets = gemm_ds->target_vector();
    ml::GbdtParams params;
    params.num_trees = 80;
    params.tree.max_depth = 5;
    std::vector<double> per;
    for (std::size_t r = 0; r < (options.smoke ? 2u : 20u); ++r) {
      std::vector<std::vector<double>> rows;
      std::vector<double> y;
      while (rows.size() < kSurrogateBudget) {
        const auto row = rng.next_below(features.size());
        if (!std::isfinite(targets[row])) continue;
        rows.push_back(features[row]);
        y.push_back(targets[row]);
      }
      ml::GbdtRegressor model(params);
      const auto x = ml::Matrix::from_rows(rows);
      const auto t0 = now_ns();
      model.fit(x, y);
      per.push_back(1e-6 * static_cast<double>(now_ns() - t0));
    }
    layers["ml.fit_small_ms"] = {median(per), "ms"};
  }
}

}  // namespace

WorkloadResult run_grid(const RunOptions& options) {
  Tracer tracer(options.traced);
  WorkloadResult out;
  double setup_s = 0.0;
  auto state = timed_setups(options.setups, [] { return set_up(); },
                            setup_s);
  auto& svc = *state->service;
  Tally tally;
  const std::size_t window = kWindowPerWorker * svc.workers();

  struct InFlight {
    std::uint64_t index;
    service::SessionSpec spec;
    std::future<service::SessionResult> future;
    std::int64_t submit_start, submit_end;
  };
  std::deque<InFlight> inflight;
  std::vector<double> latency_ms, exec_ms;
  std::vector<std::int64_t> done_ns;
  std::vector<std::pair<service::SessionSpec, tuners::TuningRun>> samples;
  double fraction_sum = 0.0;
  std::size_t fraction_n = 0, completed = 0;
  double rss_mb = 0.0;

  const auto first_round = round_specs(options.seed, 0);
  std::vector<bool> verify_first(first_round.size(), false);
  for (std::size_t k = 0; k < kVerifyFirstRound; ++k) {
    verify_first[mix(options.seed, 0xC4EC + k) % first_round.size()] = true;
  }

  const auto cache_before = svc.cache_stats();
  const auto finish = [&](InFlight& job) {
    auto result = job.future.get();
    const auto ready = now_ns();
    tally.attempted.fetch_add(1);
    if (result.status != service::SessionStatus::kCompleted) {
      tally.fail("session " + job.spec.kernel + "/" + job.spec.tuner + " " +
                 to_string(result.status) + ": " + result.error);
      return;
    }
    ++completed;
    latency_ms.push_back(1e-6 * static_cast<double>(ready - job.submit_start));
    done_ns.push_back(ready);
    exec_ms.push_back(result.wall_ms);
    if (job.spec.backend == "replay" && result.run.best) {
      fraction_sum += state->optimum.at({job.spec.kernel, job.spec.device}) /
                      result.run.best->objective;
      ++fraction_n;
    }
    if ((job.index < first_round.size() && verify_first[job.index]) ||
        (job.index % kVerifyStride == options.seed % kVerifyStride)) {
      samples.emplace_back(job.spec, std::move(result.run));
    }
    if (job.index + 1 == first_round.size()) rss_mb = peak_rss_mb();
    if (tracer.enabled()) {
      const auto wall_ns = static_cast<std::int64_t>(result.wall_ms * 1e6);
      const auto root = tracer.next_id();
      tracer.record({"grid.session", job.index + 1, root, 0, job.submit_start, ready});
      tracer.record({"service.submit", job.index + 1, tracer.next_id(), root,
                     job.submit_start, job.submit_end});
      const auto exec_start = std::max(job.submit_end, ready - wall_ns);
      tracer.record({"service.queue_wait", job.index + 1, tracer.next_id(),
                     root, job.submit_end, exec_start});
      tracer.record({"service.exec", job.index + 1, tracer.next_id(), root,
                     exec_start, ready});
    }
  };

  const auto start_ns = now_ns();
  const double start = 1e-9 * static_cast<double>(start_ns);
  const double deadline = start + options.seconds;
  std::uint64_t index = 0;
  std::vector<service::SessionSpec> specs = first_round;
  bool submitting = true;
  while (submitting || !inflight.empty()) {
    while (submitting && inflight.size() < window) {
      const std::size_t in_round = index % first_round.size();
      const std::uint64_t round = index / first_round.size();
      if (in_round == 0 && round > 0) {
        if (now_s() >= deadline ||
            (options.max_units != 0 && round >= options.max_units)) {
          submitting = false;
          break;
        }
        specs = round_specs(options.seed, round);
      }
      InFlight job{index, specs[in_round], {}, now_ns(), 0};
      job.future = svc.submit(job.spec);
      job.submit_end = now_ns();
      inflight.push_back(std::move(job));
      ++index;
    }
    if (inflight.empty()) break;
    inflight.front().future.wait_for(std::chrono::microseconds(100));
    for (auto it = inflight.begin(); it != inflight.end();) {
      if (it->future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        finish(*it);
        it = inflight.erase(it);
      } else {
        ++it;
      }
    }
  }
  const double elapsed = now_s() - start;
  const auto cache_after = svc.cache_stats();
  if (rss_mb == 0.0) rss_mb = peak_rss_mb();

  for (const auto& [spec, run] : samples) {
    tally.attempted.fetch_add(1);
    try {
      if (!same_run(run, standalone(svc, spec))) {
        tally.fail("grid result differs from standalone run_tuner: " +
                   spec.kernel + "/" + spec.tuner + " seed " +
                   std::to_string(spec.seed));
      }
    } catch (const std::exception& e) {
      tally.fail(std::string("grid verification threw: ") + e.what());
    }
  }
  if (samples.empty()) tally.fail("grid: no session was sampled for verification");

  out.e2e["setup_s"] = {setup_s, "s"};
  std::vector<double> done_s;
  for (const auto t : done_ns) done_s.push_back(1e-9 * static_cast<double>(t - start_ns));
  out.e2e["sessions_per_s"] = {throughput(done_s, elapsed), "1/s"};
  out.e2e["session_p50_ms"] = {windowed_quantile(latency_ms, done_s, 0.5, elapsed), "ms"};
  out.e2e["session_p99_ms"] = {windowed_quantile(latency_ms, done_s, 0.99, elapsed), "ms"};
  out.latency_samples = latency_ms.size();
  out.e2e["peak_rss_mb"] = {rss_mb, "MB"};
  out.e2e["optimum_fraction"] = {
      fraction_n ? fraction_sum / static_cast<double>(fraction_n) : 0.0, "ratio"};
  out.root_span = "grid.session";
  out.root_metric = "session_p50_ms";

  if (options.traced) {
    const auto lookups = cache_after.lookups - cache_before.lookups;
    const auto hits = cache_after.cross_session_hits() -
                      cache_before.cross_session_hits();
    out.layers["service.exec_ms"] = {median(exec_ms), "ms"};
    out.layers["service.cache_hit_ratio"] = {
        lookups ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0,
        "ratio"};
    out.layers["service.cache_waited"] = {
        static_cast<double>(cache_after.waited - cache_before.waited), "count"};
    layer_probes(*state, options, out.layers);
    out.spans = tracer.spans();
  }
  out.attempted = tally.attempted.load();
  out.failed = tally.failed.load();
  out.failures = tally.messages();
  std::fprintf(stderr,
               "grid: %zu sessions in %.2f s (%zu in flight max, %zu workers), "
               "%zu verified, latency samples %zu\n",
               completed, elapsed, window, svc.workers(), samples.size(),
               latency_ms.size());
  return out;
}

}  // namespace perfbench
