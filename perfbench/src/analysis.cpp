// analysis: the paper's analysis pipeline on a fixed slice of datasets.
//
// Set-up sweeps the slice (pnpoly on all four GPUs, exhaustively, and
// hotspot on the RTX 2080 Ti, 10 000 sampled configurations, both with
// the harnesses' dataset seed). Each timed iteration then runs Fig 1
// distributions and Fig 4 speedups on every dataset, Fig 3 FFG +
// PageRank centrality on the exhaustive ones, Fig 5 portability for
// pnpoly, and the Fig 6 GBDT fit + PFI at the harness tree count (220)
// on pnpoly@RTX_2080Ti, pnpoly@RTX_3090 and hotspot@RTX_2080Ti. ml and
// analysis do nearly all the work, single-threaded; net, the journal and
// the tuners do none. The workload seed drives the PFI shuffles; the
// split and GBDT seeds are feature_importance's fixed defaults.
#include <algorithm>
#include <stdexcept>

#include "analysis/centrality.hpp"
#include "analysis/distribution.hpp"
#include "analysis/ffg.hpp"
#include "analysis/importance.hpp"
#include "analysis/portability.hpp"
#include "analysis/speedup.hpp"
#include "bench.hpp"
#include "io/dataset_repository.hpp"
#include "kernels/all_kernels.hpp"
#include "ml/gbdt.hpp"
#include "ml/pfi.hpp"

namespace perfbench {
namespace {

using namespace bat;

constexpr std::uint64_t kDatasetSeed = 0xBA7BA7ULL;  // the harnesses' seed
constexpr std::size_t kHarnessTrees = 220;           // bench/fig6_*
constexpr std::size_t kSmokeTrees = 10;
/// analysis::feature_importance's defaults: the split and the GBDT
/// subsampling use its fixed seeds, so every iteration (and every run)
/// fits the same models and r2_min only moves when the code does.
const analysis::ImportanceOptions kImportance;

struct Slice {
  std::string kernel;
  core::DeviceIndex device;
  bool fig6;
};
const std::vector<Slice> kSlice{{"pnpoly", 0, true},
                                {"pnpoly", 1, false},
                                {"pnpoly", 2, true},
                                {"pnpoly", 3, false},
                                {"hotspot", 0, true}};

struct AnalysisState {
  std::unique_ptr<io::DatasetRepository> repo;
  std::map<std::string, std::unique_ptr<core::Benchmark>> benches;
  std::vector<std::shared_ptr<const core::Dataset>> datasets;  // per kSlice
  std::vector<double> sweep_ms;
};

std::unique_ptr<AnalysisState> set_up() {
  auto state = std::make_unique<AnalysisState>();
  io::RepositoryOptions repo_options;
  repo_options.seed = kDatasetSeed;
  state->repo = std::make_unique<io::DatasetRepository>(repo_options);
  for (const auto& s : kSlice) {
    auto& bench = state->benches[s.kernel];
    if (!bench) bench = kernels::make(s.kernel);
    const double t0 = now_s();
    state->datasets.push_back(state->repo->get(*bench, s.device));
    state->sweep_ms.push_back(1e3 * (now_s() - t0));
  }
  return state;
}

/// What one pipeline iteration produced, for the output checks.
struct IterationOutput {
  std::vector<double> speedup;                 // Fig 4, per kSlice entry
  std::vector<std::vector<double>> portability;  // Fig 5, pnpoly
  std::vector<std::size_t> top_feature;        // Fig 6, per fitted entry
  std::vector<double> r2;                      // Fig 6, per fitted entry
  std::size_t centrality_curves = 0;           // Fig 3
  std::size_t predicted_rows = 0;              // Fig 6 test rows
};

IterationOutput run_iteration(const AnalysisState& state,
                              const RunOptions& options, std::uint64_t step,
                              Tracer& tracer, std::uint64_t root) {
  IterationOutput out;
  const auto span = [&](const char* name, std::int64_t t0) {
    tracer.close(name, root, root, t0);
  };
  std::vector<core::Dataset> pnpoly;
  for (std::size_t i = 0; i < kSlice.size(); ++i) {
    const auto& ds = *state.datasets[i];
    auto t0 = now_ns();
    const auto series = analysis::distribution_series(ds);
    span("analysis.distribution", t0);
    if (series.speedup_over_median.empty()) {
      throw std::runtime_error("Fig 1: empty distribution");
    }
    t0 = now_ns();
    out.speedup.push_back(analysis::max_speedup_over_median(ds).speedup);
    span("analysis.speedup", t0);
    if (kSlice[i].kernel == "pnpoly") {
      const auto& bench = *state.benches.at("pnpoly");
      t0 = now_ns();
      const analysis::FitnessFlowGraph graph(bench.space(), ds);
      span("analysis.ffg", t0);
      t0 = now_ns();
      const auto curve = analysis::proportion_of_centrality(
          graph, {0.0, 0.01, 0.02, 0.05, 0.10, 0.20, 0.50, 1.00});
      span("analysis.pagerank", t0);
      if (curve.num_minima > 0) ++out.centrality_curves;
      pnpoly.push_back(ds);
    }
  }
  auto t0 = now_ns();
  out.portability =
      analysis::portability_matrix(*state.benches.at("pnpoly"), pnpoly).relative;
  span("analysis.portability", t0);

  for (std::size_t i = 0; i < kSlice.size(); ++i) {
    if (!kSlice[i].fig6) continue;
    const auto& ds = *state.datasets[i];
    // analysis::feature_importance, step by step so each layer is timed.
    t0 = now_ns();
    const auto x = ml::Matrix::from_rows(ds.feature_matrix());
    const auto targets = ds.target_vector();
    const auto split = ml::train_test_split(x, targets, kImportance.test_fraction,
                                            kImportance.seed);
    span("ml.prepare", t0);
    ml::GbdtParams params = kImportance.gbdt;
    params.num_trees = options.smoke ? kSmokeTrees : kHarnessTrees;
    ml::GbdtRegressor model(params);
    t0 = now_ns();
    model.fit(split.x_train, split.y_train);
    span("ml.fit", t0);
    t0 = now_ns();
    const auto predicted = model.predict_all(split.x_test);
    span("ml.predict", t0);
    out.predicted_rows += split.x_test.rows();
    out.r2.push_back(ml::r2_score(split.y_test, predicted));
    t0 = now_ns();
    const auto pfi = ml::permutation_importance(
        model, split.x_test, split.y_test,
        {.repeats = kImportance.pfi.repeats, .seed = mix(options.seed, step)});
    span("ml.pfi", t0);
    out.top_feature.push_back(static_cast<std::size_t>(
        std::max_element(pfi.importance.begin(), pfi.importance.end()) -
        pfi.importance.begin()));
  }
  return out;
}

/// The shapes tests/analysis_shape_test.cpp asserts, where the slice
/// covers them. Returns the failures.
std::vector<std::string> check_shapes(const IterationOutput& out, bool smoke) {
  std::vector<std::string> bad;
  const auto expect = [&](bool ok, const std::string& what) {
    if (!ok) bad.push_back(what);
  };
  // Fig 1b / Fig 4: hotspot's best cluster sits 8-16x above the median.
  expect(out.speedup[4] > 8.0 && out.speedup[4] < 16.0,
         "Fig 4: hotspot speedup " + std::to_string(out.speedup[4]));
  // Fig 4: pnpoly is moderate.
  expect(out.speedup[2] > 1.15 && out.speedup[2] < 7.0,
         "Fig 4: pnpoly speedup " + std::to_string(out.speedup[2]));
  // Fig 5: 3090 -> Turing transfers poorly, same-family transfers well.
  const auto& m = out.portability;
  expect(m[2][0] < 0.80 && m[2][0] > 0.45, "Fig 5: pnpoly 3090->2080Ti");
  expect(m[2][3] < 0.80, "Fig 5: pnpoly 3090->Titan");
  expect(m[1][2] > 0.95 && m[2][1] > 0.95, "Fig 5: pnpoly 3060<->3090");
  expect(m[0][3] > 0.90, "Fig 5: pnpoly 2080Ti->Titan");
  expect(out.centrality_curves == 4, "Fig 3: missing centrality curve");
  if (!smoke) {
    // Fig 6: pnpoly's top feature agrees across Turing and Ampere, and
    // the fits are accurate (the test's band for the exhaustive kernels).
    expect(out.top_feature[0] == out.top_feature[1], "Fig 6: pnpoly top feature");
    expect(out.r2[0] > 0.93 && out.r2[1] > 0.93, "Fig 6: pnpoly R^2");
  }
  return bad;
}

}  // namespace

WorkloadResult run_analysis(const RunOptions& options) {
  Tracer tracer(options.traced);
  WorkloadResult out;
  double setup_s = 0.0;
  auto state = timed_setups(options.setups, [] { return set_up(); }, setup_s);
  Tally tally;

  std::vector<double> iteration_s;
  std::size_t predicted_rows = 0;
  double r2_min = 1.0;
  double rss_mb = 0.0;
  const double start = now_s();
  for (std::uint64_t step = 0;; ++step) {
    const auto root = tracer.next_id();
    const auto t0 = now_ns();
    tally.attempted.fetch_add(1);
    IterationOutput result;
    try {
      result = run_iteration(*state, options, step, tracer, root);
    } catch (const std::exception& e) {
      tally.fail(std::string("analysis iteration threw: ") + e.what());
      break;
    }
    const auto t1 = now_ns();
    tracer.record({"analysis.iteration", root, root, 0, t0, t1});
    iteration_s.push_back(1e-9 * static_cast<double>(t1 - t0));
    predicted_rows += result.predicted_rows;
    for (const auto r2 : result.r2) r2_min = std::min(r2_min, r2);
    for (const auto& bad : check_shapes(result, options.smoke)) {
      tally.fail("analysis shape: " + bad);
    }
    if (step == 0) rss_mb = peak_rss_mb();
    const std::size_t done = iteration_s.size();
    if (now_s() - start >= options.seconds ||
        (options.max_units != 0 && done >= options.max_units)) {
      break;
    }
  }

  out.e2e["setup_s"] = {setup_s, "s"};
  out.e2e["analysis_s"] = {median(iteration_s), "s"};
  out.e2e["r2_min"] = {r2_min, "r2"};
  out.e2e["peak_rss_mb"] = {rss_mb, "MB"};
  out.root_span = "analysis.iteration";
  out.root_metric = "analysis_s";
  if (options.traced) {
    const auto spans = tracer.spans();
    const auto ms = [&](const char* name) {
      return median(durations_us(spans, name)) * 1e-3;
    };
    out.layers["core.sweep_ms"] = {median(state->sweep_ms), "ms"};
    out.layers["ml.fit_large_ms"] = {ms("ml.fit"), "ms"};
    out.layers["ml.pfi_ms"] = {ms("ml.pfi"), "ms"};
    out.layers["analysis.ffg_ms"] = {ms("analysis.ffg"), "ms"};
    out.layers["analysis.pagerank_ms"] = {ms("analysis.pagerank"), "ms"};
    double predict_us = 0.0;
    for (const auto d : durations_us(spans, "ml.predict")) predict_us += d;
    out.layers["ml.predict_ns"] = {
        1e3 * predict_us / static_cast<double>(std::max<std::size_t>(predicted_rows, 1)),
        "ns"};
    out.spans = spans;
  }
  out.attempted = tally.attempted.load();
  out.failed = tally.failed.load();
  out.failures = tally.messages();
  std::fprintf(stderr, "analysis: %zu iterations, median %.3f s, r2_min %.4f\n",
               iteration_s.size(), median(iteration_s), r2_min);
  return out;
}

}  // namespace perfbench
