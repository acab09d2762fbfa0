// serve and serve-durable: an in-process loopback ApiServer over a
// TuningService at `tune serve` defaults, driven by a closed loop.
//
// Four client threads each hold one keep-alive HttpClient connection.
// A client POSTs /v1/sessions, polls GET /v1/sessions/<id> at once and
// then every kPollInterval until the session is done, and only then
// submits its next session. Specs are the seven non-surrogate tuners x
// seven kernels on `live` with a small budget, so evaluation costs about
// 0.1-0.2 ms per session and HTTP, JSON and the service queue dominate;
// ml and (for `serve`) the journal do nothing.
//
// serve-durable is the same traffic with a fresh journal_dir per set-up
// at the default retain (1024) and checkpoint (256 KiB) settings. The
// journal crosses the checkpoint threshold after ~400 of these sessions;
// from then on every record_result checkpoints (perfbench/README.md,
// known behaviour), and the run goes well past that point.
//
// Traced runs replace ApiServer::start() with an HttpServer of the same
// options whose handler times ApiServer::handle, so the server-side time
// of each request can be subtracted from the client's round trip. The
// client names its span in an ignored query parameter (?t=<trace>&p=<span>).
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <thread>

#include "api/api_server.hpp"
#include "bench.hpp"
#include "common/json.hpp"
#include "io/dataset_repository.hpp"
#include "kernels/all_kernels.hpp"
#include "net/http_client.hpp"
#include "net/http_server.hpp"
#include "service/session_json.hpp"
#include "service/session_log.hpp"
#include "service/tuning_service.hpp"
#include "tuners/tuner.hpp"

namespace perfbench {
namespace {

using namespace bat;

constexpr std::size_t kClients = 4;
constexpr auto kPollInterval = std::chrono::microseconds(250);
constexpr std::size_t kBudget = 32;
constexpr std::size_t kDevices = 4;
/// peak_rss_mb is read once this many sessions have completed, so runs
/// compare at equal work whatever their throughput.
constexpr std::size_t kRssAfterSessions = 2000;
constexpr std::size_t kRssAfterSessionsDurable = 300;
/// Served results checked against run_inline: each client's first, then
/// about 1 in 64, at most this many per client.
constexpr std::size_t kSamplesPerClient = 8;
/// Spaces at most this large are swept for the true optimum (the paper's
/// exhaustive kernels: gemm, nbody, pnpoly, convolution).
constexpr std::uint64_t kExhaustiveLimit = 100'000;
/// Records the SessionLog probe writes: past the default retain (1024).
constexpr std::size_t kLogProbeRecords = 1600;

service::SessionSpec make_spec(std::uint64_t seed, std::uint64_t client,
                               std::uint64_t n) {
  static const std::vector<std::string> tuner_names = [] {
    auto names = tuners::tuner_names();
    names.erase(std::remove(names.begin(), names.end(), "surrogate"),
                names.end());
    return names;
  }();
  static const std::vector<std::string> kernel_names =
      kernels::paper_benchmark_names();
  const std::uint64_t r = mix(seed, (client << 40) | n);
  service::SessionSpec spec;
  spec.tuner = tuner_names[r % tuner_names.size()];
  spec.kernel = kernel_names[(r >> 8) % kernel_names.size()];
  spec.device = static_cast<core::DeviceIndex>((r >> 16) % kDevices);
  spec.budget = kBudget;
  // common::Json holds integers from 2^63 up as doubles, so such a seed
  // reaches the server rounded (README.md, known behaviour).
  spec.seed = mix(r, 0x5E55) >> 1;
  spec.backend = "live";
  return spec;
}

struct ServeState {
  std::shared_ptr<obs::MetricsRegistry> metrics;
  std::string journal_dir;
  std::unique_ptr<service::TuningService> service;
  std::unique_ptr<api::ApiServer> api;
  std::unique_ptr<net::HttpServer> traced_http;  // stops before api dies
  std::uint16_t port = 0;
};

std::uint64_t query_value(const std::string& target, const char* key) {
  const auto at = target.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoull(target.c_str() + at + std::strlen(key), nullptr, 10);
}

std::string trace_query(const Tracer& tracer, std::uint64_t trace,
                        std::uint64_t span) {
  if (!tracer.enabled()) return {};
  return "?t=" + std::to_string(trace) + "&p=" + std::to_string(span);
}

/// One closed-loop session: POST, then poll until done. `ok` is false
/// (and the failure counted) on a non-2xx answer or a session that did
/// not complete.
struct SessionOutcome {
  bool ok = false;
  common::Json done;
  std::size_t polls = 0;
  double parse_us = 0.0;
};

SessionOutcome run_session(net::HttpClient& client, Tracer& tracer,
                           const service::SessionSpec& spec, Tally& tally,
                           std::uint64_t root) {
  SessionOutcome out;
  const std::uint64_t trace = root;
  const auto submit_id = tracer.next_id();
  auto t0 = now_ns();
  auto response = client.post("/v1/sessions" + trace_query(tracer, trace, submit_id),
                              service::to_json(spec).dump());
  tracer.record({"net.submit", trace, submit_id, root, t0, now_ns()});
  if (response.status != 202) {
    tally.fail("POST /v1/sessions answered " + std::to_string(response.status));
    return out;
  }
  const std::string id = common::Json::parse(response.body).at("id").as_string();
  const std::string target = "/v1/sessions/" + id;
  while (true) {
    const auto poll_id = tracer.next_id();
    t0 = now_ns();
    response = client.get(target + trace_query(tracer, trace, poll_id));
    const auto t1 = now_ns();
    ++out.polls;
    if (response.status != 200) {
      tracer.record({"net.poll", trace, poll_id, root, t0, t1});
      tally.fail("GET " + target + " answered " + std::to_string(response.status));
      return out;
    }
    auto json = common::Json::parse(response.body);
    const auto t2 = now_ns();
    const bool done = json.at("state").as_string() == "done";
    tracer.record({done ? "net.poll_done" : "net.poll", trace, poll_id, root, t0, t1});
    tracer.close("common.json_parse", trace, root, t1);
    if (done) {
      out.parse_us = 1e-3 * static_cast<double>(t2 - t1);
      const auto& status = json.at("result").at("status").as_string();
      if (status != "completed") {
        tally.fail("session " + id + " " + status);
        return out;
      }
      out.done = std::move(json);
      out.ok = true;
      return out;
    }
    const auto sleep_start = now_ns();
    std::this_thread::sleep_for(kPollInterval);
    tracer.close("client.poll_interval", trace, root, sleep_start);
  }
}

std::unique_ptr<ServeState> set_up(const RunOptions& options, bool durable,
                                   Tracer& tracer, std::size_t instance) {
  auto state = std::make_unique<ServeState>();
  state->metrics = std::make_shared<obs::MetricsRegistry>();
  service::ServiceOptions service_options;  // `tune serve` defaults
  service_options.metrics = state->metrics;
  if (durable) {
    state->journal_dir = options.workdir + "/journal-" + std::to_string(instance);
    std::filesystem::remove_all(state->journal_dir);
    service_options.journal_dir = state->journal_dir;
  }
  state->service = std::make_unique<service::TuningService>(service_options);

  api::ApiOptions api_options;  // `tune serve` defaults
  api_options.metrics = state->metrics;
  api_options.http.workers = 8;
  api_options.http.event_loops = 2;
  api_options.http.max_connections = 1024;
  api_options.http.limits.max_body_bytes = 1024 * 1024;
  api_options.http.metrics = state->metrics;
  auto http_options = api_options.http;
  http_options.metrics = nullptr;  // the ApiServer's own transport owns the series
  state->api = std::make_unique<api::ApiServer>(*state->service, api_options);
  if (tracer.enabled()) {
    auto* api = state->api.get();
    state->traced_http = std::make_unique<net::HttpServer>(
        http_options, [api, &tracer](const net::HttpRequest& request) {
          const auto t0 = now_ns();
          auto response = api->handle(request);
          const auto trace = query_value(request.target, "t=");
          if (trace != 0) {  // warm-up requests carry no span
            tracer.close("api.handle", trace, query_value(request.target, "p="), t0);
          }
          return response;
        });
    state->traced_http->start();
    state->port = state->traced_http->port();
  } else {
    state->api->start();
    state->port = state->api->port();
  }

  // Build every live (kernel, device) workload through the front door.
  Tracer quiet(false);
  Tally warm_tally;
  net::HttpClient client("127.0.0.1", state->port);
  for (const auto& kernel : kernels::paper_benchmark_names()) {
    for (core::DeviceIndex d = 0; d < kDevices; ++d) {
      service::SessionSpec spec;
      spec.kernel = kernel;
      spec.tuner = "random";
      spec.device = d;
      spec.budget = 1;
      if (!run_session(client, quiet, spec, warm_tally, 0).ok) {
        throw std::runtime_error("serve warm-up failed: " +
                                 warm_tally.messages().front());
      }
    }
  }
  return state;
}

/// Same specs, straight into TuningService::submit_tracked: the service
/// layer's own submit cost and queue wait, without HTTP in front.
void direct_phase(service::TuningService& svc, const RunOptions& options,
                  Tracer& tracer, Tally& tally, Metrics& layers) {
  const std::size_t per_client = options.smoke ? 10 : 250;
  std::vector<std::vector<double>> submit_us(kClients), wait_ms(kClients);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t n = 0; n < per_client; ++n) {
        const auto spec = make_spec(mix(options.seed, 0xD1EC7), c, n);
        const auto root = tracer.next_id();
        const auto t0 = now_ns();
        const auto id = svc.submit_tracked(spec);
        const auto t1 = now_ns();
        const auto job = svc.tracked(id);
        tally.attempted.fetch_add(1);
        if (!job) {
          tally.fail("tracked session " + std::to_string(id) + " vanished");
          continue;
        }
        const auto& result = job->future.get();
        const auto ready = now_ns();
        if (result.status != service::SessionStatus::kCompleted) {
          tally.fail("direct session " + std::string(to_string(result.status)));
          continue;
        }
        const auto wall = static_cast<std::int64_t>(result.wall_ms * 1e6);
        const auto exec_start = std::max(t1, ready - wall);
        submit_us[c].push_back(1e-3 * static_cast<double>(t1 - t0));
        wait_ms[c].push_back(1e-6 * static_cast<double>(exec_start - t1));
        tracer.record({"service.session", root, root, 0, t0, ready});
        tracer.record({"service.submit", root, tracer.next_id(), root, t0, t1});
        tracer.record({"service.queue_wait", root, tracer.next_id(), root, t1, exec_start});
        tracer.record({"service.exec", root, tracer.next_id(), root, exec_start, ready});
      }
    });
  }
  for (auto& t : threads) t.join();
  std::vector<double> all_submit, all_wait;
  for (std::size_t c = 0; c < kClients; ++c) {
    all_submit.insert(all_submit.end(), submit_us[c].begin(), submit_us[c].end());
    all_wait.insert(all_wait.end(), wait_ms[c].begin(), wait_ms[c].end());
  }
  layers["service.submit_us"] = {median(all_submit), "us"};
  layers["service.queue_wait_ms"] = {median(all_wait), "ms"};
}

/// SessionLog's public calls on this run's own specs and results, in a
/// scratch directory at the default retain and checkpoint settings.
/// Bytes written per session come from the log's own stats around each
/// call: an append grows the file, a checkpoint rewrites all of it.
void session_log_probe(const std::vector<service::SessionResult>& results,
                       const RunOptions& options, Metrics& layers) {
  const auto dir = options.workdir + "/session-log-probe";
  std::filesystem::remove_all(dir);
  std::vector<double> submit_us, result_us, checkpoint_ms;
  double steady_bytes = 0.0;
  std::size_t steady_sessions = 0;
  {
    service::SessionLogOptions log_options;
    log_options.dir = dir;
    service::SessionLog log(log_options);
    // Cycle through the run's results (fresh ids) until the log is well
    // past the retain limit, so most records see the steady state.
    const std::size_t records =
        results.empty() ? 0 : (options.smoke ? results.size() : kLogProbeRecords);
    for (std::uint64_t id = 1; id <= records; ++id) {
      const auto& result = results[(id - 1) % results.size()];
      const auto before = log.stats();
      auto t0 = now_ns();
      log.record_submit(id, result.spec);
      submit_us.push_back(1e-3 * static_cast<double>(now_ns() - t0));
      t0 = now_ns();
      (void)log.record_result(id, result);
      result_us.push_back(1e-3 * static_cast<double>(now_ns() - t0));
      const auto after = log.stats();
      if (before.checkpoints > 0) {
        steady_bytes += static_cast<double>(
            after.checkpoints > before.checkpoints
                ? after.file_bytes
                : after.file_bytes - before.file_bytes);
        ++steady_sessions;
      }
    }
    for (int i = 0; i < 5; ++i) {
      const auto t0 = now_ns();
      (void)log.checkpoint();
      checkpoint_ms.push_back(1e-6 * static_cast<double>(now_ns() - t0));
    }
  }
  std::filesystem::remove_all(dir);
  layers["service.log_record_submit_us"] = {median(submit_us), "us"};
  layers["service.log_record_result_us"] = {median(result_us), "us"};
  layers["service.log_checkpoint_ms"] = {median(checkpoint_ms), "ms"};
  layers["io.journal_bytes_per_session"] = {
      steady_bytes / static_cast<double>(std::max<std::size_t>(steady_sessions, 1)),
      "count"};
}

/// Mean of true optimum / best found over the served sessions whose space
/// is small enough to sweep (the optimum comes from an exhaustive sweep
/// after the timed phase, outside every timing).
template <typename Logs>
double optimum_fraction(const Logs& logs) {
  io::DatasetRepository repo;
  std::map<std::pair<std::string, core::DeviceIndex>, double> optimum;
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& log : logs) {
    for (const auto& [key, bests] : log.best) {
      const auto bench = kernels::make(key.first);
      if (bench->space().cardinality() > kExhaustiveLimit) continue;
      auto it = optimum.find(key);
      if (it == optimum.end()) {
        it = optimum.emplace(key, repo.get(*bench, key.second)->best_time()).first;
      }
      for (const double b : bests) {
        sum += it->second / b;
        ++n;
      }
    }
  }
  return n ? sum / static_cast<double>(n) : 0.0;
}

}  // namespace

WorkloadResult run_serve(const RunOptions& options, bool durable) {
  Tracer tracer(options.traced);
  WorkloadResult out;
  double setup_s = 0.0;
  std::size_t instance = 0;
  auto state = timed_setups(
      options.setups,
      [&] { return set_up(options, durable, tracer, instance++); }, setup_s);
  auto& svc = *state->service;
  Tally tally;

  struct Sample {
    service::SessionSpec spec;
    std::string trace, best;
  };
  struct ClientLog {
    std::vector<double> latency_ms, parse_us, done_s;
    /// Best objective found, per (kernel, device), for optimum_fraction.
    std::map<std::pair<std::string, core::DeviceIndex>, std::vector<double>> best;
    std::vector<Sample> samples;
    std::size_t polls = 0;
    std::int64_t finished_ns = 0;
  };
  std::vector<ClientLog> logs(kClients);
  std::atomic<std::size_t> completed{0};
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> clients_done{0};
  const std::size_t rss_after = options.smoke ? 20
                                : durable     ? kRssAfterSessionsDurable
                                              : kRssAfterSessions;
  std::atomic<double> rss_mb{0.0};

  const auto start = now_ns();
  const auto deadline = start + static_cast<std::int64_t>(options.seconds * 1e9);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto& log = logs[c];
      try {
        net::HttpClient client("127.0.0.1", state->port);
        for (std::uint64_t n = 0; now_ns() < deadline && !stop.load(); ++n) {
          const auto spec = make_spec(options.seed, c, n);
          const auto root = tracer.next_id();
          const auto t0 = now_ns();
          tally.attempted.fetch_add(1);
          auto outcome = run_session(client, tracer, spec, tally, root);
          const auto t1 = now_ns();
          log.polls += outcome.polls;
          if (!outcome.ok) continue;
          tracer.record({"serve.session", root, root, 0, t0, t1});
          log.latency_ms.push_back(1e-6 * static_cast<double>(t1 - t0));
          log.done_s.push_back(1e-9 * static_cast<double>(t1 - start));
          log.parse_us.push_back(outcome.parse_us);
          if (const auto* best = outcome.done.at("result").find("best");
              best != nullptr && best->is_object()) {
            log.best[{spec.kernel, spec.device}].push_back(best->at("objective").as_double());
          }
          if (log.samples.size() < kSamplesPerClient &&
              (log.samples.empty() || mix(options.seed ^ 0x5A3, (c << 40) | n) % 64 == 0)) {
            const auto& result = outcome.done.at("result");
            log.samples.push_back(
                {spec, result.at("trace").dump(), result.at("best").dump()});
          }
          const auto total = completed.fetch_add(1) + 1;
          if (total == rss_after) rss_mb.store(peak_rss_mb());
          if (options.max_units != 0 && total >= options.max_units) stop.store(true);
        }
      } catch (const std::exception& e) {
        tally.fail(std::string("client ") + std::to_string(c) + ": " + e.what());
      }
      log.finished_ns = now_ns();
      clients_done.fetch_add(1);
    });
  }

  // Journal counters from the first checkpoint on: the steady state.
  service::DurabilityStats base{}, last{};
  std::size_t base_completed = 0;
  bool checkpointed = false;
  while (true) {
    const bool all_done = clients_done.load() == kClients;
    if (durable && !checkpointed) {
      const auto stats = svc.durability_stats();
      if (stats.checkpoints > 0) {
        checkpointed = true;
        base = stats;
        base_completed = completed.load();
      }
    }
    if (all_done) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (auto& t : clients) t.join();
  if (durable) last = svc.durability_stats();
  std::int64_t end = start;
  for (const auto& log : logs) end = std::max(end, log.finished_ns);
  const double elapsed = 1e-9 * static_cast<double>(end - start);
  if (rss_mb.load() == 0.0) rss_mb.store(peak_rss_mb());

  std::vector<double> latency, parse, done_s;
  std::size_t polls = 0;
  for (const auto& log : logs) {
    latency.insert(latency.end(), log.latency_ms.begin(), log.latency_ms.end());
    parse.insert(parse.end(), log.parse_us.begin(), log.parse_us.end());
    done_s.insert(done_s.end(), log.done_s.begin(), log.done_s.end());
    polls += log.polls;
  }

  // Output check: served trace and best equal an in-process run_inline.
  std::size_t verified = 0;
  for (const auto& log : logs) {
    for (const auto& sample : log.samples) {
      tally.attempted.fetch_add(1);
      const auto local = svc.run_inline(sample.spec);
      const auto json = service::to_json(local);
      if (local.status != service::SessionStatus::kCompleted ||
          json.at("trace").dump() != sample.trace ||
          json.at("best").dump() != sample.best) {
        tally.fail("served result differs from run_inline: " + sample.spec.kernel +
                   "/" + sample.spec.tuner + " seed " + std::to_string(sample.spec.seed));
      }
      ++verified;
    }
  }
  if (verified == 0) tally.fail("serve: no session was sampled for verification");

  out.e2e["setup_s"] = {setup_s, "s"};
  out.e2e["sessions_per_s"] = {throughput(done_s, elapsed), "1/s"};
  out.e2e["session_p50_ms"] = {windowed_quantile(latency, done_s, 0.5, elapsed), "ms"};
  out.e2e["session_p99_ms"] = {windowed_quantile(latency, done_s, 0.99, elapsed), "ms"};
  out.latency_samples = latency.size();
  out.e2e["peak_rss_mb"] = {rss_mb.load(), "MB"};
  out.e2e["optimum_fraction"] = {optimum_fraction(logs), "ratio"};
  out.root_span = "serve.session";
  out.root_metric = "session_p50_ms";

  if (options.traced) {
    const auto spans = tracer.spans();
    std::map<std::uint64_t, const Span*> by_id;
    for (const auto& s : spans) by_id[s.id] = &s;
    std::vector<double> handle_submit, handle_done, wire;
    for (const auto& s : spans) {
      if (std::string_view(s.name) != "api.handle") continue;
      const auto parent = by_id.find(s.parent);
      if (parent == by_id.end()) continue;
      const std::string_view kind = parent->second->name;
      if (kind == "net.submit") handle_submit.push_back(s.us());
      if (kind == "net.poll_done") handle_done.push_back(s.us());
      wire.push_back(parent->second->us() - s.us());
    }
    auto poll_rtt = durations_us(spans, "net.poll");
    const auto done_rtt = durations_us(spans, "net.poll_done");
    poll_rtt.insert(poll_rtt.end(), done_rtt.begin(), done_rtt.end());
    auto& layers = out.layers;
    layers["net.submit_rtt_us"] = {median(durations_us(spans, "net.submit")), "us"};
    layers["net.poll_rtt_us"] = {median(poll_rtt), "us"};
    layers["net.wire_us"] = {median(wire), "us"};
    layers["api.handle_submit_us"] = {median(handle_submit), "us"};
    layers["api.handle_done_us"] = {median(handle_done), "us"};
    layers["api.polls_per_session"] = {
        static_cast<double>(polls) / static_cast<double>(std::max<std::size_t>(latency.size(), 1)),
        "count"};
    layers["common.json_parse_us"] = {median(parse), "us"};
    layers["service.registry_sessions"] = {
        static_cast<double>(svc.tracked_sessions().size()), "count"};

    // Results still in the registry: service::to_json timing, and the
    // SessionLog probe's input.
    std::vector<service::SessionResult> results;
    const auto ids = svc.tracked_sessions();
    for (auto it = ids.rbegin(); it != ids.rend() && results.size() < 600; ++it) {
      if (!it->second) continue;
      if (const auto job = svc.tracked(it->first)) results.push_back(job->future.get());
    }
    std::reverse(results.begin(), results.end());
    std::vector<double> to_json_us;
    for (const auto& r : results) {
      const auto t0 = now_ns();
      const auto json = service::to_json(r);
      to_json_us.push_back(1e-3 * static_cast<double>(now_ns() - t0));
      if (!json.is_object()) tally.fail("to_json did not produce an object");
    }
    layers["service.result_to_json_us"] = {median(to_json_us), "us"};

    direct_phase(svc, options, tracer, tally, layers);
    if (durable) {
      const double sessions = static_cast<double>(
          std::max<std::size_t>(latency.size() - base_completed, 1));
      layers["io.journal_commits_per_session"] = {
          static_cast<double>(last.commits - base.commits) / sessions, "count"};
      layers["io.journal_checkpoints_per_session"] = {
          static_cast<double>(last.checkpoints - base.checkpoints) / sessions, "count"};
      std::fprintf(stderr,
                   "serve-durable: first checkpoint after %zu sessions; "
                   "steady window %.0f sessions, %llu checkpoints\n",
                   base_completed, sessions,
                   static_cast<unsigned long long>(last.checkpoints - base.checkpoints));
      session_log_probe(results, options, layers);
    }
    out.spans = tracer.spans();
  }

  out.attempted = tally.attempted.load();
  out.failed = tally.failed.load();
  out.failures = tally.messages();
  std::fprintf(stderr,
               "%s: %zu sessions in %.2f s, %zu polls, %zu verified, "
               "latency samples %zu\n",
               durable ? "serve-durable" : "serve", latency.size(), elapsed,
               polls, verified, latency.size());
  const auto journal_dir = state->journal_dir;
  state.reset();
  if (!journal_dir.empty()) std::filesystem::remove_all(journal_dir);
  return out;
}

}  // namespace perfbench
