// perfbench_driver: the in-process half of the repository benchmark
// (perfbench/run.py is the entry point and the serve client).  Each mode
// prints one JSON object on stdout and exits non-zero on a usage error.
//
//   perfbench_driver batch --workload figure_sweep|fleet_capping --seed S
//       --root DIR [--trace]
//     One repetition of a batch workload on one engine: set-up samples,
//     submit -> last-result wall time, per-point completion latencies, RSS,
//     engine counts and a result digest.  With --trace it also recomposes
//     every replica outside-in with each layer call timed, and checks the
//     recomposition against the library's replica runners and the engine.
//
//   perfbench_driver serve-check --lines FILE --events FILE [--store DIR]
//       [--trace]
//     Runs the serve request lines in-process and checks every streamed
//     result / node event against scenario_summary_metrics of the same
//     config; with --trace also times the spec, json, dag, framing and
//     store layers outside-in on the same lines.
//
// Engines run one worker per hardware thread.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/json.hpp"
#include "core/dag/dag.hpp"
#include "core/engine.hpp"
#include "core/obs/obs.hpp"
#include "core/scenario.hpp"
#include "core/spec.hpp"
#include "core/store/result_store.hpp"
#include "core/store/serve.hpp"
#include "layers.hpp"

namespace {

using gpupower::analysis::JsonValue;
using gpupower::core::CampaignPoint;
using gpupower::core::ExperimentEngine;
using gpupower::core::ScenarioConfig;
using gpupower::core::ScenarioHandle;
using gpupower::core::ScenarioResult;
using perfbench::LayerTally;
using perfbench::Recomposed;

/// Set-up samples per batch repetition (engine construction, spec parse
/// and campaign expansion, each on a fresh engine).
constexpr int kSetupReps = 5;

int worker_count() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::vector<std::string> read_lines(const std::string& path) {
  std::istringstream in(read_file(path));
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// A field of /proc/self/status in KiB (VmRSS, VmHWM); 0 if unreadable.
long status_kb(const char* field) {
  std::ifstream in("/proc/self/status");
  const std::string prefix = std::string(field) + ":";
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(prefix, 0) == 0) return std::atol(line.c_str() + prefix.size());
  }
  return 0;
}

JsonValue num(double v) { return JsonValue::number(v); }
JsonValue count(std::uint64_t v) {
  return JsonValue::integer(static_cast<long long>(v));
}
double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Runs fn(index, worker) for index in [0, n) on `workers` threads; the
/// first exception is rethrown after every thread has joined.
template <typename Fn>
void parallel_for(std::size_t n, int workers, Fn fn) {
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mutex;
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      try {
        for (std::size_t i = next++; i < n; i = next++) fn(i, w);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
        next = n;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (error) std::rethrow_exception(error);
}

// --- spec layer -------------------------------------------------------------

struct ParsedSpecs {
  std::vector<gpupower::core::ScenarioSpec> specs;
  std::vector<CampaignPoint> points;  ///< campaign points, in spec order
  double json_parse_s = 0.0;
  double spec_parse_s = 0.0;
};

ParsedSpecs parse_specs(const std::vector<std::string>& texts) {
  ParsedSpecs out;
  for (const std::string& text : texts) {
    const double t0 = now_s();
    const auto json = gpupower::analysis::json_parse(text);
    const double t1 = now_s();
    if (!json.ok) throw std::runtime_error("spec json: " + json.error);
    auto parsed = gpupower::core::parse_scenario_spec(json.value);
    if (!parsed.ok) throw std::runtime_error("spec: " + parsed.error);
    std::vector<CampaignPoint> points;
    std::string error;
    if (parsed.spec.campaign &&
        !gpupower::core::expand_campaign(parsed.spec, points, error)) {
      throw std::runtime_error("campaign: " + error);
    }
    const double t2 = now_s();
    out.json_parse_s += t1 - t0;
    out.spec_parse_s += t2 - t1;
    for (CampaignPoint& p : points) out.points.push_back(std::move(p));
    out.specs.push_back(std::move(parsed.spec));
  }
  return out;
}

// --- batch workloads --------------------------------------------------------

constexpr const char* kFigures[] = {"fig3a", "fig3b", "fig3c", "fig4a",
                                    "fig4b", "fig4c", "fig5a", "fig5b",
                                    "fig5c", "fig5d", "fig6a", "fig6b",
                                    "fig6c", "fig6d"};

/// figure_sweep: every paper figure sweep x {fp32, fp16, fp16t, int8} at
/// n=128, 1 seed, sampled (12 tiles, half of K), base seed = workload seed.
std::vector<std::string> figure_sweep_specs(unsigned long long seed) {
  std::vector<std::string> texts;
  for (const char* figure : kFigures) {
    char text[512];
    std::snprintf(
        text, sizeof text,
        R"({"scenario":"campaign","name":"%s","base":{"scenario":"static",)"
        R"("experiment":{"dtype":"fp16","n":128,"seeds":1,"base_seed":%llu,)"
        R"("sampling":{"tiles":12,"k_fraction":0.5}}},"axes":[)"
        R"({"field":"experiment.dtype","values":["fp32","fp16","fp16t","int8"]},)"
        R"({"field":"experiment.pattern","figure":"%s"}]})",
        figure, seed, figure);
    texts.emplace_back(text);
  }
  return texts;
}

/// fleet_capping: the committed spec with experiment.base_seed patched.
std::vector<std::string> fleet_capping_specs(const std::string& root,
                                             unsigned long long seed) {
  const auto doc = gpupower::analysis::json_parse(
      read_file(root + "/examples/specs/fleet_capping.json"));
  if (!doc.ok) throw std::runtime_error("fleet_capping.json: " + doc.error);
  JsonValue patched;
  std::string error;
  if (!gpupower::core::detail::set_spec_path(
          doc.value, "base.experiment.base_seed",
          JsonValue::integer(static_cast<long long>(seed)), patched, error)) {
    throw std::runtime_error("fleet_capping.json: " + error);
  }
  return {patched.dump()};
}

/// Compares each point's summary metrics with the committed BENCH_fleet.json
/// cases, at the committed document's 10 significant digits.
std::vector<std::string> check_bench_fleet(
    const std::string& root, const std::vector<CampaignPoint>& points,
    const std::vector<ScenarioHandle>& handles) {
  std::vector<std::string> errors;
  const auto doc =
      gpupower::analysis::json_parse(read_file(root + "/BENCH_fleet.json"));
  const JsonValue* cases = doc.ok ? doc.value.find("cases") : nullptr;
  if (cases == nullptr || cases->size() != points.size()) {
    return {"BENCH_fleet.json: case count differs from the campaign"};
  }
  for (std::size_t i = 0; i < cases->size(); ++i) {
    const JsonValue& c = cases->at(i);
    const std::string name = c.find("name")->as_string();
    const auto it = std::find_if(points.begin(), points.end(),
                                 [&](const CampaignPoint& p) {
                                   return p.label == name;
                                 });
    if (it == points.end()) {
      errors.push_back("BENCH_fleet.json case " + name + " not in campaign");
      continue;
    }
    const ScenarioResult& result =
        handles[static_cast<std::size_t>(it - points.begin())].get();
    const JsonValue* metrics = c.find("metrics");
    for (const auto& [metric, value] :
         gpupower::core::scenario_summary_metrics(result)) {
      const JsonValue* committed = metrics->find(metric);
      char rounded[64];
      std::snprintf(rounded, sizeof rounded, "%.10g", value);
      if (committed == nullptr ||
          std::strtod(rounded, nullptr) != committed->as_number()) {
        errors.push_back("BENCH_fleet.json " + name + "." + metric +
                         " differs: got " + rounded);
      }
    }
  }
  return errors;
}

struct EngineRun {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::vector<double> latency_ms;
  long rss_tenth_kb = 0;
  long rss_end_kb = 0;
  ParsedSpecs parsed;
  std::vector<ScenarioHandle> handles;
  gpupower::core::EngineStats stats;
};

/// Set-up (engine construction, spec parse, campaign expansion), then every
/// point submitted at once and waited for.  Completion latency is recorded
/// per point: the main thread blocks on the earliest unfinished handle and
/// sweeps the later ones for results that landed meanwhile.
EngineRun run_engine(const std::vector<std::string>& texts, int workers) {
  EngineRun run;
  const double t0 = now_s();
  ExperimentEngine engine(gpupower::core::EngineOptions::with_workers(workers));
  run.parsed = parse_specs(texts);
  const double t1 = now_s();
  run.setup_s = t1 - t0;

  const std::size_t n = run.parsed.points.size();
  for (const CampaignPoint& point : run.parsed.points) {
    run.handles.push_back(engine.submit(point.config));
  }
  run.latency_ms.assign(n, -1.0);
  std::size_t done = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (run.latency_ms[i] >= 0.0) continue;
    try {
      (void)run.handles[i].get();
    } catch (const std::exception&) {
      // Reported by the result checks below.
    }
    // Points finish nearly in submission order (FIFO queue), so the sweep
    // stops at the first one still running.
    const double t = (now_s() - t1) * 1e3;
    for (std::size_t j = i; j < n && (j == i || run.handles[j].ready()); ++j) {
      if (run.latency_ms[j] >= 0.0) continue;
      run.latency_ms[j] = t;
      if (++done == std::max<std::size_t>(1, n / 10)) {
        run.rss_tenth_kb = status_kb("VmRSS");
      }
    }
  }
  engine.wait_all();
  run.wall_s = now_s() - t1;
  run.rss_end_kb = status_kb("VmRSS");
  run.stats = engine.stats();
  return run;
}

/// canonical key -> exact result JSON, for every distinct point, as one
/// digest; unreadable results are reported in `errors`.
std::string result_digest(const EngineRun& run, double* dump_s,
                          std::vector<std::string>& errors) {
  std::map<std::string, std::string> by_key;
  const double t0 = now_s();
  for (std::size_t i = 0; i < run.handles.size(); ++i) {
    try {
      const ScenarioResult& result = run.handles[i].get();
      by_key[gpupower::core::canonical_scenario_key(run.handles[i].config())] =
          gpupower::core::scenario_result_to_json(result).dump();
    } catch (const std::exception& e) {
      errors.push_back(run.parsed.points[i].label + ": " + e.what());
    }
  }
  if (dump_s != nullptr) *dump_s = now_s() - t0;
  std::string all;
  for (const auto& [key, doc] : by_key) all += key + "\t" + doc + "\n";
  char hex[32];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(gpupower::core::fnv1a64(all)));
  return hex;
}

JsonValue engine_counts(const gpupower::core::EngineStats& s,
                        std::size_t points) {
  JsonValue out = JsonValue::object();
  out.set("engine.submitted", count(s.submitted))
      .set("engine.cache_hits", count(s.cache_hits))
      .set("engine.jobs_computed", count(s.jobs_computed))
      .set("engine.replicas_run", count(s.replicas_run))
      .set("store.hits", count(s.store_hits))
      .set("store.writes", count(s.store_writes))
      .set("spec.points", count(points));
  return out;
}

/// A serve result event for one point, framed exactly as serve frames it.
std::string frame_event(const std::string& label, const ScenarioConfig& config,
                        const ScenarioResult& result) {
  JsonValue doc = JsonValue::object();
  doc.set("type", JsonValue::string("result"))
      .set("req", JsonValue::integer(1))
      .set("point", JsonValue::string(label))
      .set("scenario", JsonValue::string(gpupower::core::name(config.kind())));
  JsonValue metrics = JsonValue::object();
  for (const auto& [metric, value] :
       gpupower::core::scenario_summary_metrics(result)) {
    metrics.set(metric, JsonValue::number(value));
  }
  doc.set("metrics", std::move(metrics));
  return doc.dump();
}

struct TraceOut {
  LayerTally tally;
  double traced_wall_s = 0.0;
  std::size_t distinct_activity = 0;
  std::vector<std::string> errors;
};

/// Recomposes every replica of every distinct config outside-in on
/// `workers` threads (timed), then checks the recomposition against the
/// library's replica runners and against `results` (untimed).
TraceOut trace_replicas(const std::vector<ScenarioConfig>& configs,
                        const std::vector<const ScenarioResult*>& results,
                        int workers) {
  TraceOut out;
  struct Task {
    std::size_t config;
    int seed;
  };
  std::vector<Task> tasks;
  std::set<std::string> activity;
  for (std::size_t c = 0; c < configs.size(); ++c) {
    for (int s = 0; s < configs[c].seeds(); ++s) {
      tasks.push_back({c, s});
      for (std::string& key : perfbench::activity_keys(configs[c], s)) {
        activity.insert(std::move(key));
      }
    }
  }
  out.distinct_activity = activity.size();

  std::vector<Recomposed> replicas(tasks.size());
  std::vector<LayerTally> tallies(static_cast<std::size_t>(workers));
  const double t0 = now_s();
  parallel_for(tasks.size(), workers, [&](std::size_t i, int w) {
    replicas[i] = perfbench::recompose_replica(
        configs[tasks[i].config], tasks[i].seed,
        tallies[static_cast<std::size_t>(w)]);
  });
  out.traced_wall_s = now_s() - t0;
  for (const LayerTally& t : tallies) out.tally.merge(t);

  // The check pass runs the library's own replicas on the same threads;
  // it times them as the closure reference (LayerTally::replica_ns).
  std::vector<std::string> problems(tasks.size());
  std::vector<LayerTally> checked(static_cast<std::size_t>(workers));
  parallel_for(tasks.size(), workers, [&](std::size_t i, int w) {
    problems[i] = perfbench::check_replica(
        configs[tasks[i].config], tasks[i].seed, replicas[i],
        checked[static_cast<std::size_t>(w)]);
  });
  for (const LayerTally& t : checked) out.tally.merge(t);
  for (std::string& p : problems) {
    if (!p.empty()) out.errors.push_back(std::move(p));
  }
  std::size_t at = 0;
  for (std::size_t c = 0; c < configs.size(); ++c) {
    const auto seeds = static_cast<std::size_t>(configs[c].seeds());
    const std::vector<Recomposed> mine(
        replicas.begin() + static_cast<std::ptrdiff_t>(at),
        replicas.begin() + static_cast<std::ptrdiff_t>(at + seeds));
    at += seeds;
    const ScenarioResult reduced = perfbench::reduce_recomposed(configs[c], mine);
    if (gpupower::core::scenario_result_to_json(reduced).dump() !=
        gpupower::core::scenario_result_to_json(*results[c]).dump()) {
      out.errors.push_back("recomposed result differs from the engine's for " +
                           gpupower::core::canonical_scenario_key(configs[c]));
    }
  }
  return out;
}

void add_layers(JsonValue& layers, const TraceOut& trace) {
  const LayerTally& t = trace.tally;
  for (int i = 0; i < perfbench::kLayerCount; ++i) {
    layers.set(std::string(perfbench::kLayerNames[i]) + "_ms", num(ms(t.ns[i])));
  }
  layers.set("replica_ms", num(ms(t.replica_ns)))
      .set("replicas", count(t.replicas))
      .set("inputs.builds", count(t.builds))
      .set("activity.calls", count(t.activity_calls))
      .set("activity.tiles_walked", count(t.tiles_walked))
      .set("activity.distinct", count(trace.distinct_activity))
      .set("telemetry.samples", count(t.samples))
      .set("dvfs.slices", count(t.slices))
      .set("traced_wall_s", num(trace.traced_wall_s));
}

/// Distinct configs among handles (first occurrence order) and their
/// engine results.
void distinct_results(const std::vector<ScenarioHandle>& handles,
                      std::vector<ScenarioConfig>& configs,
                      std::vector<const ScenarioResult*>& results) {
  std::set<std::string> seen;
  for (const ScenarioHandle& h : handles) {
    if (seen.insert(gpupower::core::canonical_scenario_key(h.config())).second) {
      configs.push_back(h.config());
      results.push_back(&h.get());
    }
  }
}

int cmd_batch(const std::string& workload, unsigned long long seed,
              const std::string& root, bool trace) {
  const int workers = worker_count();
  std::vector<std::string> texts;
  if (workload == "figure_sweep") {
    texts = figure_sweep_specs(seed);
  } else if (workload == "fleet_capping") {
    texts = fleet_capping_specs(root, seed);
  } else {
    std::fprintf(stderr, "perfbench_driver: unknown batch workload %s\n",
                 workload.c_str());
    return 2;
  }

  JsonValue out = JsonValue::object();
  JsonValue setup = JsonValue::array();
  // Extra set-up samples first: engine construction, parse and expansion,
  // each on a fresh engine that is torn down again.
  for (int i = 1; i < kSetupReps; ++i) {
    const double t0 = now_s();
    {
      ExperimentEngine engine(
          gpupower::core::EngineOptions::with_workers(workers));
      (void)parse_specs(texts);
      setup.push(num(now_s() - t0));
    }
  }

  const EngineRun run = run_engine(texts, workers);
  setup.push(num(run.setup_s));
  std::vector<std::string> errors;
  double dump_s = 0.0;
  const std::string digest = result_digest(run, &dump_s, errors);
  if (workload == "fleet_capping" && seed == 42 && errors.empty()) {
    for (std::string& e : check_bench_fleet(root, run.parsed.points, run.handles)) {
      errors.push_back(std::move(e));
    }
  }

  JsonValue latency = JsonValue::array();
  for (double l : run.latency_ms) latency.push(num(l));
  out.set("setup_s", std::move(setup))
      .set("wall_s", num(run.wall_s))
      .set("latency_ms", std::move(latency))
      .set("rss_tenth_kb", JsonValue::integer(run.rss_tenth_kb))
      .set("rss_end_kb", JsonValue::integer(run.rss_end_kb))
      .set("points", count(run.parsed.points.size()))
      .set("workers", JsonValue::integer(workers))
      .set("digest", JsonValue::string(digest))
      .set("counts", engine_counts(run.stats, run.parsed.points.size()));

  if (trace && errors.empty()) {
    JsonValue layers = JsonValue::object();
    // Engine pass with the metrics switch on: queue-wait, reduce and
    // compute seconds come from the engine's own stats().
    gpupower::core::obs::set_metrics_enabled(true);
    const EngineRun metered = run_engine(texts, workers);
    gpupower::core::obs::set_metrics_enabled(false);
    std::vector<std::string> metered_errors;
    if (result_digest(metered, nullptr, metered_errors) != digest) {
      errors.push_back("results with the metrics switch on differ");
    }
    const auto& s = metered.stats;
    layers.set("engine.queue_wait_ms", num(s.queue_wait_seconds * 1e3))
        .set("engine.reduce_ms", num(s.reduce_seconds * 1e3))
        .set("engine.worker_busy_frac",
             num(s.compute_seconds / (workers * metered.wall_s)))
        .set("spec.parse_ms", num(run.parsed.spec_parse_s * 1e3))
        .set("json.parse_ms", num(run.parsed.json_parse_s * 1e3))
        .set("json.dump_ms", num(dump_s * 1e3))
        .set("untraced_wall_s", num(run.wall_s));

    std::vector<ScenarioConfig> configs;
    std::vector<const ScenarioResult*> results;
    distinct_results(run.handles, configs, results);
    const TraceOut traced = trace_replicas(configs, results, workers);
    for (const std::string& e : traced.errors) errors.push_back(e);
    add_layers(layers, traced);

    const double f0 = now_s();
    for (std::size_t i = 0; i < run.handles.size(); ++i) {
      (void)frame_event(run.parsed.points[i].label, run.handles[i].config(),
                        run.handles[i].get());
    }
    layers.set("serve.frame_ms", num((now_s() - f0) * 1e3));
    out.set("layers", std::move(layers));
  }

  JsonValue errs = JsonValue::array();
  for (const std::string& e : errors) errs.push(JsonValue::string(e));
  out.set("errors", std::move(errs));
  out.set("peak_rss_kb", JsonValue::integer(status_kb("VmHWM")));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

// --- serve ------------------------------------------------------------------

using MetricRows = std::vector<std::pair<std::string, double>>;

/// One request's expected events: point label -> summary metrics (result
/// events), or node -> (label -> metrics) for dag node events, plus the
/// result document of each reduce / search node.
struct Expected {
  std::map<std::string, MetricRows> results;
  std::map<std::string, std::map<std::string, MetricRows>> nodes;
  std::map<std::string, std::string> node_docs;
};

std::string compare_metrics(const MetricRows& want, const JsonValue* got) {
  if (got == nullptr || got->size() != want.size()) return "metric set differs";
  for (const auto& [metric, value] : want) {
    const JsonValue* v = got->find(metric);
    if (v == nullptr || v->as_number() != value) return metric + " differs";
  }
  return {};
}

/// A string member of an event, or "" when absent: events come from the
/// program under test, so their shape is checked, not assumed.
std::string text_of(const JsonValue& e, const char* key) {
  const JsonValue* v = e.find(key);
  return v != nullptr && v->is_string() ? v->as_string() : std::string();
}

/// Checks one request's streamed events against the in-process results.
std::string check_request(const Expected& want,
                          const std::vector<JsonValue>& events) {
  std::size_t accepted = 0, done = 0, results = 0, nodes = 0;
  for (const JsonValue& e : events) {
    const std::string type = text_of(e, "type");
    if (type == "accepted") {
      ++accepted;
    } else if (type == "done") {
      ++done;
    } else if (type == "error") {
      return "error event: " + text_of(e, "error");
    } else if (type == "result") {
      ++results;
      const auto it = want.results.find(text_of(e, "point"));
      if (it == want.results.end()) return "unexpected result point";
      const std::string problem = compare_metrics(it->second, e.find("metrics"));
      if (!problem.empty()) return it->first + ": " + problem;
    } else if (type == "node") {
      ++nodes;
      const auto it = want.nodes.find(text_of(e, "node"));
      if (it == want.nodes.end()) return "unexpected node event";
      const JsonValue* points = e.find("points");
      if (points == nullptr || points->size() != it->second.size()) {
        return it->first + ": point count";
      }
      for (std::size_t i = 0; i < points->size(); ++i) {
        const auto p = it->second.find(text_of(points->at(i), "label"));
        if (p == it->second.end()) return it->first + ": unexpected point";
        const std::string problem =
            compare_metrics(p->second, points->at(i).find("metrics"));
        if (!problem.empty()) return it->first + "/" + p->first + ": " + problem;
      }
      const auto doc = want.node_docs.find(it->first);
      const JsonValue* result = e.find("result");
      if ((doc == want.node_docs.end()) != (result == nullptr) ||
          (result != nullptr && result->dump() != doc->second)) {
        return it->first + ": node result differs";
      }
    }
  }
  if (accepted != 1 || done != 1) return "missing accepted/done event";
  if (results != want.results.size() || nodes != want.nodes.size()) {
    return "missing result events";
  }
  return {};
}

int cmd_serve_check(const std::string& lines_path,
                    const std::string& events_path,
                    const std::string& store_dir, bool trace) {
  const int workers = worker_count();
  const std::vector<std::string> lines = read_lines(lines_path);
  std::vector<std::vector<JsonValue>> events(lines.size());
  for (const std::string& line : read_lines(events_path)) {
    const std::size_t tab = line.find('\t');
    const std::size_t index = std::stoul(line.substr(0, tab));
    const auto doc = gpupower::analysis::json_parse(line.substr(tab + 1));
    if (!doc.ok || index >= lines.size()) {
      throw std::runtime_error("malformed event line");
    }
    events[index].push_back(doc.value);
  }

  ExperimentEngine engine(gpupower::core::EngineOptions::with_workers(workers));
  std::vector<Expected> want(lines.size());
  std::vector<std::vector<std::pair<std::string, ScenarioHandle>>> submitted(
      lines.size());
  std::vector<const gpupower::core::dag::DagSpec*> dags(lines.size(), nullptr);
  double json_parse_s = 0.0, spec_parse_s = 0.0;
  std::size_t points = 0, dag_nodes = 0;

  std::vector<gpupower::core::ScenarioSpec> specs;
  specs.reserve(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const double a = now_s();
    const auto json = gpupower::analysis::json_parse(lines[i]);
    const double b = now_s();
    auto parsed = gpupower::core::parse_scenario_spec(json.value);
    std::vector<CampaignPoint> expanded;
    std::string error;
    if (!json.ok || !parsed.ok ||
        (parsed.spec.campaign &&
         !gpupower::core::expand_campaign(parsed.spec, expanded, error))) {
      throw std::runtime_error("request line " + std::to_string(i) +
                               " does not parse");
    }
    json_parse_s += b - a;
    spec_parse_s += now_s() - b;
    specs.push_back(std::move(parsed.spec));
    const auto& spec = specs.back();
    if (spec.dag) {
      dags[i] = spec.dag.get();
      dag_nodes += spec.dag->nodes.size();
    } else if (spec.campaign) {
      for (CampaignPoint& p : expanded) {
        submitted[i].emplace_back(p.label, engine.submit(p.config));
      }
    } else {
      submitted[i].emplace_back(std::string(gpupower::core::name(spec.config.kind())),
                                engine.submit(spec.config));
    }
  }
  std::vector<ScenarioHandle> all_handles;
  std::vector<std::string> all_labels;
  std::vector<gpupower::core::dag::DagRun> dag_runs(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (dags[i] != nullptr) {
      std::string error;
      if (!gpupower::core::dag::run_dag(engine, *dags[i], dag_runs[i], error)) {
        throw std::runtime_error("dag line " + std::to_string(i) + ": " + error);
      }
    }
  }
  engine.wait_all();

  for (std::size_t i = 0; i < lines.size(); ++i) {
    for (const auto& [label, handle] : submitted[i]) {
      want[i].results[label] =
          gpupower::core::scenario_summary_metrics(handle.get());
      all_handles.push_back(handle);
      all_labels.push_back(label);
      ++points;
    }
    for (const auto& node : dag_runs[i].nodes) {
      auto& rows = want[i].nodes[node.name];
      for (const auto& p : node.points) {
        rows[p.label] = gpupower::core::scenario_summary_metrics(p.result);
        ++points;
      }
      if (node.kind == gpupower::core::dag::DagNodeKind::kReduce ||
          node.kind == gpupower::core::dag::DagNodeKind::kSearch) {
        want[i].node_docs[node.name] = node.doc.dump();
      }
    }
  }

  JsonValue failures = JsonValue::array();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string problem = check_request(want[i], events[i]);
    if (!problem.empty()) {
      failures.push(JsonValue::string("request " + std::to_string(i) + ": " +
                                      problem));
    }
  }

  JsonValue out = JsonValue::object();
  out.set("requests", count(lines.size()))
      .set("failures", std::move(failures))
      .set("spec.points", count(points))
      .set("dag.nodes", count(dag_nodes));

  if (trace) {
    JsonValue layers = JsonValue::object();
    layers.set("json.parse_ms", num(json_parse_s * 1e3))
        .set("spec.parse_ms", num(spec_parse_s * 1e3));

    // dag layer: the same dags again on the now-warm engine, so every point
    // is a cache hit and what remains is parse-free scheduling, $ref
    // substitution and reduction.
    const double d0 = now_s();
    for (const auto* dag : dags) {
      if (dag == nullptr) continue;
      gpupower::core::dag::DagRun again;
      std::string error;
      if (!gpupower::core::dag::run_dag(engine, *dag, again, error)) {
        throw std::runtime_error("dag rerun: " + error);
      }
    }
    layers.set("dag.overhead_ms", num((now_s() - d0) * 1e3));

    std::vector<ScenarioConfig> configs;
    std::vector<const ScenarioResult*> results;
    distinct_results(all_handles, configs, results);
    std::set<std::string> seen;
    for (const ScenarioConfig& c : configs) {
      seen.insert(gpupower::core::canonical_scenario_key(c));
    }
    for (const auto& run : dag_runs) {
      for (const auto& node : run.nodes) {
        for (const auto& p : node.points) {
          if (seen.insert(gpupower::core::canonical_scenario_key(p.config)).second) {
            configs.push_back(p.config);
            results.push_back(&p.result);
          }
        }
      }
    }
    // The untraced reference for the recomposition: the same distinct
    // configs through a fresh engine.
    {
      ExperimentEngine fresh(gpupower::core::EngineOptions::with_workers(workers));
      const double e0 = now_s();
      for (const ScenarioConfig& c : configs) (void)fresh.submit(c);
      fresh.wait_all();
      layers.set("untraced_wall_s", num(now_s() - e0));
    }
    const TraceOut traced = trace_replicas(configs, results, workers);
    add_layers(layers, traced);

    const double f0 = now_s();
    for (std::size_t i = 0; i < all_handles.size(); ++i) {
      (void)frame_event(all_labels[i], all_handles[i].config(),
                        all_handles[i].get());
    }
    const double f1 = now_s();
    for (const ScenarioResult* r : results) {
      (void)gpupower::core::scenario_result_to_json(*r).dump();
    }
    layers.set("serve.frame_ms", num((f1 - f0) * 1e3))
        .set("json.dump_ms", num((now_s() - f1) * 1e3));

    if (!store_dir.empty()) {
      std::vector<double> opens;
      for (int i = 0; i < 5; ++i) {
        const double o0 = now_s();
        const gpupower::core::ResultStore store(
            gpupower::core::StoreOptions{store_dir, 0});
        opens.push_back(now_s() - o0);
      }
      std::sort(opens.begin(), opens.end());
      layers.set("store.open_ms", num(opens[opens.size() / 2] * 1e3));
    }
    JsonValue errs = JsonValue::array();
    for (const std::string& e : traced.errors) errs.push(JsonValue::string(e));
    out.set("trace_errors", std::move(errs));
    out.set("layers", std::move(layers));
  }
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench_driver batch|serve-check ...\n");
    return 2;
  }
  const std::string mode = argv[1];
  std::map<std::string, std::string> opt;
  bool trace = false;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--trace") {
      trace = true;
    } else if (flag.rfind("--", 0) == 0 && i + 1 < argc) {
      opt[flag.substr(2)] = argv[++i];
    } else {
      std::fprintf(stderr, "perfbench_driver: bad argument %s\n", flag.c_str());
      return 2;
    }
  }
  try {
    if (mode == "batch") {
      return cmd_batch(opt["workload"], std::stoull(opt["seed"]), opt["root"],
                       trace);
    }
    if (mode == "serve-check") {
      return cmd_serve_check(opt["lines"], opt["events"], opt["store"], trace);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "perfbench_driver: unknown mode %s\n", mode.c_str());
  return 2;
}
