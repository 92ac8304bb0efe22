// gpowerctl — dcgmi/nvidia-smi-flavoured command-line front end for the
// simulator: list the modelled GPUs, run one experiment or a paper figure
// sweep, replay DVFS / fleet timelines, execute declarative specs, and
// serve them to concurrent clients.  The verbs are the rows of `kVerbs`
// and the flags the rows of `kFlags` (bottom of this file); `parse_args`,
// `usage()` and `main`'s dispatch all read those two tables, and a flag
// whose row does not list the verb exits 2.  sweep/dvfs/fleet are
// spec-building shims: the flags assemble a spec (printed by --emit-spec)
// that runs through the same path as `gpowerctl run`.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "analysis/json.hpp"
#include "analysis/table.hpp"
#include "bench/fig_harness.hpp"
#include "core/config_builder.hpp"
#include "core/config_fields.hpp"
#include "core/dag/dag.hpp"
#include "core/dvfs_experiment.hpp"
#include "core/engine.hpp"
#include "core/env.hpp"
#include "core/experiment.hpp"
#include "core/figures.hpp"
#include "core/obs/obs.hpp"
#include "core/pattern_dsl.hpp"
#include "core/power_model.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
#include "core/spec.hpp"
#include "core/store/result_store.hpp"
#include "core/store/serve.hpp"
#include "telemetry/nvml.hpp"
#include "telemetry/sampler.hpp"
#include "tools/bench_export.hpp"

namespace {

using namespace gpupower;

/// The parsed command line.  Each flag sets one member, named by its row
/// in `kFlags`.
struct Options {
  int gpu_index = 0;
  std::optional<numeric::DType> dtype;  ///< unset: fp16 (sweep: all four)
  std::string pattern = "gaussian()";
  std::optional<core::FigureId> figure;
  core::BenchEnv env;
  bool csv = false;
  bool json = false;
  // dvfs command knobs
  std::string timeline = "burst(period=0.2, duty=30%, high=100%, low=5%, dur=2)";
  std::string governor = "utilization(up=80%, down=30%)";
  double slice_s = 0.01;
  int pstates = 5;
  // fleet command knobs
  int devices = 4;
  std::optional<double> cap_w;  ///< unset = uncapped
  std::string allocator = "proportional";
  bool thermal = false;
  // spec front end (run/validate, and the sweep/dvfs/fleet shims)
  std::string spec_path;  ///< positional <spec.json> of run/validate
  std::string bench_out;  ///< campaign bench-document output path
  bool emit_spec = false; ///< sweep/dvfs/fleet: print the spec and exit
  bool expand = false;    ///< validate: print expanded points / node order
  // serve command knobs
  std::string socket_path;   ///< serve: Unix socket instead of stdin
  bool full_results = false; ///< serve: attach full result docs to events
  int stats_every = 0;       ///< serve: stats event every N results (0 = off)
  // top command knobs (--socket doubles as the poll target)
  std::string metrics_file;  ///< top: re-read a metrics JSON document
  int top_interval_ms = 1000;///< top: poll interval
  int top_count = 0;         ///< top: number of polls; 0 = until ctrl-c
  bool plain = false;        ///< top: no ANSI clear, append frames instead
  // observability (flags win over GPUPOWER_TRACE / GPUPOWER_METRICS)
  std::string trace_out;     ///< Chrome-trace JSON output path
  std::string metrics_out;   ///< metrics_json() output path (run commands)

  [[nodiscard]] numeric::DType dtype_or_fp16() const {
    return dtype.value_or(numeric::DType::kFP16);
  }
};

constexpr gpusim::GpuModel kGpuByIndex[] = {
    gpusim::GpuModel::kA100PCIe, gpusim::GpuModel::kH100SXM,
    gpusim::GpuModel::kV100SXM2, gpusim::GpuModel::kRTX6000};

bool parse_pattern_or_die(const Options& opts, core::PatternSpec& spec) {
  const auto parsed = core::parse_pattern(opts.pattern);
  if (!parsed.ok) {
    std::fprintf(stderr, "pattern error at offset %zu: %s\n",
                 parsed.error_pos, parsed.error.c_str());
    return false;
  }
  spec = parsed.spec;
  return true;
}

int cmd_discovery(const Options&) {
  analysis::Table table(
      {"idx", "name", "TDP (W)", "memory", "SMs", "boost (MHz)"});
  for (unsigned i = 0; i < 4; ++i) {
    const auto& dev = gpusim::device(kGpuByIndex[i]);
    table.add_row({std::to_string(i), std::string(dev.name),
                   analysis::fixed(dev.tdp_w, 0),
                   std::string(gpusim::name(dev.memory)),
                   std::to_string(dev.sm_count),
                   analysis::fixed(dev.boost_clock_ghz * 1000.0, 0)});
  }
  table.print(std::cout);
  return 0;
}

core::ExperimentConfig make_config(const Options& opts,
                                   const core::PatternSpec& spec) {
  const auto builder = core::ExperimentConfigBuilder()
                           .gpu(kGpuByIndex[opts.gpu_index])
                           .dtype(opts.dtype_or_fp16())
                           .pattern(spec)
                           .env(opts.env);
  // Out-of-range --n/--seeds/--tiles/--kfrac values surface here.
  if (!builder.valid()) {
    std::fprintf(stderr, "gpowerctl: %s\n", builder.error().c_str());
    std::exit(2);
  }
  return builder.build();
}

core::ExperimentEngine make_engine(const Options& opts) {
  core::EngineOptions options;
  options.workers = opts.env.workers;
  // The persistent store rides on the env knobs so every engine-backed
  // verb (run, serve, sweep, ...) shares one wiring: memory cache ->
  // store -> compute, write-back on completion.
  const core::StoreEnv store_env = core::read_store_env();
  if (store_env.enabled) {
    options.store = std::make_shared<core::ResultStore>(
        core::StoreOptions{store_env.dir, store_env.max_bytes});
  }
  return core::ExperimentEngine(options);
}

int cmd_dmon(const Options& opts) {
  core::PatternSpec spec;
  if (!parse_pattern_or_die(opts, spec)) return 1;
  const auto config = make_config(opts, spec);

  // Single-replica run so the sample stream is concrete, then the full
  // multi-seed summary.
  gpusim::SimOptions sim_options;
  sim_options.sampling = config.sampling;
  const gpusim::GpuSimulator sim(config.gpu, sim_options);
  const auto problem =
      gemm::GemmProblem{config.n, config.n, config.n, 1.0f, 0.0f,
                        spec.transpose_b};
  telemetry::SamplerConfig sampler;
  const gpusim::PowerReport report =
      core::with_storage_type(config.dtype, [&](auto storage) {
        const auto in = core::build_inputs<typename decltype(storage)::type>(
            spec, config.dtype, config.n, 42);
        return sim.run_gemm(problem, config.dtype, in.a, in.b);
      });
  const auto trace =
      telemetry::sample_run(report, config.effective_iterations(), sampler);

  std::printf("# gpowerctl dmon: %s, %s, pattern: %s\n",
              std::string(gpusim::name(config.gpu)).c_str(),
              std::string(numeric::name(config.dtype)).c_str(),
              core::to_dsl(spec).c_str());
  std::printf("#  t(s)   power(W)\n");
  const std::size_t stride = std::max<std::size_t>(1, trace.size() / 20);
  for (std::size_t i = 0; i < trace.size(); i += stride) {
    std::printf("  %6.2f  %8.2f\n", trace.samples()[i].t_s,
                trace.samples()[i].power_w);
  }
  // One experiment, immediately waited on: the serial one-shot path —
  // sweeps and training batches go through the engine.
  const auto result = core::run_experiment(config);
  std::printf(
      "\nsummary (%d seeds, first %.0f ms trimmed):\n"
      "  power        %.2f W (std %.2f)\n"
      "  iteration    %.3f ms   energy/iter %.4f J\n"
      "  clock        %.0f%%%s   alignment %.3f   weight %.3f\n",
      result.seeds, sampler.warmup_trim_s * 1000.0, result.power_w,
      result.power_std_w, result.iteration_s * 1e3, result.energy_per_iter_j,
      result.clock_frac * 100.0, result.throttled ? " (THROTTLED)" : "",
      result.alignment, result.weight_fraction);
  return 0;
}

core::DataFeatures features_for(const core::PatternSpec& spec,
                                numeric::DType dtype, std::size_t n) {
  return core::with_storage_type(dtype, [&](auto storage) {
    const auto in = core::build_inputs<typename decltype(storage)::type>(
        spec, dtype, n, 42);
    return core::extract_features(in.a, in.b);
  });
}

int cmd_features(const Options& opts) {
  core::PatternSpec spec;
  if (!parse_pattern_or_die(opts, spec)) return 1;
  const core::DataFeatures features =
      features_for(spec, opts.dtype_or_fp16(), opts.env.n);
  std::printf("pattern: %s\n", core::to_dsl(spec).c_str());
  std::printf("  weight_fraction       %.4f\n", features.weight_fraction);
  std::printf("  neighbor_toggles      %.4f\n", features.neighbor_toggles);
  std::printf("  alignment             %.4f\n", features.alignment);
  std::printf("  zero_fraction         %.4f\n", features.zero_fraction);
  std::printf("  significand_activity  %.4f\n", features.significand_activity);
  std::printf("  exponent_weight       %.4f\n", features.exponent_weight);
  return 0;
}

int cmd_predict(const Options& opts) {
  core::PatternSpec spec;
  if (!parse_pattern_or_die(opts, spec)) return 1;
  const numeric::DType dtype = opts.dtype_or_fp16();

  // Train on a few representative sweeps at the configured size; the whole
  // training set runs batched on the engine (sweep points shared between
  // figures — e.g. each sweep's baseline column — are computed once).
  std::printf("training input-dependent power model (%s, n=%zu)...\n",
              std::string(numeric::name(dtype)).c_str(), opts.env.n);
  core::ExperimentEngine engine = make_engine(opts);
  auto training_base = make_config(opts, core::baseline_gaussian_spec());
  training_base.seeds = 1;
  std::vector<std::pair<core::SweepPoint, core::ScenarioHandle>> training;
  for (const auto fig :
       {core::FigureId::kFig3bDistributionMean,
        core::FigureId::kFig5bSortedAligned, core::FigureId::kFig6aSparsity,
        core::FigureId::kFig4bLsbRandomized, core::FigureId::kFig6cLsbZeroed}) {
    for (const core::SweepPoint& point : core::figure_sweep(fig)) {
      core::ExperimentConfig config = training_base;
      config.pattern = point.spec;
      training.emplace_back(point, engine.submit(std::move(config)));
    }
  }
  const auto measured_handle = engine.submit(make_config(opts, spec));
  engine.wait_all();

  std::vector<core::PowerSample> samples;
  for (const auto& [point, handle] : training) {
    core::PowerSample sample;
    sample.power_w = handle.get().static_result().power_w;
    sample.features = features_for(point.spec, dtype, opts.env.n);
    samples.push_back(sample);
  }
  const auto model = core::InputDependentPowerModel::fit(samples);
  const auto stats = engine.stats();
  std::printf("trained on %zu samples (%llu simulated, %llu cache hits), "
              "R^2 = %.3f\n",
              samples.size(),
              static_cast<unsigned long long>(stats.jobs_computed),
              static_cast<unsigned long long>(stats.cache_hits),
              model.r2(samples));

  const double predicted =
      model.predict(features_for(spec, dtype, opts.env.n));
  const auto& measured = measured_handle.get().static_result();
  std::printf("pattern:   %s\n", core::to_dsl(spec).c_str());
  std::printf("predicted: %.2f W (no kernel walk)\n", predicted);
  std::printf("simulated: %.2f W (error %+.2f W)\n", measured.power_w,
              predicted - measured.power_w);
  return 0;
}

// --- spec front end ---------------------------------------------------------

int spec_error(const std::string& message) {
  std::fprintf(stderr, "gpowerctl: %s\n", message.c_str());
  return 2;
}

/// Metric columns of a campaign table / bench document, per scenario kind.
std::vector<std::string> kind_metric_headers(core::ScenarioKind kind) {
  switch (kind) {
    case core::ScenarioKind::kStatic:
      return {"power (W)", "std (W)", "iter (ms)", "energy/iter (J)"};
    case core::ScenarioKind::kDvfs:
      return {"energy (J)", "avg W", "completion (s)", "max backlog (ms)"};
    case core::ScenarioKind::kFleet:
      return {"energy (J)", "avg W", "completion (s)", "max backlog (ms)",
              "p99 backlog (ms)"};
  }
  return {};
}

std::vector<double> kind_metric_values(const core::ScenarioResult& result) {
  switch (result.kind()) {
    case core::ScenarioKind::kStatic: {
      const core::ExperimentResult& r = result.static_result();
      return {r.power_w, r.power_std_w, r.iteration_s * 1e3,
              r.energy_per_iter_j};
    }
    case core::ScenarioKind::kDvfs: {
      const core::DvfsResult& r = result.dvfs();
      return {r.energy_j, r.avg_power_w, r.completion_s,
              r.backlog_max_s * 1e3};
    }
    case core::ScenarioKind::kFleet: {
      const core::FleetResult& r = result.fleet();
      return {r.energy_j, r.avg_power_w, r.completion_s,
              r.backlog_max_s * 1e3, r.backlog_p99_s * 1e3};
    }
  }
  return {};
}

/// Bench-document metrics (names aligned with the committed BENCH_*.json
/// documents so `bench_export --compare` gates campaign runs directly).
/// One source of truth with serve's result events: both read
/// scenario_summary_metrics, so CI can diff streamed results against
/// --bench-out documents key by key.
std::vector<tools::BenchMetric> kind_bench_metrics(
    const core::ScenarioResult& result) {
  std::vector<tools::BenchMetric> metrics;
  for (const auto& [metric, value] : core::scenario_summary_metrics(result)) {
    metrics.push_back({metric, value});
  }
  return metrics;
}

/// Writes the bench trajectory document for a finished run; shared by the
/// campaign and single-scenario paths (and every output mode — --json
/// must not swallow --bench-out).
int write_bench_out(const Options& opts, const std::string& bench_name,
                    const std::string& protocol,
                    const std::vector<tools::BenchCase>& cases) {
  const auto doc = tools::bench_document(bench_name, protocol, cases);
  if (!tools::write_bench_json(opts.bench_out, doc)) {
    return spec_error("cannot write " + opts.bench_out);
  }
  std::fprintf(stderr, "wrote %s\n", opts.bench_out.c_str());
  return 0;
}

/// Flushes the run's observability artifacts: the metrics document when
/// --metrics-out was given, and the Chrome trace eagerly (instead of at
/// exit) so the "wrote ..." message and any write failure land while the
/// user is still watching.  Call after the engine has gone idle.
int write_obs_outputs(const Options& opts, core::ExperimentEngine& engine) {
  if (!opts.metrics_out.empty()) {
    const std::string text =
        engine.metrics_json().dump(/*pretty=*/true) + "\n";
    std::string error;
    if (!core::atomic_write_text(opts.metrics_out, text, &error)) {
      return spec_error("cannot write " + opts.metrics_out + ": " + error);
    }
    std::fprintf(stderr, "wrote %s\n", opts.metrics_out.c_str());
  }
  if (core::obs::tracing_enabled()) {
    std::string error;
    if (!core::obs::flush_trace(&error)) {
      return spec_error("cannot write trace: " + error);
    }
    std::fprintf(stderr, "wrote %s\n", core::obs::trace_path().c_str());
  }
  return 0;
}

void print_scenario_summary(const core::ScenarioConfig& config,
                            const core::ScenarioResult& result) {
  const std::vector<std::string> headers = kind_metric_headers(config.kind());
  const std::vector<double> values = kind_metric_values(result);
  std::printf("# %s scenario, %d seed(s)\n",
              std::string(core::name(config.kind())).c_str(), config.seeds());
  for (std::size_t i = 0; i < headers.size(); ++i) {
    std::printf("  %-18s %.4f\n", headers[i].c_str(), values[i]);
  }
}

/// --expand detail for one dag node: what the node will run, without
/// running it (campaign grids of run nodes expand from the pre-substitution
/// document, which parses stand-alone by the dag contract).
int expand_dag_node(const core::dag::DagSpec& dag,
                    const core::dag::DagNode& node) {
  switch (node.kind) {
    case core::dag::DagNodeKind::kScenario:
      std::printf("    1 point\n");
      return 0;
    case core::dag::DagNodeKind::kCampaign: {
      const core::SpecParseResult parsed = core::parse_scenario_spec(node.run);
      if (!parsed.ok) return spec_error(parsed.error);
      std::vector<core::CampaignPoint> points;
      std::string error;
      if (!core::expand_campaign(parsed.spec, points, error)) {
        return spec_error("node '" + node.name + "': " + error);
      }
      std::printf("    %zu point(s)\n", points.size());
      for (const core::CampaignPoint& point : points) {
        std::printf("      %s\n", point.label.c_str());
      }
      return 0;
    }
    case core::dag::DagNodeKind::kReduce:
      std::printf("    %s over '%s', metric %s\n", node.reduce.op.c_str(),
                  dag.nodes[node.reduce.over].name.c_str(),
                  node.reduce.metric.c_str());
      return 0;
    case core::dag::DagNodeKind::kSearch:
      std::printf("    bisect %s in [%g, %g] until %s %s %g (tolerance %g)\n",
                  node.search.field.c_str(), node.search.lo, node.search.hi,
                  node.search.metric.c_str(), node.search.predicate.c_str(),
                  node.search.target, node.search.tolerance);
      return 0;
    case core::dag::DagNodeKind::kAffine:
      std::printf("    a + %g * (b - a), a = %s, b = %s\n", node.affine.f,
                  node.affine.a.raw.c_str(), node.affine.b.raw.c_str());
      return 0;
  }
  return 0;
}

int validate_dag(const Options& opts, const core::ScenarioSpec& spec) {
  const core::dag::DagSpec& dag = *spec.dag;
  std::size_t run_nodes = 0;
  for (const core::dag::DagNode& node : dag.nodes) {
    if (!core::dag::is_derived(node.kind)) ++run_nodes;
  }
  std::string order;
  for (const std::size_t index : dag.order) {
    if (!order.empty()) order += " -> ";
    order += dag.nodes[index].name;
  }
  std::printf(
      "spec OK: dag '%s', %zu node(s) (%zu run, %zu derived), order: %s\n",
      dag.name.empty() ? "(unnamed)" : dag.name.c_str(), dag.nodes.size(),
      run_nodes, dag.nodes.size() - run_nodes, order.c_str());
  if (!opts.expand) return 0;
  for (const std::size_t index : dag.order) {
    const core::dag::DagNode& node = dag.nodes[index];
    std::printf("  node %s (%s)\n", node.name.c_str(),
                std::string(core::dag::name(node.kind)).c_str());
    if (const int status = expand_dag_node(dag, node); status != 0) {
      return status;
    }
  }
  return 0;
}

int cmd_validate(const Options& opts) {
  if (opts.spec_path.empty()) return spec_error("validate needs <spec.json>");
  const core::SpecParseResult parsed = core::load_scenario_spec(opts.spec_path);
  if (!parsed.ok) return spec_error(parsed.error);
  if (parsed.spec.dag != nullptr) return validate_dag(opts, parsed.spec);
  if (!parsed.spec.campaign) {
    std::printf("spec OK: %s scenario, %d seed(s)\n",
                std::string(core::name(parsed.spec.config.kind())).c_str(),
                parsed.spec.config.seeds());
    return 0;
  }
  std::vector<core::CampaignPoint> points;
  std::string error;
  if (!core::expand_campaign(parsed.spec, points, error)) {
    return spec_error(error);
  }
  std::string axes;
  for (const core::CampaignAxis& axis : parsed.spec.axes) {
    if (!axes.empty()) axes += " x ";
    axes += axis.field + "(" + std::to_string(axis.values.size()) + ")";
  }
  std::printf("spec OK: campaign '%s', %zu point(s) of kind %s, axes: %s\n",
              parsed.spec.name.empty() ? "(unnamed)"
                                       : parsed.spec.name.c_str(),
              points.size(),
              std::string(core::name(points.front().config.kind())).c_str(),
              axes.c_str());
  if (opts.expand) {
    for (const core::CampaignPoint& point : points) {
      std::printf("  %s\n", point.label.c_str());
    }
  }
  return 0;
}

/// The `run` text form of a campaign: one row per point, the kind's metric
/// columns.
void print_campaign_table(const Options& opts, const core::CampaignRun& run) {
  std::vector<std::string> headers{"point"};
  for (std::string& header :
       kind_metric_headers(run.points.front().config.kind())) {
    headers.push_back(std::move(header));
  }
  analysis::Table table(std::move(headers));
  for (std::size_t i = 0; i < run.points.size(); ++i) {
    table.add_row(run.points[i].label,
                  kind_metric_values(run.handles[i].get()), 3);
  }
  if (opts.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
}

/// Submits a campaign, waits, and writes --bench-out / --metrics-out and
/// the --json document; without --json, `print_text` renders the finished
/// points above the engine line.
int run_campaign(
    const Options& opts, const core::ScenarioSpec& spec,
    const std::function<void(const core::CampaignRun&)>& print_text) {
  core::ExperimentEngine engine = make_engine(opts);
  core::CampaignRun run;
  std::string error;
  if (!core::submit_campaign(engine, spec, run, error)) {
    return spec_error(error);
  }
  engine.wait_all();

  if (!opts.bench_out.empty()) {
    std::vector<tools::BenchCase> cases;
    for (std::size_t i = 0; i < run.points.size(); ++i) {
      tools::BenchCase bench_case;
      bench_case.name = run.points[i].label;
      bench_case.metrics = kind_bench_metrics(run.handles[i].get());
      cases.push_back(std::move(bench_case));
    }
    const int status = write_bench_out(
        opts, spec.name.empty() ? "campaign" : spec.name, spec.protocol,
        cases);
    if (status != 0) return status;
  }
  if (const int status = write_obs_outputs(opts, engine); status != 0) {
    return status;
  }

  if (opts.json) {
    analysis::JsonValue doc = analysis::JsonValue::object();
    doc.set("campaign", analysis::JsonValue::string(spec.name));
    analysis::JsonValue series = analysis::JsonValue::array();
    for (std::size_t i = 0; i < run.points.size(); ++i) {
      analysis::JsonValue entry = analysis::JsonValue::object();
      entry.set("label", analysis::JsonValue::string(run.points[i].label))
          .set("result", core::scenario_to_json(run.points[i].config,
                                                run.handles[i].get()));
      series.push(std::move(entry));
    }
    doc.set("points", std::move(series));
    std::printf("%s\n", doc.dump(/*pretty=*/true).c_str());
    return 0;
  }
  print_text(run);
  bench::print_engine_stats(engine);
  return 0;
}

/// Prints the one-line summary of a derived node from its result
/// document.  Search and affine values print round-trip exact (%.17g), so
/// they can be pasted into a spec.
void print_derived_node_summary(const core::dag::DagNodeRun& node) {
  const analysis::JsonValue* value = node.doc.find("value");
  if (node.kind == core::dag::DagNodeKind::kAffine) {
    auto number = [&](const char* key) {
      const analysis::JsonValue* v = node.doc.find(key);
      return v != nullptr ? v->as_number() : 0.0;
    };
    std::printf("  value = %.17g (a = %.17g, b = %.17g, f = %.17g)\n",
                number("value"), number("a"), number("b"), number("f"));
    return;
  }
  if (node.kind == core::dag::DagNodeKind::kReduce) {
    const analysis::JsonValue* op = node.doc.find("op");
    const analysis::JsonValue* over = node.doc.find("over");
    const analysis::JsonValue* metric = node.doc.find("metric");
    std::printf("  %s of %s over '%s' = %.6g\n",
                op != nullptr ? op->as_string().c_str() : "?",
                metric != nullptr ? metric->as_string().c_str() : "?",
                over != nullptr ? over->as_string().c_str() : "?",
                value != nullptr ? value->as_number() : 0.0);
    return;
  }
  const analysis::JsonValue* field = node.doc.find("field");
  const analysis::JsonValue* iterations = node.doc.find("iterations");
  std::printf("  %s = %.17g (%d evaluation(s))\n",
              field != nullptr ? field->as_string().c_str() : "?",
              value != nullptr ? value->as_number() : 0.0,
              iterations != nullptr ? static_cast<int>(iterations->as_number())
                                    : 0);
}

/// Executes a dag spec end to end, then reports node by node in
/// declaration order.  Run-node --json entries mirror the campaign --json
/// point shape exactly, so a dag node can be diffed byte-for-byte against
/// the equivalent stand-alone campaign run.
int run_dag_spec(const Options& opts, const core::ScenarioSpec& spec) {
  core::ExperimentEngine engine = make_engine(opts);
  core::dag::DagRun run;
  std::string error;
  if (!core::dag::run_dag(engine, *spec.dag, run, error)) {
    return spec_error(error);
  }
  engine.wait_all();

  if (!opts.bench_out.empty()) {
    std::vector<tools::BenchCase> cases;
    for (const core::dag::DagNodeRun& node : run.nodes) {
      for (const core::dag::DagNodePoint& point : node.points) {
        tools::BenchCase bench_case;
        bench_case.name = node.points.size() == 1
                              ? node.name
                              : node.name + "/" + point.label;
        bench_case.metrics = kind_bench_metrics(point.result);
        cases.push_back(std::move(bench_case));
      }
    }
    const int status = write_bench_out(
        opts, spec.name.empty() ? "dag" : spec.name, spec.protocol, cases);
    if (status != 0) return status;
  }
  if (const int status = write_obs_outputs(opts, engine); status != 0) {
    return status;
  }

  if (opts.json) {
    analysis::JsonValue doc = analysis::JsonValue::object();
    doc.set("dag", analysis::JsonValue::string(spec.name));
    analysis::JsonValue nodes = analysis::JsonValue::array();
    for (const core::dag::DagNodeRun& node : run.nodes) {
      analysis::JsonValue entry = analysis::JsonValue::object();
      entry.set("name", analysis::JsonValue::string(node.name))
          .set("kind",
               analysis::JsonValue::string(core::dag::name(node.kind)));
      if (!node.points.empty()) {
        analysis::JsonValue points = analysis::JsonValue::array();
        for (const core::dag::DagNodePoint& point : node.points) {
          analysis::JsonValue point_doc = analysis::JsonValue::object();
          point_doc.set("label", analysis::JsonValue::string(point.label))
              .set("result",
                   core::scenario_to_json(point.config, point.result));
          points.push(std::move(point_doc));
        }
        entry.set("points", std::move(points));
      }
      if (core::dag::is_derived(node.kind)) entry.set("result", node.doc);
      nodes.push(std::move(entry));
    }
    doc.set("nodes", std::move(nodes));
    std::printf("%s\n", doc.dump(/*pretty=*/true).c_str());
    return 0;
  }

  for (const core::dag::DagNodeRun& node : run.nodes) {
    std::printf("# node %s (%s)\n", node.name.c_str(),
                std::string(core::dag::name(node.kind)).c_str());
    if (core::dag::is_derived(node.kind)) print_derived_node_summary(node);
    if (node.points.empty()) continue;
    std::vector<std::string> headers{"point"};
    for (std::string& header :
         kind_metric_headers(node.points.front().config.kind())) {
      headers.push_back(std::move(header));
    }
    analysis::Table table(std::move(headers));
    for (const core::dag::DagNodePoint& point : node.points) {
      table.add_row(point.label, kind_metric_values(point.result), 3);
    }
    if (opts.csv) {
      table.print_csv(std::cout);
    } else {
      table.print(std::cout);
    }
  }
  bench::print_engine_stats(engine);
  return 0;
}

int cmd_run(const Options& opts) {
  if (opts.spec_path.empty()) return spec_error("run needs <spec.json>");
  const core::SpecParseResult parsed = core::load_scenario_spec(opts.spec_path);
  if (!parsed.ok) return spec_error(parsed.error);
  if (parsed.spec.dag != nullptr) return run_dag_spec(opts, parsed.spec);
  if (parsed.spec.campaign) {
    return run_campaign(opts, parsed.spec, [&](const core::CampaignRun& run) {
      print_campaign_table(opts, run);
    });
  }

  core::ExperimentEngine engine = make_engine(opts);
  const core::ScenarioHandle handle = engine.submit(parsed.spec.config);
  const core::ScenarioResult& result = handle.get();
  if (!opts.bench_out.empty()) {
    tools::BenchCase bench_case;
    bench_case.name = std::string(core::name(parsed.spec.config.kind()));
    bench_case.metrics = kind_bench_metrics(result);
    const int status = write_bench_out(opts, "scenario", "", {bench_case});
    if (status != 0) return status;
  }
  if (const int status = write_obs_outputs(opts, engine); status != 0) {
    return status;
  }
  if (opts.json) {
    std::printf("%s\n", core::scenario_to_json(parsed.spec.config, result)
                            .dump(/*pretty=*/true)
                            .c_str());
    return 0;
  }
  print_scenario_summary(parsed.spec.config, result);
  bench::print_engine_stats(engine);
  return 0;
}

/// Spec-building shim like dvfs/fleet: the flags and GPUPOWER_* knobs
/// assemble a campaign — experiment.dtype (all four, or --dtype) x the
/// figure axis — that --emit-spec prints and `gpowerctl run` reproduces.
/// The text form is the figure table: one row per sweep point, one power
/// column per dtype.
int cmd_sweep(const Options& opts) {
  if (!opts.figure) {
    std::fprintf(stderr, "sweep needs --figure (fig3a..fig6d)\n");
    return 2;
  }
  const core::FigureId figure = *opts.figure;
  const core::ExperimentConfig base =
      make_config(opts, core::baseline_gaussian_spec());
  std::vector<numeric::DType> dtypes{opts.dtype_or_fp16()};
  if (!opts.dtype) {
    dtypes.assign(std::begin(numeric::kAllDTypes),
                  std::end(numeric::kAllDTypes));
  }
  analysis::JsonValue dtype_values = analysis::JsonValue::array();
  for (const numeric::DType dtype : dtypes) {
    core::ExperimentConfig config = base;
    config.dtype = dtype;
    // The dtype's spec spelling, emitted by the one field table.
    dtype_values.push(
        *core::spec_to_json(config).find("experiment")->find("dtype"));
  }
  analysis::JsonValue dtype_axis = analysis::JsonValue::object();
  dtype_axis.set("field", analysis::JsonValue::string("experiment.dtype"))
      .set("values", std::move(dtype_values));
  analysis::JsonValue points_axis = analysis::JsonValue::object();
  points_axis.set("field", analysis::JsonValue::string("experiment.pattern"))
      .set("figure", analysis::JsonValue::string(core::figure_key(figure)));
  analysis::JsonValue axes = analysis::JsonValue::array();
  axes.push(std::move(dtype_axis)).push(std::move(points_axis));
  analysis::JsonValue spec_doc = analysis::JsonValue::object();
  spec_doc.set("scenario", analysis::JsonValue::string("campaign"))
      .set("name", analysis::JsonValue::string(core::figure_key(figure)))
      .set("base", core::spec_to_json(base))
      .set("axes", std::move(axes));
  if (opts.emit_spec) {
    std::printf("%s\n", spec_doc.dump(/*pretty=*/true).c_str());
    return 0;
  }
  const core::SpecParseResult parsed = core::parse_scenario_spec(spec_doc);
  if (!parsed.ok) {
    return spec_error("internal spec round-trip failed: " + parsed.error);
  }

  return run_campaign(opts, parsed.spec, [&](const core::CampaignRun& run) {
    bench::print_preamble(opts.env, core::figure_name(figure),
                          gpusim::name(base.gpu));
    std::vector<std::string> headers{std::string(core::figure_axis(figure))};
    for (const numeric::DType dtype : dtypes) {
      headers.push_back(std::string(numeric::name(dtype)) + " (W)");
    }
    analysis::Table table(std::move(headers));
    // Row-major expansion: the dtype axis varies slowest.
    const std::size_t rows = run.points.size() / dtypes.size();
    for (std::size_t p = 0; p < rows; ++p) {
      std::vector<double> row;
      for (std::size_t d = 0; d < dtypes.size(); ++d) {
        row.push_back(
            run.handles[d * rows + p].get().static_result().power_w);
      }
      table.add_row(run.points[p].coords.back().second, row, 1);
    }
    if (opts.csv) {
      table.print_csv(std::cout);
    } else {
      table.print(std::cout);
    }
  });
}

/// Long-lived service mode: one engine + one store, any number of clients.
int cmd_serve(const Options& opts) {
  core::ExperimentEngine engine = make_engine(opts);
  const core::StoreEnv store_env = core::read_store_env();
  core::ServeOptions serve_options;
  serve_options.full_results = opts.full_results;
  serve_options.stats_every = opts.stats_every;
  // Stats events embed metrics_json(); arm the registry so the per-kind
  // timings in those events are live even without GPUPOWER_METRICS=on.
  core::obs::set_metrics_enabled(true);

  std::fprintf(stderr, "gpowerctl serve: %d worker(s), store %s\n",
               engine.workers(),
               store_env.enabled ? store_env.dir.c_str() : "off");
  if (!opts.socket_path.empty()) {
    std::fprintf(stderr, "listening on %s\n", opts.socket_path.c_str());
    std::string error;
    (void)core::serve_unix_socket(engine, opts.socket_path, serve_options,
                                  error);
    std::fprintf(stderr, "gpowerctl serve: %s\n", error.c_str());
    return 1;
  }

  const long requests =
      core::serve_session(engine, std::cin, std::cout, serve_options);
  std::fprintf(stderr, "served %ld request(s); engine: %s\n", requests,
               core::engine_stats_line(engine).c_str());
  return 0;
}

// --- gpowerctl top: live operational view ----------------------------------

/// One polled snapshot: the metrics_json() document plus — in socket mode
/// — the live per-session rows embedded in the serve stats event.
struct TopSample {
  analysis::JsonValue metrics;
  analysis::JsonValue sessions = analysis::JsonValue::array();
  bool have_sessions = false;
};

/// Nested lookup that tolerates absent keys and non-objects: the metrics
/// schema is stable, but `top` must render a partial document (e.g. a
/// metrics file written mid-run by an older binary) instead of aborting.
const analysis::JsonValue* json_member(const analysis::JsonValue* value,
                                       std::string_view key) {
  return value != nullptr ? value->find(key) : nullptr;
}

double json_number(const analysis::JsonValue* value, double fallback = 0.0) {
  return value != nullptr ? value->as_number(fallback) : fallback;
}

/// Minimal NDJSON client for a `gpowerctl serve --socket` endpoint: one
/// connection for the whole top session (so the serve side keeps ONE
/// session row for the viewer instead of one per poll), a stats request
/// per poll, and a line-buffered reader that skips any interleaved events
/// until the stats event arrives.
class ServeStatsClient {
 public:
  ServeStatsClient() = default;
  ServeStatsClient(const ServeStatsClient&) = delete;
  ServeStatsClient& operator=(const ServeStatsClient&) = delete;
  ~ServeStatsClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connect_to(const std::string& path, std::string& error) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path) {
      error = "socket path too long: " + path;
      return false;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) {
      error = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      error = path + ": " + std::strerror(errno);
      return false;
    }
    return true;
  }

  bool poll(TopSample& sample, std::string& error) {
    static constexpr char kRequest[] = "{\"cmd\":\"stats\"}\n";
    const char* data = kRequest;
    std::size_t remaining = sizeof kRequest - 1;
    while (remaining > 0) {
      const ssize_t n = ::write(fd_, data, remaining);
      if (n < 0) {
        if (errno == EINTR) continue;
        error = std::string("write: ") + std::strerror(errno);
        return false;
      }
      data += n;
      remaining -= static_cast<std::size_t>(n);
    }
    // Any event may interleave ahead of our stats reply (periodic
    // --stats-every emissions are themselves stats events and count).
    for (;;) {
      std::string line;
      if (!read_line(line, error)) return false;
      if (line.empty()) continue;
      const analysis::JsonParseResult parsed = analysis::json_parse(line);
      if (!parsed.ok || !parsed.value.is_object()) continue;
      const analysis::JsonValue* type = parsed.value.find("type");
      if (type == nullptr || !type->is_string() ||
          type->as_string() != "stats") {
        continue;
      }
      if (const analysis::JsonValue* metrics = parsed.value.find("metrics")) {
        sample.metrics = *metrics;
      }
      if (const analysis::JsonValue* sessions = parsed.value.find("sessions");
          sessions != nullptr && sessions->is_array()) {
        sample.sessions = *sessions;
        sample.have_sessions = true;
      }
      return true;
    }
  }

 private:
  bool read_line(std::string& line, std::string& error) {
    for (;;) {
      const std::size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        line.assign(buffer_, 0, newline);
        buffer_.erase(0, newline + 1);
        return true;
      }
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n < 0) {
        if (errno == EINTR) continue;
        error = std::string("read: ") + std::strerror(errno);
        return false;
      }
      if (n == 0) {
        error = "server closed the connection";
        return false;
      }
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  int fd_ = -1;
  std::string buffer_;
};

bool read_metrics_file(const std::string& path, TopSample& sample,
                       std::string& error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    error = "cannot open " + path;
    return false;
  }
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  analysis::JsonParseResult parsed = analysis::json_parse(text);
  if (!parsed.ok) {
    error = path + ": " + parsed.error;
    return false;
  }
  sample.metrics = std::move(parsed.value);
  return true;
}

/// Renders one frame.  `previous` is last poll's metrics document (nullptr
/// on the first frame) — counter deltas and rates are computed against it,
/// with elapsed time measured here (obs::now_ns) rather than trusting the
/// producer's clock.
void render_top(const Options& opts, const TopSample& sample,
                const analysis::JsonValue* previous, double dt_s, long poll,
                const std::string& source) {
  if (!opts.plain) {
    std::printf("\x1b[2J\x1b[H");
  } else if (poll > 1) {
    std::printf("\n");
  }
  const analysis::JsonValue* engine = json_member(&sample.metrics, "engine");
  const analysis::JsonValue* prev_engine = json_member(previous, "engine");
  const analysis::JsonValue* obs = json_member(&sample.metrics, "obs");
  std::printf("gpowerctl top — %s   poll %ld, every %d ms\n", source.c_str(),
              poll, opts.top_interval_ms);
  std::printf("workers %.0f   queue depth %.0f\n\n",
              json_number(json_member(engine, "workers")),
              json_number(json_member(
                  json_member(obs, "gauges"), "engine.queue_depth")));

  // Engine counters with per-poll deltas.  The first frame has no
  // baseline: deltas and rates render as 0 rather than as the totals.
  static constexpr const char* kCounters[] = {
      "submitted",    "cache_hits", "jobs_computed",
      "replicas_run", "store_hits", "store_writes"};
  analysis::Table counters({"counter", "total", "delta", "per s"});
  for (const char* key : kCounters) {
    const double now = json_number(json_member(engine, key));
    const double before =
        prev_engine != nullptr ? json_number(json_member(prev_engine, key), now)
                               : now;
    const double delta = now - before;
    counters.add_row(key, {now, delta, dt_s > 0.0 ? delta / dt_s : 0.0}, 1);
  }
  counters.print(std::cout);

  std::printf(
      "\ntime (s): compute %.3f   queue wait %.3f   reduce %.3f   "
      "store r/w %.3f/%.3f\n",
      json_number(json_member(engine, "compute_seconds")),
      json_number(json_member(engine, "queue_wait_seconds")),
      json_number(json_member(engine, "reduce_seconds")),
      json_number(json_member(engine, "store_read_seconds")),
      json_number(json_member(engine, "store_write_seconds")));

  if (const analysis::JsonValue* latency = json_member(
          json_member(obs, "histograms"), "engine.replica_latency_ns")) {
    std::printf(
        "replica latency: p50 %.1f us   p95 %.1f us   p99 %.1f us   "
        "max %.1f us   (%.0f sample(s))\n",
        json_number(json_member(latency, "p50_ns")) * 1e-3,
        json_number(json_member(latency, "p95_ns")) * 1e-3,
        json_number(json_member(latency, "p99_ns")) * 1e-3,
        json_number(json_member(latency, "max_ns")) * 1e-3,
        json_number(json_member(latency, "count")));
  }
  const double dropped = json_number(
      json_member(json_member(obs, "gauges"), "obs.ring_dropped_total"));
  if (dropped > 0.0) {
    std::printf("WARNING: %.0f trace event(s) dropped (ring full)\n", dropped);
  }

  // Per-kind breakdown, kinds that have seen traffic only.
  if (const analysis::JsonValue* by_kind = json_member(engine, "by_kind")) {
    analysis::Table kinds({"kind", "submitted", "computed", "replicas",
                           "cache hits", "store hits", "compute (s)"});
    bool any = false;
    for (const std::string& kind : by_kind->keys()) {
      const analysis::JsonValue* k = by_kind->find(kind);
      if (json_number(json_member(k, "submitted")) == 0.0) continue;
      any = true;
      kinds.add_row(kind,
                    {json_number(json_member(k, "submitted")),
                     json_number(json_member(k, "jobs_computed")),
                     json_number(json_member(k, "replicas_run")),
                     json_number(json_member(k, "cache_hits")),
                     json_number(json_member(k, "store_hits")),
                     json_number(json_member(k, "compute_seconds"))},
                    2);
    }
    if (any) {
      std::printf("\n");
      kinds.print(std::cout);
    }
  }

  // Serve totals (process-wide obs counters) + the live session rows.
  if (const analysis::JsonValue* counters_block =
          json_member(obs, "counters");
      json_member(counters_block, "serve.requests") != nullptr) {
    std::printf(
        "\nserve: %.0f session(s) live, %.0f total   requests %.0f   "
        "results %.0f   dedup %.0f   store hits %.0f   streamed %.1f KiB\n",
        json_number(json_member(json_member(obs, "gauges"),
                                "serve.active_sessions")),
        json_number(json_member(counters_block, "serve.sessions")),
        json_number(json_member(counters_block, "serve.requests")),
        json_number(json_member(counters_block, "serve.results")),
        json_number(json_member(counters_block, "serve.dedup_hits")),
        json_number(json_member(counters_block, "serve.store_hits")),
        json_number(json_member(counters_block, "serve.bytes_streamed")) /
            1024.0);
  }
  if (sample.have_sessions && sample.sessions.size() > 0) {
    analysis::Table sessions({"session", "age (s)", "requests", "points",
                              "results", "errors", "dedup", "store",
                              "KiB out"});
    for (std::size_t i = 0; i < sample.sessions.size(); ++i) {
      const analysis::JsonValue& s = sample.sessions.at(i);
      sessions.add_row(
          "#" + std::to_string(
                    static_cast<long long>(json_number(s.find("id")))),
          {json_number(s.find("age_s")), json_number(s.find("requests")),
           json_number(s.find("points")), json_number(s.find("results")),
           json_number(s.find("errors")), json_number(s.find("dedup_hits")),
           json_number(s.find("store_hits")),
           json_number(s.find("bytes_streamed")) / 1024.0},
          1);
    }
    std::printf("\n");
    sessions.print(std::cout);
  }
  std::fflush(stdout);
}

/// Live terminal view: polls a serve socket's stats events (one persistent
/// connection, so the viewer is a single session server-side) or re-reads
/// a metrics JSON document, and renders deltas between polls.
int cmd_top(const Options& opts) {
  const bool socket_mode = !opts.socket_path.empty();
  if (socket_mode == !opts.metrics_file.empty()) {
    return spec_error(
        "top needs exactly one of --socket PATH or --metrics-file FILE");
  }
  std::string error;
  ServeStatsClient client;
  if (socket_mode && !client.connect_to(opts.socket_path, error)) {
    return spec_error("cannot connect: " + error);
  }
  const std::string source = socket_mode
                                 ? "serve " + opts.socket_path
                                 : "metrics file " + opts.metrics_file;
  analysis::JsonValue previous;
  bool have_previous = false;
  std::int64_t previous_ns = 0;
  for (long poll = 1; opts.top_count == 0 || poll <= opts.top_count; ++poll) {
    if (poll > 1) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(opts.top_interval_ms));
    }
    TopSample sample;
    const bool ok = socket_mode ? client.poll(sample, error)
                                : read_metrics_file(opts.metrics_file, sample,
                                                    error);
    if (!ok) return spec_error(error);
    const std::int64_t now_ns = core::obs::now_ns();
    const double dt_s =
        have_previous ? static_cast<double>(now_ns - previous_ns) * 1e-9 : 0.0;
    render_top(opts, sample, have_previous ? &previous : nullptr, dt_s, poll,
               source);
    previous = std::move(sample.metrics);
    have_previous = true;
    previous_ns = now_ns;
  }
  return 0;
}

int cmd_dvfs(const Options& opts) {
  core::PatternSpec spec;
  if (!parse_pattern_or_die(opts, spec)) return 1;

  const auto builder = core::DvfsConfigBuilder()
                           .experiment(make_config(opts, spec))
                           .governor(opts.governor)
                           .timeline(opts.timeline)
                           .slice(opts.slice_s)
                           .pstates(opts.pstates);
  if (!builder.valid()) {
    std::fprintf(stderr, "gpowerctl: %s\n", builder.error().c_str());
    return 2;
  }

  // Spec-building shim: the flags assemble a spec document (printable with
  // --emit-spec for migration), which is parsed back and submitted through
  // the same type-erased path `gpowerctl run` uses.
  const analysis::JsonValue spec_doc =
      core::spec_to_json(core::ScenarioConfig(builder.build()));
  if (opts.emit_spec) {
    std::printf("%s\n", spec_doc.dump(/*pretty=*/true).c_str());
    return 0;
  }
  const core::SpecParseResult parsed_spec = core::parse_scenario_spec(spec_doc);
  if (!parsed_spec.ok) {
    return spec_error("internal spec round-trip failed: " + parsed_spec.error);
  }
  const core::DvfsConfig config = parsed_spec.spec.config.dvfs();

  core::ExperimentEngine engine = make_engine(opts);
  const core::ScenarioHandle run = engine.submit(config);

  // --json emits the requested governor's document alone; only the table
  // path pays for the reference replays.
  if (opts.json) {
    std::printf("%s\n", core::dvfs_to_json(config, run.get().dvfs())
                            .dump(/*pretty=*/true)
                            .c_str());
    return 0;
  }

  // Both reference points batched alongside the requested governor:
  // fixed(0) is "prefer maximum performance", oracle() the clairvoyant
  // lower bound.
  core::DvfsConfig fixed_config = config;
  fixed_config.governor = gpusim::dvfs::GovernorConfig{};
  fixed_config.governor.policy = gpusim::dvfs::GovernorConfig::Policy::kFixed;
  fixed_config.governor.fixed_pstate = 0;
  const core::ScenarioHandle fixed_run = engine.submit(fixed_config);
  core::DvfsConfig oracle_config = config;
  oracle_config.governor = gpusim::dvfs::GovernorConfig{};
  oracle_config.governor.policy = gpusim::dvfs::GovernorConfig::Policy::kOracle;
  const core::ScenarioHandle oracle_run = engine.submit(oracle_config);
  engine.wait_all();

  const core::DvfsResult& result = run.get().dvfs();

  std::printf("# gpowerctl dvfs: %s, %s, pattern: %s\n",
              std::string(gpusim::name(config.experiment.gpu)).c_str(),
              std::string(numeric::name(config.experiment.dtype)).c_str(),
              core::to_dsl(spec).c_str());
  std::printf("# governor: %s, %d P-state(s), slice %.0f ms, timeline %.2f s\n",
              gpusim::dvfs::to_dsl(config.governor).c_str(), config.pstates,
              config.slice_s * 1e3, config.timeline.duration_s());

  analysis::Table table({"t (s)", "offered", "util", "P", "clock", "power (W)",
                         "backlog (ms)"});
  const auto& slices = result.trace.slices;
  const std::size_t stride = std::max<std::size_t>(1, slices.size() / 24);
  for (std::size_t i = 0; i < slices.size(); i += stride) {
    const auto& s = slices[i];
    char label[32];
    std::snprintf(label, sizeof label, "%.2f", s.t_s);
    table.add_row(label,
                  {s.offered, s.utilization, static_cast<double>(s.pstate),
                   s.clock_frac, s.power_w, s.backlog_s * 1e3},
                  2);
  }
  if (opts.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }

  const core::DvfsResult& fixed = fixed_run.get().dvfs();
  const core::DvfsResult& oracle = oracle_run.get().dvfs();
  const auto savings = [](double energy, double baseline) {
    return baseline > 0.0 ? (1.0 - energy / baseline) * 100.0 : 0.0;
  };
  if (result.truncated) {
    std::printf(
        "\nWARNING: replay hit the slice-cap backstop with work still "
        "queued;\nenergy/completion under-count the unserved tail\n");
  }
  std::printf(
      "\nsummary (%d seed(s)):\n"
      "  energy        %.2f J (std %.2f)   avg %.1f W   peak %.1f W\n"
      "  completion    %.3f s   max backlog %.1f ms   transitions %.1f\n"
      "  vs fixed-max  %.2f J -> %+.1f%% energy, %+.1f ms completion\n"
      "  vs oracle     %.2f J (gap %+.1f%%)\n",
      result.seeds, result.energy_j, result.energy_std_j, result.avg_power_w,
      result.peak_power_w, result.completion_s, result.backlog_max_s * 1e3,
      result.transitions, fixed.energy_j,
      -savings(result.energy_j, fixed.energy_j),
      (result.completion_s - fixed.completion_s) * 1e3, oracle.energy_j,
      -savings(result.energy_j, oracle.energy_j));
  return 0;
}

int cmd_fleet(const Options& opts) {
  core::PatternSpec spec;
  if (!parse_pattern_or_die(opts, spec)) return 1;

  // Phase-shift each device's copy of the timeline by a small stagger so
  // the fleet's demands are not synchronised — the regime where the
  // allocation policy actually matters (synchronised bursts degenerate
  // every allocator to uniform).
  const auto parsed_timeline = gpusim::dvfs::parse_timeline(opts.timeline);
  if (!parsed_timeline.ok) {
    std::fprintf(stderr, "gpowerctl: timeline DSL error at offset %zu: %s\n",
                 parsed_timeline.error_pos, parsed_timeline.error.c_str());
    return 2;
  }
  constexpr double kStaggerS = 0.05;

  core::FleetConfigBuilder builder;
  builder.experiment(make_config(opts, spec))
      .allocator(opts.allocator)
      .slice(opts.slice_s)
      .pstates(opts.pstates)
      .add_staggered_devices(parsed_timeline.timeline, opts.devices,
                             kStaggerS, kGpuByIndex[opts.gpu_index],
                             opts.governor);
  if (opts.cap_w) builder.cap(*opts.cap_w);
  gpusim::fleet::ThermalConfig thermal;
  thermal.enabled = opts.thermal;
  builder.thermal(thermal);
  if (!builder.valid()) {
    std::fprintf(stderr, "gpowerctl: %s\n", builder.error().c_str());
    return 2;
  }

  // Spec-building shim, exactly like cmd_dvfs: flags -> spec document ->
  // parse -> the shared type-erased submission path.
  const analysis::JsonValue spec_doc =
      core::spec_to_json(core::ScenarioConfig(builder.build()));
  if (opts.emit_spec) {
    std::printf("%s\n", spec_doc.dump(/*pretty=*/true).c_str());
    return 0;
  }
  const core::SpecParseResult parsed_spec = core::parse_scenario_spec(spec_doc);
  if (!parsed_spec.ok) {
    return spec_error("internal spec round-trip failed: " + parsed_spec.error);
  }
  const core::FleetConfig config = parsed_spec.spec.config.fleet();

  core::ExperimentEngine engine = make_engine(opts);
  const core::ScenarioHandle run = engine.submit(config);

  if (opts.json) {
    std::printf("%s\n", core::fleet_to_json(config, run.get().fleet())
                            .dump(/*pretty=*/true)
                            .c_str());
    return 0;
  }

  // The uncapped, thermal-matched fleet as the baseline: what the same
  // hardware would do with an unlimited site envelope.
  core::FleetConfig uncapped_config = config;
  uncapped_config.allocator.cap_w =
      std::numeric_limits<double>::infinity();
  const core::ScenarioHandle uncapped_run = engine.submit(uncapped_config);
  engine.wait_all();

  const core::FleetResult& result = run.get().fleet();

  std::printf("# gpowerctl fleet: %d x %s, %s, allocator %s",
              opts.devices,
              std::string(gpusim::name(kGpuByIndex[opts.gpu_index])).c_str(),
              std::string(numeric::name(config.experiment.dtype)).c_str(),
              std::string(
                  gpusim::fleet::name(config.allocator.policy))
                  .c_str());
  if (config.allocator.capped()) {
    std::printf(", cap %.0f W", config.allocator.cap_w);
  } else {
    std::printf(", uncapped");
  }
  std::printf(", thermal %s\n", config.thermal.enabled ? "on" : "off");
  std::printf("# timeline: %s (staggered %.0f ms/device)\n",
              opts.timeline.c_str(), kStaggerS * 1e3);

  analysis::Table table({"device", "energy (J)", "avg W", "completion (s)",
                         "backlog (ms)", "peak T (C)", "throttled",
                         "clamped"});
  for (std::size_t i = 0; i < result.devices.size(); ++i) {
    const core::FleetDeviceSummary& device = result.devices[i];
    char label[32];
    std::snprintf(label, sizeof label, "gpu%zu", i);
    table.add_row(label,
                  {device.energy_j, device.avg_power_w, device.completion_s,
                   device.backlog_max_s * 1e3, device.peak_temperature_c,
                   device.throttled_slices, device.budget_clamped_slices},
                  2);
  }
  if (opts.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }

  const core::FleetResult& uncapped = uncapped_run.get().fleet();
  if (result.truncated) {
    std::printf(
        "\nWARNING: a device hit the slice-cap backstop with work still "
        "queued;\nenergy/completion under-count the unserved tail\n");
  }
  std::printf(
      "\nfleet summary (%d seed(s)):\n"
      "  energy        %.2f J (std %.2f)   avg %.1f W   peak %.1f W\n"
      "  completion    %.3f s   max backlog %.1f ms   transitions %.1f\n"
      "  SLO backlog   p99 across devices %.1f ms\n"
      "  over-cap      %.1f slice(s) (idle-floor physics)\n"
      "  vs uncapped   %.2f J energy, %.3f s completion, peak %.1f W\n",
      result.seeds, result.energy_j, result.energy_std_j, result.avg_power_w,
      result.peak_power_w, result.completion_s, result.backlog_max_s * 1e3,
      result.transitions, result.backlog_p99_s * 1e3, result.over_cap_slices,
      uncapped.energy_j, uncapped.completion_s, uncapped.peak_power_w);
  return 0;
}

// --- the verb and flag tables ------------------------------------------------

/// What a verb runs: its flags, a <spec.json> positional, or a stream of
/// specs.  The spec verbs take their protocol from the spec, so a protocol
/// flag given to one names the spec field instead.
enum class Input { kFlags, kSpecPath, kSpecStream };

struct Verb {
  std::string_view name;
  int (*run)(const Options&);
  Input input;
  std::string_view summary;
};

constexpr Verb kVerbs[] = {
    {"discovery", cmd_discovery, Input::kFlags,
     "list the modelled GPUs (index, name, TDP, memory)"},
    {"dmon", cmd_dmon, Input::kFlags,
     "one experiment: DCGM-style 100 ms samples + summary"},
    {"sweep", cmd_sweep, Input::kFlags,
     "one paper figure: its points x four dtypes (or --dtype)"},
    {"features", cmd_features, Input::kFlags,
     "the input statistics the power model consumes"},
    {"predict", cmd_predict, Input::kFlags,
     "fit the input-dependent power model, predict a pattern"},
    {"dvfs", cmd_dvfs, Input::kFlags,
     "replay a timeline through the P-state machine"},
    {"fleet", cmd_fleet, Input::kFlags,
     "fan the timeline across devices under a shared power cap"},
    {"run", cmd_run, Input::kSpecPath,
     "execute a scenario / campaign / dag spec"},
    {"validate", cmd_validate, Input::kSpecPath,
     "parse + expand a spec without running it"},
    {"serve", cmd_serve, Input::kSpecStream,
     "long-lived: spec lines in, NDJSON result events out"},
    {"top", cmd_top, Input::kFlags,
     "live view of a serve socket or a metrics document"},
};

/// The Options member a flag sets: `member<&Options::csv>`, or through a
/// nested struct, `member<&Options::env, &core::BenchEnv::n>`.
template <auto... path>
auto& member(Options& opts) {
  return (opts .* ... .* path);
}

template <class T>
using Member = T& (*)(Options&);

/// A flag's value kind is its member's type: a bool is a switch (or reads
/// on|off when the row names a value), a string takes the text, an int,
/// size_t or double is read whole by number_flag, and the optionals read a
/// number, a dtype or a figure id.
using Target = std::variant<Member<bool>, Member<std::string>, Member<int>,
                            Member<std::size_t>, Member<double>,
                            Member<std::optional<double>>,
                            Member<std::optional<numeric::DType>>,
                            Member<std::optional<core::FigureId>>>;

struct Flag {
  std::string_view name;   ///< "--n"
  std::string_view arg;    ///< the value's placeholder; empty for a switch
  Target target;
  std::string_view verbs;  ///< the verbs whose code reads the member
  std::string_view help;
  /// Where run/validate/serve read this value instead (protocol flags).
  std::string_view spec_field = {};
  /// A bound only the CLI knows; flags that set a config field get their
  /// range from its config_fields row, through the builders.
  std::optional<core::fields::Range> range = {};
};

/// The verbs that build an ExperimentConfig from the flags (make_config).
constexpr std::string_view kConfigVerbs = "dmon sweep predict dvfs fleet";

constexpr Flag kFlags[] = {
    {"--gpu", "N", member<&Options::gpu_index>, kConfigVerbs,
     "device index, see 'discovery' (default 0)", {},
     core::fields::Range{0, 3}},
    {"--dtype", "T", member<&Options::dtype>,
     "dmon sweep features predict dvfs fleet",
     "fp32, fp16 (default), fp16t, int8; sweep: all four"},
    {"--pattern", "DSL", member<&Options::pattern>,
     "dmon features predict dvfs fleet",
     "input DSL, e.g. \"gaussian(sigma=210) | sort_rows(40%)\""},
    {"--figure", "ID", member<&Options::figure>, "sweep",
     "the paper figure to regenerate, fig3a..fig6d"},
    {"--n", "SIZE", member<&Options::env, &core::BenchEnv::n>,
     "dmon sweep features predict dvfs fleet",
     "matrix dimension (as GPUPOWER_N)", "experiment.n"},
    {"--seeds", "K", member<&Options::env, &core::BenchEnv::seeds>,
     kConfigVerbs, "seeds per configuration (as GPUPOWER_SEEDS)",
     "experiment.seeds"},
    {"--tiles", "T", member<&Options::env, &core::BenchEnv::tiles>,
     kConfigVerbs, "sampled warp tiles, 0 = exact walk (as GPUPOWER_TILES)",
     "experiment.sampling.tiles"},
    {"--kfrac", "F", member<&Options::env, &core::BenchEnv::k_fraction>,
     kConfigVerbs, "fraction of K-slices walked (as GPUPOWER_KFRAC)",
     "experiment.sampling.k_fraction"},
    {"--workers", "W", member<&Options::env, &core::BenchEnv::workers>,
     "sweep predict dvfs fleet run serve",
     "engine threads, 0 = all cores (as GPUPOWER_WORKERS)"},
    {"--timeline", "DSL", member<&Options::timeline>, "dvfs fleet",
     "workload, e.g. \"burst(period=0.2, duty=30%, dur=2)\""},
    {"--governor", "DSL", member<&Options::governor>, "dvfs fleet",
     "fixed(P) | utilization(up=..%, down=..%) | oracle()"},
    {"--slice", "S", member<&Options::slice_s>, "dvfs fleet",
     "replay time step in seconds (default 0.01)"},
    {"--pstates", "K", member<&Options::pstates>, "dvfs fleet",
     "P-state table depth, 1 = DVFS off (default 5)"},
    {"--devices", "N", member<&Options::devices>, "fleet",
     "fleet size (default 4)"},
    {"--cap", "W", member<&Options::cap_w>, "fleet",
     "shared fleet power cap in watts (default: uncapped)"},
    {"--allocator", "P", member<&Options::allocator>, "fleet",
     "uniform, proportional (default), priority, greedy"},
    {"--thermal", "on|off", member<&Options::thermal>, "fleet",
     "thread the RC die-temperature model across slices"},
    {"--emit-spec", "", member<&Options::emit_spec>, "sweep dvfs fleet",
     "print the equivalent spec JSON instead of running it"},
    {"--csv", "", member<&Options::csv>, "sweep dvfs fleet run",
     "print tables as CSV"},
    {"--json", "", member<&Options::json>, "sweep dvfs fleet run",
     "print the result document as JSON"},
    {"--bench-out", "FILE", member<&Options::bench_out>, "sweep run",
     "bench-document export of the run"},
    {"--metrics-out", "FILE", member<&Options::metrics_out>, "sweep run",
     "engine + obs metrics JSON after the run"},
    {"--trace-out", "FILE", member<&Options::trace_out>,
     "dmon sweep predict dvfs fleet run validate serve",
     "Chrome-trace JSON of the run (chrome://tracing)"},
    {"--expand", "", member<&Options::expand>, "validate",
     "print campaign point labels and dag node order"},
    {"--socket", "PATH", member<&Options::socket_path>, "serve top",
     "serve: accept clients on a Unix socket; top: poll it"},
    {"--full", "", member<&Options::full_results>, "serve",
     "attach full result documents to result events"},
    {"--stats-every", "N", member<&Options::stats_every>, "serve",
     "stats event every N results (default 0 = on request)", {},
     core::fields::Range{0}},
    {"--metrics-file", "FILE", member<&Options::metrics_file>, "top",
     "re-read a --metrics-out / GPUPOWER_METRICS document"},
    {"--interval", "MS", member<&Options::top_interval_ms>, "top",
     "poll interval in milliseconds (default 1000)", {},
     core::fields::Range{1}},
    {"--count", "N", member<&Options::top_count>, "top",
     "stop after N polls (default 0 = until ctrl-c)", {},
     core::fields::Range{0}},
    {"--plain", "", member<&Options::plain>, "top",
     "append frames instead of clearing the terminal"},
};

/// Whether the space-separated verb list names `verb`.
constexpr bool lists(std::string_view list, std::string_view verb) {
  while (!list.empty()) {
    const std::size_t end = std::min(list.find(' '), list.size());
    if (list.substr(0, end) == verb) return true;
    list.remove_prefix(std::min(end + 1, list.size()));
  }
  return false;
}

// A misspelt verb in a row would make the flag an error on that verb.
static_assert(std::ranges::all_of(kFlags, [](const Flag& flag) {
  return std::ranges::count_if(kVerbs, [&](const Verb& verb) {
           return lists(flag.verbs, verb.name);
         }) == std::ranges::count(flag.verbs, ' ') + 1;
}));

bool expected(const Flag& flag, std::string_view what, const char* text,
              std::string& error) {
  error = std::string(flag.name) + " expects " + std::string(what) +
          ", got '" + text + "'";
  return false;
}

/// Reads a numeric flag value whole — the end-pointer check env.cpp applies
/// to GPUPOWER_*: "--n 64x" is an error, never 64.  Integers must also fit
/// `out` (no silent narrowing).
template <typename T>
bool number_flag(const Flag& flag, const char* text, T& out,
                 std::string& error) {
  char* end = nullptr;
  if constexpr (std::is_floating_point_v<T>) {
    const double value = std::strtod(text, &end);
    if (end != text && *end == '\0') {
      out = value;
      return true;
    }
    return expected(flag, "a number", text, error);
  } else {
    errno = 0;
    const long long value = std::strtoll(text, &end, 10);
    if (end != text && *end == '\0' && errno == 0 &&
        std::in_range<T>(value)) {
      out = static_cast<T>(value);
      return true;
    }
    return expected(flag, "an integer", text, error);
  }
}

// One reader per member type; `text` is null for a switch.
bool read_value(const Flag& flag, const char* text, bool& out,
                std::string& error) {
  if (flag.arg.empty() || std::strcmp(text, "on") == 0) {
    out = true;
    return true;
  }
  if (std::strcmp(text, "off") == 0) {
    out = false;
    return true;
  }
  return expected(flag, "'on' or 'off'", text, error);
}

bool read_value(const Flag&, const char* text, std::string& out,
                std::string&) {
  out = text;
  return true;
}

template <typename T>
  requires std::is_arithmetic_v<T>
bool read_value(const Flag& flag, const char* text, T& out,
                std::string& error) {
  if (!number_flag(flag, text, out, error)) return false;
  if (flag.range && !flag.range->contains(static_cast<double>(out))) {
    error = core::fields::out_of_range(flag.name, text, *flag.range);
    return false;
  }
  return true;
}

bool read_value(const Flag& flag, const char* text, std::optional<double>& out,
                std::string& error) {
  return read_value(flag, text, out.emplace(), error);
}

bool read_value(const Flag& flag, const char* text,
                std::optional<numeric::DType>& out, std::string& error) {
  return numeric::parse_dtype(text, out.emplace()) ||
         expected(flag, "fp32 | fp16 | fp16t | int8", text, error);
}

bool read_value(const Flag& flag, const char* text,
                std::optional<core::FigureId>& out, std::string& error) {
  return core::parse_figure_id(text, out.emplace()) ||
         expected(flag, "fig3a..fig6d", text, error);
}

/// Parses `<verb> [flags]` (plus run/validate's <spec.json>) against the
/// tables: the verb, or nullptr with `error` set.
const Verb* parse_args(int argc, char** argv, Options& opts,
                       std::string& error) {
  if (argc < 2) {
    error = "missing command";
    return nullptr;
  }
  const Verb* verb = std::ranges::find(kVerbs, std::string_view(argv[1]),
                                       &Verb::name);
  if (verb == std::end(kVerbs)) {
    error = "unknown command '" + std::string(argv[1]) + "'";
    return nullptr;
  }
  opts.env = core::read_bench_env();
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const Flag* flag = std::ranges::find(kFlags, arg, &Flag::name);
    if (flag == std::end(kFlags)) {
      // Only run/validate take a positional (the spec path); a stray
      // positional on any other verb stays a hard error — "fleet 400"
      // must not silently run an uncapped fleet.
      if (verb->input == Input::kSpecPath && opts.spec_path.empty() &&
          !arg.starts_with("--")) {
        opts.spec_path = arg;
        continue;
      }
      error = "unknown option '" + std::string(arg) + "'";
      return nullptr;
    }
    if (!lists(flag->verbs, verb->name)) {
      error = std::string(arg) + " does not apply to " +
              std::string(verb->name);
      if (!flag->spec_field.empty() && verb->input != Input::kFlags) {
        const std::string field(flag->spec_field);
        error += ": a spec carries its own protocol; set " + field +
                 " in the spec (base." + field +
                 " in a campaign), or write a figure campaign with "
                 "'gpowerctl sweep --emit-spec'";
      }
      return nullptr;
    }
    const char* text = nullptr;
    if (!flag->arg.empty()) {
      if (i + 1 == argc) {
        error = std::string(arg) + " needs a value";
        return nullptr;
      }
      text = argv[++i];
    }
    const auto read = [&](auto at) {
      return read_value(*flag, text, at(opts), error);
    };
    if (!std::visit(read, flag->target)) return nullptr;
  }
  return verb;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <verb> [flags]\n"
               "verbs, each with the flags it reads (any other flag exits "
               "2):\n",
               argv0);
  for (const Verb& verb : kVerbs) {
    std::string head(verb.name);
    if (verb.input == Input::kSpecPath) head += " <spec.json>";
    std::fprintf(stderr, "  %-20s %s\n", head.c_str(),
                 std::string(verb.summary).c_str());
    std::string line;
    for (const Flag& flag : kFlags) {
      if (!lists(flag.verbs, verb.name)) continue;
      if (line.size() + 1 + flag.name.size() > 56) {
        std::fprintf(stderr, "%22s%s\n", "", line.c_str());
        line.clear();
      }
      line += ' ';
      line += flag.name;
    }
    if (!line.empty()) std::fprintf(stderr, "%22s%s\n", "", line.c_str());
  }
  std::fprintf(stderr, "flags:\n");
  for (const Flag& flag : kFlags) {
    std::string head(flag.name);
    if (!flag.arg.empty()) {
      head += ' ';
      head += flag.arg;
    }
    std::fprintf(stderr, "  %-20s %s\n", head.c_str(),
                 std::string(flag.help).c_str());
  }
  std::fprintf(stderr,
               "environment (strict; malformed values exit 2):\n"
               "  GPUPOWER_STORE_DIR  persistent result store for run/serve: "
               "completed\n"
               "                      scenarios are written back and warm "
               "replays skip\n"
               "                      every replica computation\n"
               "  GPUPOWER_STORE      'on' | 'off' — disable the store "
               "without unsetting\n"
               "                      the directory\n"
               "  GPUPOWER_TRACE      Chrome-trace output path (same as "
               "--trace-out;\n"
               "                      the flag wins when both are set)\n"
               "  GPUPOWER_METRICS    'on' | 'off' — arm the metrics "
               "registry without\n"
               "                      tracing\n"
               "  GPUPOWER_N/SEEDS/TILES/KFRAC/WORKERS  see README (specs "
               "take only WORKERS)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  std::string error;
  const Verb* verb = parse_args(argc, argv, opts, error);
  if (verb == nullptr) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return usage(argv[0]);
  }
  // Flags win over the GPUPOWER_TRACE / GPUPOWER_METRICS environment:
  // apply them before any engine construction runs obs::init_from_env(),
  // which only fills still-default knobs.
  if (!opts.trace_out.empty()) core::obs::set_trace_path(opts.trace_out);
  if (!opts.metrics_out.empty()) core::obs::set_metrics_enabled(true);
  return verb->run(opts);
}
