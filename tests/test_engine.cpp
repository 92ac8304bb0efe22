#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/config_builder.hpp"
#include "core/figures.hpp"
#include "core/spec.hpp"
#include "core/store/result_store.hpp"

namespace gpupower::core {
namespace {

ExperimentConfig small_config(gpupower::numeric::DType dtype =
                                  gpupower::numeric::DType::kFP16) {
  ExperimentConfig config;
  config.dtype = dtype;
  config.n = 64;
  config.seeds = 2;
  config.sampling = gpupower::gpusim::SamplingPlan::fast(6, 0.5);
  config.pattern = baseline_gaussian_spec();
  return config;
}

// A campaign sweeping `figure` over `base`: the one figure-sweep path.
ScenarioSpec figure_campaign(const ExperimentConfig& base,
                             std::string_view figure) {
  analysis::JsonValue axis = analysis::JsonValue::object();
  axis.set("field", analysis::JsonValue::string("experiment.pattern"))
      .set("figure", analysis::JsonValue::string(figure));
  analysis::JsonValue axes = analysis::JsonValue::array();
  axes.push(std::move(axis));
  analysis::JsonValue doc = analysis::JsonValue::object();
  doc.set("scenario", analysis::JsonValue::string("campaign"))
      .set("base", spec_to_json(base))
      .set("axes", std::move(axes));
  const SpecParseResult parsed = parse_scenario_spec(doc);
  EXPECT_TRUE(parsed.ok) << parsed.error;
  return parsed.spec;
}

EngineOptions four_workers() {
  EngineOptions options;
  options.workers = 4;
  return options;
}

void expect_identical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_DOUBLE_EQ(a.power_w, b.power_w);
  EXPECT_DOUBLE_EQ(a.power_std_w, b.power_std_w);
  EXPECT_DOUBLE_EQ(a.iteration_s, b.iteration_s);
  EXPECT_DOUBLE_EQ(a.energy_per_iter_j, b.energy_per_iter_j);
  EXPECT_DOUBLE_EQ(a.alignment, b.alignment);
  EXPECT_DOUBLE_EQ(a.weight_fraction, b.weight_fraction);
  EXPECT_DOUBLE_EQ(a.rails.fetch_w, b.rails.fetch_w);
  EXPECT_DOUBLE_EQ(a.rails.operand_w, b.rails.operand_w);
  EXPECT_DOUBLE_EQ(a.rails.multiply_w, b.rails.multiply_w);
  EXPECT_DOUBLE_EQ(a.rails.accum_w, b.rails.accum_w);
  EXPECT_DOUBLE_EQ(a.rails.issue_w, b.rails.issue_w);
  EXPECT_EQ(a.throttled, b.throttled);
  EXPECT_DOUBLE_EQ(a.clock_frac, b.clock_frac);
  EXPECT_EQ(a.seeds, b.seeds);
}

// The acceptance criterion: a full-figure sweep through the engine with >=4
// worker threads is bit-identical to the serial run_experiment path.
TEST(ExperimentEngine, FullFigureSweepMatchesSerialBitwise) {
  ExperimentEngine engine(four_workers());
  ASSERT_GE(engine.workers(), 4);

  const ExperimentConfig base = small_config();
  CampaignRun run;
  std::string error;
  ASSERT_TRUE(submit_campaign(engine, figure_campaign(base, "fig6a"), run,
                              error))
      << error;
  engine.wait_all();

  const auto points = figure_sweep(FigureId::kFig6aSparsity);
  ASSERT_EQ(run.points.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(run.points[i].label, points[i].label);
    ExperimentConfig config = base;
    config.pattern = points[i].spec;
    const ExperimentResult serial = run_experiment(config);
    expect_identical(run.handles[i].get().static_result(), serial);
  }
}

// Seed replicas fan across threads; the reduction must still fold them in
// seed order.  More seeds than workers forces interleaving.
TEST(ExperimentEngine, ManySeedsMatchSerialBitwise) {
  ExperimentEngine engine(four_workers());
  ExperimentConfig config = small_config();
  config.seeds = 7;
  const ExperimentResult parallel =
      engine.submit(config).get().static_result();
  expect_identical(parallel, run_experiment(config));
}

TEST(ExperimentEngine, WorkerCountDoesNotChangeResults) {
  EngineOptions one;
  one.workers = 1;
  ExperimentEngine serial_engine(one);
  ExperimentEngine parallel_engine(four_workers());
  const ExperimentConfig config = small_config();
  expect_identical(serial_engine.submit(config).get().static_result(),
                   parallel_engine.submit(config).get().static_result());
}

// The acceptance criterion: resubmitting the same sweep point reports a
// cache hit.
TEST(ExperimentEngine, DuplicateSubmitHitsCache) {
  ExperimentEngine engine(four_workers());
  const ExperimentConfig config = small_config();

  const ScenarioHandle first = engine.submit(config);
  const ScenarioHandle second = engine.submit(config);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.jobs_computed, 1u);
  EXPECT_GE(stats.cache_hits, 1u);
  expect_identical(first.get().static_result(),
                   second.get().static_result());
}

TEST(ExperimentEngine, DuplicatedSweepIsComputedOnce) {
  ExperimentEngine engine(four_workers());
  const ScenarioSpec spec = figure_campaign(small_config(), "fig3c");

  CampaignRun first;
  CampaignRun second;
  std::string error;
  ASSERT_TRUE(submit_campaign(engine, spec, first, error)) << error;
  ASSERT_TRUE(submit_campaign(engine, spec, second, error)) << error;
  engine.wait_all();

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, 2 * first.points.size());
  EXPECT_EQ(stats.jobs_computed, first.points.size());
  EXPECT_EQ(stats.cache_hits, second.points.size());
  for (std::size_t i = 0; i < first.points.size(); ++i) {
    expect_identical(first.handles[i].get().static_result(),
                     second.handles[i].get().static_result());
  }
}

TEST(ExperimentEngine, DistinctConfigsMissCache) {
  ExperimentEngine engine(four_workers());
  ExperimentConfig config = small_config();
  (void)engine.submit(config);
  config.base_seed = 1234;
  (void)engine.submit(config);
  config.n = 128;
  (void)engine.submit(config);
  config.dtype = gpupower::numeric::DType::kINT8;
  (void)engine.submit(config);
  engine.wait_all();

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.jobs_computed, 4u);
  EXPECT_EQ(stats.cache_hits, 0u);
}

TEST(ExperimentEngine, CacheCanBeDisabled) {
  EngineOptions options = four_workers();
  options.cache_enabled = false;
  ExperimentEngine engine(options);
  const ExperimentConfig config = small_config();
  const ScenarioHandle first = engine.submit(config);
  const ScenarioHandle second = engine.submit(config);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.jobs_computed, 2u);
  EXPECT_EQ(stats.cache_hits, 0u);
  // Still bit-identical: independent computations of the same config.
  expect_identical(first.get().static_result(),
                   second.get().static_result());
}

TEST(ExperimentEngine, ClearCacheForcesRecompute) {
  ExperimentEngine engine(four_workers());
  const ExperimentConfig config = small_config();
  const ScenarioHandle first = engine.submit(config);
  engine.clear_cache();
  const ScenarioHandle second = engine.submit(config);
  EXPECT_EQ(engine.stats().jobs_computed, 2u);
  expect_identical(first.get().static_result(),
                   second.get().static_result());
}

TEST(ExperimentEngine, WaitAllCompletesEverything) {
  ExperimentEngine engine(four_workers());
  std::vector<ScenarioHandle> handles;
  for (const auto dtype : gpupower::numeric::kAllDTypes) {
    handles.push_back(engine.submit(small_config(dtype)));
  }
  engine.wait_all();
  for (const auto& handle : handles) {
    EXPECT_TRUE(handle.ready());
    EXPECT_GT(handle.get().static_result().power_w, 0.0);
  }
  EXPECT_EQ(engine.stats().replicas_run, 4u * 2u);
}

TEST(ExperimentEngine, HandlesKeepTheirSubmittedConfig) {
  ExperimentEngine engine(four_workers());
  std::vector<ExperimentConfig> configs;
  std::vector<ScenarioHandle> handles;
  for (const auto dtype : gpupower::numeric::kAllDTypes) {
    configs.push_back(small_config(dtype));
    handles.push_back(engine.submit(configs.back()));
  }
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(handles[i].kind(), ScenarioKind::kStatic);
    EXPECT_EQ(handles[i].config().static_config().dtype, configs[i].dtype);
    expect_identical(handles[i].get().static_result(),
                     run_experiment(configs[i]));
  }
}

// Every SubmitOutcome value, from the submit that produced it: a fresh
// config computes; a duplicate of an in-flight or completed job joins it;
// a warm store serves it; a cache-less engine always computes.
TEST(ExperimentEngine, SubmitOutcomeReportsHowEachSubmitWasServed) {
  using Outcome = ExperimentEngine::SubmitOutcome;
  const ExperimentConfig config = small_config();
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("gpupower_test_outcome_" +
       std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
  std::filesystem::remove_all(dir);
  StoreOptions store_options;
  store_options.dir = dir.string();
  EngineOptions stored = EngineOptions::with_workers(1);
  stored.store = std::make_shared<ResultStore>(store_options);
  {
    ExperimentEngine engine(stored);
    // The sole worker is busy with `blocker`, so `config`'s job is still
    // queued when its duplicate arrives.
    ExperimentConfig blocker = small_config();
    blocker.n = 256;
    blocker.seeds = 4;
    (void)engine.submit(blocker);
    Outcome fresh = Outcome::kStoreHit;
    Outcome in_flight = Outcome::kComputed;
    Outcome completed = Outcome::kComputed;
    const ScenarioHandle first = engine.submit(config, &fresh);
    (void)engine.submit(config, &in_flight);
    (void)first.get();
    (void)engine.submit(config, &completed);
    EXPECT_EQ(fresh, Outcome::kComputed);
    EXPECT_EQ(in_flight, Outcome::kCacheHit);
    EXPECT_EQ(completed, Outcome::kCacheHit);
  }
  {
    ExperimentEngine warm(stored);
    Outcome outcome = Outcome::kComputed;
    (void)warm.submit(config, &outcome);
    EXPECT_EQ(outcome, Outcome::kStoreHit);
    EXPECT_EQ(warm.stats().jobs_computed, 0u);
  }
  {
    EngineOptions cacheless = stored;
    cacheless.cache_enabled = false;
    ExperimentEngine engine(cacheless);
    for (int i = 0; i < 2; ++i) {
      Outcome outcome = Outcome::kCacheHit;
      (void)engine.submit(config, &outcome);
      EXPECT_EQ(outcome, Outcome::kComputed);
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(ExperimentEngine, RejectsZeroSeedConfig) {
  // A zero-seed job used to "complete" instantly with an all-zero result;
  // it must be rejected loudly instead.
  ExperimentEngine engine(four_workers());
  ExperimentConfig config = small_config();
  config.seeds = 0;
  EXPECT_THROW((void)engine.submit(config), std::invalid_argument);
  config.seeds = -1;
  EXPECT_THROW((void)engine.submit(config), std::invalid_argument);
  engine.wait_all();  // nothing outstanding; must not hang
}

TEST(ScenarioHandle, InvalidHandleThrowsInsteadOfUB) {
  // A default-constructed handle has no job; its accessors must throw
  // rather than dereference null.
  ScenarioHandle handle;
  EXPECT_FALSE(handle.valid());
  EXPECT_THROW((void)handle.get(), std::logic_error);
  EXPECT_THROW((void)handle.ready(), std::logic_error);
  EXPECT_THROW((void)handle.config(), std::logic_error);
  EXPECT_THROW((void)handle.kind(), std::logic_error);

  // A real handle stays valid after copies.
  ExperimentEngine engine(four_workers());
  const ScenarioHandle live = engine.submit(small_config());
  const ScenarioHandle copy = live;
  engine.wait_all();
  EXPECT_TRUE(copy.valid());
  EXPECT_TRUE(copy.ready());
  EXPECT_GT(copy.get().static_result().power_w, 0.0);
}

TEST(ExperimentEngine, EngineOutlivesManySubmissions) {
  // Stress the queue with more jobs than workers to exercise interleaving.
  ExperimentEngine engine(four_workers());
  std::vector<ScenarioHandle> handles;
  for (int i = 0; i < 12; ++i) {
    ExperimentConfig config = small_config();
    config.base_seed = static_cast<std::uint64_t>(i);
    handles.push_back(engine.submit(config));
  }
  engine.wait_all();
  for (const auto& handle : handles) EXPECT_TRUE(handle.ready());
  EXPECT_EQ(engine.stats().jobs_computed, 12u);
}

}  // namespace
}  // namespace gpupower::core
