// The unified scenario API and its JSON spec front end:
//  - spec round-trips: parse(spec_to_json(config)) reproduces the exact
//    canonical cache key for every scenario kind, and golden keys pin
//    those bytes so existing result stores stay warm;
//  - malformed specs fail with pointed errors naming the offending key;
//  - campaign grids expand the cross product and patch arbitrary dotted
//    fields;
//  - the acceptance equivalences: a fleet-of-one, uncapped, thermal-off
//    spec is bit-identical to the same timeline submitted as a DVFS config,
//    and a campaign covering a figure sweep is bit-identical to submitting
//    each sweep point by hand (shared engine cache pins key identity);
//  - EngineStats breaks the counters down by scenario kind.
#include "core/spec.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/config_builder.hpp"
#include "core/engine.hpp"
#include "core/figures.hpp"
#include "core/scenario.hpp"

namespace gpupower::core {
namespace {

ExperimentConfig small_experiment() {
  return ExperimentConfigBuilder()
      .dtype("fp16")
      .n(64)
      .seeds(2)
      .sampling(gpupower::gpusim::SamplingPlan::fast(6, 0.5))
      .pattern("gaussian(sigma=210) | sparsity(25%)")
      .build();
}

DvfsConfig small_dvfs() {
  return DvfsConfigBuilder()
      .experiment(small_experiment())
      .governor("utilization(up=80%, down=30%)")
      .timeline("burst(period=0.2, duty=30%, high=100%, low=5%, dur=0.5)")
      .slice(0.01)
      .pstates(5)
      .build();
}

FleetConfig small_fleet() {
  gpupower::gpusim::fleet::ThermalConfig thermal;
  thermal.enabled = true;
  return FleetConfigBuilder()
      .experiment(small_experiment())
      .add_timeline("burst(period=0.2, duty=30%, high=100%, low=5%, dur=0.5)")
      .add_device(gpupower::gpusim::GpuModel::kA100PCIe,
                  "utilization(up=70%, down=30%)", 0, 2)
      .add_device(gpupower::gpusim::GpuModel::kH100SXM, "fixed(2)", 0, 1)
      .allocator("priority")
      .cap(417.345678901234567)  // deliberately not %g-representable
      .thermal(thermal)
      .slice(0.01)
      .pstates(5)
      .build();
}

ScenarioConfig round_trip(const ScenarioConfig& config) {
  const std::string text = spec_to_json(config).dump(/*pretty=*/true);
  const SpecParseResult parsed = parse_scenario_spec_text(text);
  EXPECT_TRUE(parsed.ok) << parsed.error << "\nspec was:\n" << text;
  return parsed.spec.config;
}

// --- round-trips -----------------------------------------------------------

TEST(Spec, RoundTripStaticCanonicalKey) {
  ExperimentConfig config = small_experiment();
  gpupower::gpusim::ProcessVariation variation;
  variation.sigma_fraction = 0.03;
  variation.instance = 7;
  variation.per_seed = true;
  config.variation = variation;
  config.base_seed = 1234567;
  const ScenarioConfig original{config};
  EXPECT_EQ(canonical_scenario_key(round_trip(original)),
            canonical_scenario_key(original));
}

TEST(Spec, RoundTripDvfsCanonicalKey) {
  DvfsConfig config = small_dvfs();
  // Values that do not survive 6-significant-digit display rounding: the
  // spec document must carry full precision.
  config.governor.boost_util = 0.123456789012345;
  config.slice_s = 0.0100000000000002;
  const ScenarioConfig original{config};
  EXPECT_EQ(canonical_scenario_key(round_trip(original)),
            canonical_scenario_key(original));
}

TEST(Spec, RoundTripFleetCanonicalKey) {
  const ScenarioConfig original{small_fleet()};
  EXPECT_EQ(canonical_scenario_key(round_trip(original)),
            canonical_scenario_key(original));
}

TEST(Spec, RoundTripDvfsWithPhasePatterns) {
  const DvfsConfig config =
      DvfsConfigBuilder()
          .experiment(small_experiment())
          .timeline("constant(util=80%, dur=0.2, pattern=0) | idle(dur=0.1)")
          .add_phase_pattern("gaussian(sigma=100) | zero_lsb(0.5)")
          .slice(0.01)
          .pstates(3)
          .build();
  const ScenarioConfig original{config};
  EXPECT_EQ(canonical_scenario_key(round_trip(original)),
            canonical_scenario_key(original));
}

// --- golden canonical keys ------------------------------------------------

// The canonical key is the engine cache key and the result-store entry
// key (hashed into its file name), so its bytes are a persistence format:
// any change orphans every existing store entry.  These pin the exact
// bytes for one config of each kind; update them only together with a
// deliberate store migration.
constexpr const char* kStaticKey =
    "static\x1f"
    "gpu=NVIDIA A100 PCIe 40GB|dtype=FP16|n=64|seeds=2|iters=10000|base=42|"
    "samp=6:0.5:24301|smpl=0.10000000000000001:0.5:0.14999999999999999:1.2|"
    "var=none|pattern=gaussian(mean=0, sigma=210) | sparsity(0.25)|"
    "praw=0:0:210:8:0:0:0.25:0:0:t";
constexpr const char* kDvfsKey =
    "dvfs\x1f"
    "gpu=NVIDIA A100 PCIe 40GB|dtype=FP16|n=64|seeds=2|iters=10000|base=42|"
    "samp=6:0.5:24301|smpl=0.10000000000000001:0.5:0.14999999999999999:1.2|"
    "var=none|pattern=gaussian(mean=0, sigma=210) | sparsity(0.25)|"
    "praw=0:0:210:8:0:0:0.25:0:0:t|"
    "gov=1:0:0.80000000000000004:0.01:0.29999999999999999:"
    "0.029999999999999999|slice=0.01|pstates=5|"
    "tl=constant(util=1, dur=0.059999999999999998) |"
    " constant(util=0.050000000000000003, dur=0.13999999999999999) |"
    " constant(util=1, dur=0.059999999999999998) |"
    " constant(util=0.050000000000000003, dur=0.13999999999999999) |"
    " constant(util=1, dur=0.059999999999999998) |"
    " constant(util=0.050000000000000003, dur=0.03999999999999998)";
constexpr const char* kFleetKey =
    "fleet\x1f"
    "gpu=NVIDIA A100 PCIe 40GB|dtype=FP16|n=64|seeds=2|iters=10000|base=42|"
    "samp=6:0.5:24301|smpl=0.10000000000000001:0.5:0.14999999999999999:1.2|"
    "var=none|pattern=gaussian(mean=0, sigma=210) | sparsity(0.25)|"
    "praw=0:0:210:8:0:0:0.25:0:0:t|alloc=2:417.34567890123458|"
    "thermal=30:8:87:78:-1:-1|slice=0.01|pstates=5|"
    "tl=constant(util=1, dur=0.059999999999999998) |"
    " constant(util=0.050000000000000003, dur=0.13999999999999999) |"
    " constant(util=1, dur=0.059999999999999998) |"
    " constant(util=0.050000000000000003, dur=0.13999999999999999) |"
    " constant(util=1, dur=0.059999999999999998) |"
    " constant(util=0.050000000000000003, dur=0.03999999999999998)|"
    "dev=NVIDIA A100 PCIe 40GB:1:0:0.69999999999999996:0.01:"
    "0.29999999999999999:0.029999999999999999:0:2|"
    "dev=NVIDIA H100 80GB HBM3:0:2:0.80000000000000004:0.01:"
    "0.29999999999999999:0.029999999999999999:0:1";

TEST(Spec, CanonicalKeysMatchGoldenBytes) {
  EXPECT_EQ(canonical_scenario_key(ScenarioConfig(small_experiment())),
            kStaticKey);
  EXPECT_EQ(canonical_scenario_key(ScenarioConfig(small_dvfs())), kDvfsKey);
  EXPECT_EQ(canonical_scenario_key(ScenarioConfig(small_fleet())), kFleetKey);
}

// --- pointed errors --------------------------------------------------------

TEST(Spec, UnknownKeyFailsNamingTheKey) {
  const SpecParseResult parsed = parse_scenario_spec_text(R"json({
    "scenario": "static",
    "experiment": {"dtype": "fp16", "n": 64, "seeds": 1, "dtyep": "fp32"}
  })json");
  ASSERT_FALSE(parsed.ok);
  EXPECT_NE(parsed.error.find("'dtyep'"), std::string::npos) << parsed.error;
  EXPECT_NE(parsed.error.find("experiment"), std::string::npos)
      << parsed.error;
}

TEST(Spec, UnknownTopLevelKeyFails) {
  const SpecParseResult parsed = parse_scenario_spec_text(R"json({
    "scenario": "dvfs",
    "timeline": "idle(dur=0.1)",
    "governer": "oracle()"
  })json");
  ASSERT_FALSE(parsed.ok);
  EXPECT_NE(parsed.error.find("'governer'"), std::string::npos)
      << parsed.error;
}

TEST(Spec, DanglingPhasePatternReferenceFails) {
  const SpecParseResult parsed = parse_scenario_spec_text(R"json({
    "scenario": "dvfs",
    "experiment": {"dtype": "fp16", "n": 64, "seeds": 1},
    "timeline": "constant(util=80%, dur=0.2, pattern=1)",
    "phase_patterns": ["gaussian()"]
  })json");
  ASSERT_FALSE(parsed.ok);
  EXPECT_NE(parsed.error.find("phase pattern"), std::string::npos)
      << parsed.error;
}

TEST(Spec, MissingTimelineFails) {
  const SpecParseResult parsed =
      parse_scenario_spec_text(R"json({"scenario": "dvfs"})json");
  ASSERT_FALSE(parsed.ok);
  EXPECT_NE(parsed.error.find("timeline"), std::string::npos) << parsed.error;
}

// Integers are range-checked against their field's row before they narrow:
// 4294967297 must not wrap to 1, nor -5 to 2^64 - 5.
TEST(Spec, OutOfRangeIntegersFailNamingTheDottedKey) {
  const struct {
    const char* spec;
    const char* key;
  } cases[] = {
      {R"json({"scenario": "static",
               "experiment": {"n": 64, "seeds": 4294967297}})json",
       "experiment.seeds"},
      {R"json({"scenario": "static",
               "experiment": {"n": 64, "sampling": {"tiles": -5}}})json",
       "experiment.sampling.tiles"},
      {R"json({"scenario": "dvfs", "experiment": {"n": 64},
               "timeline": "idle(dur=0.1)", "pstates": 4294967301})json",
       "pstates"},
      {R"json({"scenario": "dvfs", "experiment": {"n": 64},
               "timeline": "idle(dur=0.1)",
               "governor": {"policy": "fixed",
                            "fixed_pstate": 4294967297}})json",
       "governor.fixed_pstate"},
      {R"json({"scenario": "fleet", "experiment": {"n": 64},
               "timelines": ["idle(dur=0.1)"],
               "devices": [{"timeline": 4294967296}]})json",
       "devices[0].timeline"},
      {R"json({"scenario": "fleet", "experiment": {"n": 64},
               "timelines": ["idle(dur=0.1)"],
               "devices": [{"priority": 4294967297}]})json",
       "devices[0].priority"},
      {R"json({"scenario": "fleet", "experiment": {"n": 64},
               "staggered": {"timeline": "idle(dur=0.1)",
                             "count": 4294967297}})json",
       "staggered.count"},
      {R"json({"scenario": "fleet", "experiment": {"n": 64},
               "timelines": ["idle(dur=0.1)"], "devices": [{}],
               "thermal": {"throttle_pstate": 4294967297}})json",
       "thermal.throttle_pstate"},
      {R"json({"scenario": "fleet", "experiment": {"n": 64},
               "timelines": ["idle(dur=0.1)"], "devices": [{}],
               "pstates": 4294967301})json",
       "pstates"},
  };
  for (const auto& c : cases) {
    const SpecParseResult parsed = parse_scenario_spec_text(c.spec);
    ASSERT_FALSE(parsed.ok) << c.spec;
    EXPECT_NE(parsed.error.find(c.key), std::string::npos)
        << c.key << ": " << parsed.error;
  }
}

TEST(Spec, MalformedJsonReportsByteOffset) {
  const SpecParseResult parsed =
      parse_scenario_spec_text(R"json({"scenario": "static",})json");
  ASSERT_FALSE(parsed.ok);
  EXPECT_NE(parsed.error.find("JSON syntax error"), std::string::npos)
      << parsed.error;
}

TEST(Spec, BadCampaignAxisFieldFailsAtExpansion) {
  // "allocatr" patches an unknown key into the fleet base; the strict
  // per-point parse rejects it, naming both the point and the key.
  const SpecParseResult parsed = parse_scenario_spec_text(R"json({
    "scenario": "campaign",
    "base": {
      "scenario": "fleet",
      "experiment": {"dtype": "fp16", "n": 64, "seeds": 1},
      "timelines": ["idle(dur=0.1)"],
      "devices": [{}]
    },
    "axes": [{"field": "allocatr", "values": ["uniform", "priority"]}]
  })json");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  std::vector<CampaignPoint> points;
  std::string error;
  EXPECT_FALSE(expand_campaign(parsed.spec, points, error));
  EXPECT_NE(error.find("'allocatr'"), std::string::npos) << error;
}

TEST(Spec, EmptyCampaignAxisValuesFail) {
  const SpecParseResult parsed = parse_scenario_spec_text(R"json({
    "scenario": "campaign",
    "base": {"scenario": "static"},
    "axes": [{"field": "experiment.n", "values": []}]
  })json");
  ASSERT_FALSE(parsed.ok);
  EXPECT_NE(parsed.error.find("values"), std::string::npos) << parsed.error;
}

TEST(Spec, CampaignCannotSweepScenarioKind) {
  const SpecParseResult parsed = parse_scenario_spec_text(R"json({
    "scenario": "campaign",
    "base": {"scenario": "static"},
    "axes": [{"field": "scenario", "values": ["static", "dvfs"]}]
  })json");
  ASSERT_FALSE(parsed.ok);
  EXPECT_NE(parsed.error.find("scenario"), std::string::npos) << parsed.error;
}

// --- campaign expansion ----------------------------------------------------

TEST(Spec, CampaignExpandsCrossProductRowMajor) {
  const SpecParseResult parsed = parse_scenario_spec_text(R"json({
    "scenario": "campaign",
    "base": {
      "scenario": "static",
      "experiment": {"dtype": "fp16", "n": 64, "seeds": 1}
    },
    "axes": [
      {"field": "experiment.dtype", "values": ["fp16", "int8"]},
      {"field": "experiment.n", "values": [{"value": 64, "label": "n64"},
                                           {"value": 96, "label": "n96"},
                                           {"value": 128, "label": "n128"}]}
    ]
  })json");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  std::vector<CampaignPoint> points;
  std::string error;
  ASSERT_TRUE(expand_campaign(parsed.spec, points, error)) << error;
  ASSERT_EQ(points.size(), 6u);
  EXPECT_EQ(points[0].label, "fp16@n64");
  EXPECT_EQ(points[2].label, "fp16@n128");
  EXPECT_EQ(points[3].label, "int8@n64");
  EXPECT_EQ(points[5].label, "int8@n128");
  EXPECT_EQ(points[5].config.experiment().n, 128u);
  EXPECT_EQ(points[5].config.experiment().dtype,
            gpupower::numeric::DType::kINT8);
  // Every grid point is a distinct job.
  EXPECT_NE(canonical_scenario_key(points[0].config),
            canonical_scenario_key(points[1].config));
}

TEST(Spec, CampaignPatchCreatesMissingIntermediateObjects) {
  // The base omits "experiment" entirely; the axis patch creates it.
  const SpecParseResult parsed = parse_scenario_spec_text(R"json({
    "scenario": "campaign",
    "base": {"scenario": "static"},
    "axes": [{"field": "experiment.n", "values": [64, 96]}]
  })json");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  std::vector<CampaignPoint> points;
  std::string error;
  ASSERT_TRUE(expand_campaign(parsed.spec, points, error)) << error;
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].config.experiment().n, 64u);
  EXPECT_EQ(points[1].config.experiment().n, 96u);
}

// --- scenario submission equivalences --------------------------------------

void expect_identical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_DOUBLE_EQ(a.power_w, b.power_w);
  EXPECT_DOUBLE_EQ(a.power_std_w, b.power_std_w);
  EXPECT_DOUBLE_EQ(a.iteration_s, b.iteration_s);
  EXPECT_DOUBLE_EQ(a.energy_per_iter_j, b.energy_per_iter_j);
  EXPECT_DOUBLE_EQ(a.alignment, b.alignment);
  EXPECT_DOUBLE_EQ(a.weight_fraction, b.weight_fraction);
  EXPECT_EQ(a.throttled, b.throttled);
  EXPECT_DOUBLE_EQ(a.clock_frac, b.clock_frac);
  EXPECT_EQ(a.seeds, b.seeds);
}

TEST(Scenario, TypeErasedSubmitMatchesSerialReference) {
  ExperimentEngine engine(EngineOptions::with_workers(4));
  const ExperimentConfig config = small_experiment();
  const ScenarioHandle handle = engine.submit(ScenarioConfig(config));
  EXPECT_EQ(handle.kind(), ScenarioKind::kStatic);
  expect_identical(handle.get().static_result(), run_experiment(config));
}

TEST(Scenario, SubmitRejectsInvalidConfigsViaRegistry) {
  ExperimentEngine engine(EngineOptions::with_workers(2));
  ExperimentConfig config = small_experiment();
  config.seeds = 0;
  EXPECT_THROW((void)engine.submit(ScenarioConfig(config)),
               std::invalid_argument);
  DvfsConfig dvfs;  // default: empty timeline
  dvfs.experiment = small_experiment();
  EXPECT_THROW((void)engine.submit(ScenarioConfig(dvfs)),
               std::invalid_argument);
  // Hand-built configs get the same field ranges the builders and the spec
  // parser apply.
  config = small_experiment();
  config.n = 1 << 20;
  EXPECT_THROW((void)engine.submit(ScenarioConfig(config)),
               std::invalid_argument);
  config = small_experiment();
  config.sampling.k_fraction = 7.0;
  EXPECT_THROW((void)engine.submit(ScenarioConfig(config)),
               std::invalid_argument);
  dvfs = small_dvfs();
  dvfs.slice_s = 1e-9;
  EXPECT_THROW((void)engine.submit(ScenarioConfig(dvfs)),
               std::invalid_argument);
  engine.wait_all();  // nothing outstanding; must not hang
}

// The acceptance criterion: a fleet of one device, uncapped, thermal off,
// authored as a JSON spec, is bit-identical to the same timeline submitted
// as a DVFS config.
TEST(Scenario, FleetOfOneSpecMatchesSubmitDvfsBitwise) {
  const SpecParseResult parsed = parse_scenario_spec_text(R"json({
    "scenario": "fleet",
    "experiment": {
      "gpu": "a100", "dtype": "fp16", "n": 64, "seeds": 2,
      "pattern": "gaussian(sigma=210) | sparsity(25%)",
      "sampling": {"tiles": 6, "k_fraction": 0.5}
    },
    "timelines": ["burst(period=0.2, duty=30%, high=100%, low=5%, dur=0.5)"],
    "devices": [{"gpu": "a100", "governor": "utilization(up=80%, down=30%)"}],
    "cap_w": null,
    "slice_s": 0.01,
    "pstates": 5
  })json");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  ASSERT_EQ(parsed.spec.config.kind(), ScenarioKind::kFleet);

  ExperimentEngine engine(EngineOptions::with_workers(4));
  const ScenarioHandle fleet_handle = engine.submit(parsed.spec.config);
  const ScenarioHandle dvfs_handle =
      engine.submit(ScenarioConfig(small_dvfs()));
  engine.wait_all();

  const FleetResult& fleet = fleet_handle.get().fleet();
  const DvfsResult& dvfs = dvfs_handle.get().dvfs();
  EXPECT_DOUBLE_EQ(fleet.energy_j, dvfs.energy_j);
  EXPECT_DOUBLE_EQ(fleet.energy_std_j, dvfs.energy_std_j);
  EXPECT_DOUBLE_EQ(fleet.avg_power_w, dvfs.avg_power_w);
  EXPECT_DOUBLE_EQ(fleet.peak_power_w, dvfs.peak_power_w);
  EXPECT_DOUBLE_EQ(fleet.completion_s, dvfs.completion_s);
  EXPECT_DOUBLE_EQ(fleet.backlog_max_s, dvfs.backlog_max_s);
  EXPECT_DOUBLE_EQ(fleet.mean_backlog_s, dvfs.mean_backlog_s);
  EXPECT_DOUBLE_EQ(fleet.transitions, dvfs.transitions);
  // Slice-level trace identity of the representative seed.
  ASSERT_EQ(fleet.trace.devices.size(), 1u);
  const auto& fleet_slices = fleet.trace.devices[0].replay.slices;
  const auto& dvfs_slices = dvfs.trace.slices;
  ASSERT_EQ(fleet_slices.size(), dvfs_slices.size());
  for (std::size_t i = 0; i < fleet_slices.size(); ++i) {
    EXPECT_DOUBLE_EQ(fleet_slices[i].power_w, dvfs_slices[i].power_w);
    EXPECT_EQ(fleet_slices[i].pstate, dvfs_slices[i].pstate);
    EXPECT_DOUBLE_EQ(fleet_slices[i].backlog_s, dvfs_slices[i].backlog_s);
  }
  // A fleet of one: the p99-across-devices SLO metric equals the max.
  EXPECT_DOUBLE_EQ(fleet.backlog_p99_s, fleet.backlog_max_s);
}

// The acceptance criterion: a campaign spec covering a figure sweep is
// bit-identical to submitting `base` with each sweep point's PatternSpec
// by hand — pinned through the shared engine cache (identical canonical
// keys mean the campaign's submissions all attach to the hand-built jobs;
// the figure axis carries patterns as DSL text, so this also pins the DSL
// round trip).
TEST(Scenario, CampaignFigureSweepMatchesPerPointSubmitsBitwise) {
  ExperimentEngine engine(EngineOptions::with_workers(4));
  ExperimentConfig base = small_experiment();
  base.pattern = baseline_gaussian_spec();
  const std::vector<SweepPoint> sweep = figure_sweep(FigureId::kFig6aSparsity);
  std::vector<ScenarioHandle> hand_handles;
  for (const SweepPoint& point : sweep) {
    ExperimentConfig config = base;
    config.pattern = point.spec;
    hand_handles.push_back(engine.submit(config));
  }

  const std::string base_spec =
      spec_to_json(ScenarioConfig(base)).dump(/*pretty=*/false);
  const SpecParseResult parsed = parse_scenario_spec_text(
      std::string(R"json({"scenario": "campaign", "base": )json") +
      base_spec +
      R"json(, "axes": [{"field": "experiment.pattern", "figure": "fig6a"}]})json");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  std::vector<CampaignPoint> points;
  std::string error;
  ASSERT_TRUE(expand_campaign(parsed.spec, points, error)) << error;
  ASSERT_EQ(points.size(), sweep.size());

  std::vector<ScenarioHandle> handles;
  for (const CampaignPoint& point : points) {
    handles.push_back(engine.submit(point.config));
  }
  engine.wait_all();

  const EngineStats stats = engine.stats();
  // Every campaign point attached to the hand-built job: key identity.
  EXPECT_EQ(stats.cache_hits, points.size());
  EXPECT_EQ(stats.jobs_computed, sweep.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].label, sweep[i].label);
    expect_identical(handles[i].get().static_result(),
                     hand_handles[i].get().static_result());
  }
}

// --- per-kind engine stats --------------------------------------------------

TEST(Engine, StatsBreakDownByScenarioKind) {
  ExperimentEngine engine(EngineOptions::with_workers(4));
  (void)engine.submit(small_experiment());
  (void)engine.submit(small_dvfs());
  FleetConfig fleet = small_fleet();
  fleet.experiment.seeds = 3;
  (void)engine.submit(fleet);
  engine.wait_all();

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.of(ScenarioKind::kStatic).submitted, 1u);
  EXPECT_EQ(stats.of(ScenarioKind::kDvfs).submitted, 1u);
  EXPECT_EQ(stats.of(ScenarioKind::kFleet).submitted, 1u);
  EXPECT_EQ(stats.of(ScenarioKind::kStatic).jobs_computed, 1u);
  EXPECT_EQ(stats.of(ScenarioKind::kStatic).replicas_run, 2u);
  EXPECT_EQ(stats.of(ScenarioKind::kDvfs).replicas_run, 2u);
  EXPECT_EQ(stats.of(ScenarioKind::kFleet).replicas_run, 3u);
  // Aggregates stay the sums (compatibility with the historical fields).
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.jobs_computed, 3u);
  EXPECT_EQ(stats.replicas_run, 7u);
  EXPECT_EQ(stats.cache_hits, 0u);
}

// --- scenario registry ------------------------------------------------------

TEST(Scenario, RegistryNamesRoundTrip) {
  for (const auto kind : kAllScenarioKinds) {
    ScenarioKind parsed;
    ASSERT_TRUE(parse_scenario_kind(name(kind), parsed));
    EXPECT_EQ(parsed, kind);
    EXPECT_EQ(scenario_kind_info(kind).kind, kind);
  }
  ScenarioKind alias;
  ASSERT_TRUE(parse_scenario_kind("experiment", alias));
  EXPECT_EQ(alias, ScenarioKind::kStatic);
  ScenarioKind unknown;
  EXPECT_FALSE(parse_scenario_kind("warp-drive", unknown));
}

TEST(Scenario, AccessorsThrowOnKindMismatch) {
  const ScenarioConfig config{small_dvfs()};
  EXPECT_EQ(config.kind(), ScenarioKind::kDvfs);
  EXPECT_NO_THROW((void)config.dvfs());
  EXPECT_THROW((void)config.fleet(), std::logic_error);
  EXPECT_THROW((void)config.static_config(), std::logic_error);
  EXPECT_EQ(config.experiment().n, 64u);

  const ScenarioResult empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_THROW((void)empty.static_result(), std::logic_error);
}

TEST(Scenario, RunScenarioMatchesSerialReference) {
  const DvfsConfig config = small_dvfs();
  const ScenarioResult result = run_scenario(ScenarioConfig(config));
  const DvfsResult serial = run_dvfs(config);
  EXPECT_DOUBLE_EQ(result.dvfs().energy_j, serial.energy_j);
  EXPECT_DOUBLE_EQ(result.dvfs().completion_s, serial.completion_s);
}

}  // namespace
}  // namespace gpupower::core
