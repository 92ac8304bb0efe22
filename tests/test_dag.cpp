// Campaign DAGs (core/dag/): parse-time validation names the offending
// node and path (cycles, unknown `$ref` nodes, nested dags, duplicate
// names); run-time `$ref` resolution errors name the node and missing
// path, and array indices never wrap; a diamond's shared upstream is
// computed exactly once through the engine cache (counters pinned); search
// nodes bisect deterministically and fail with pointed errors when the
// predicate cannot hold or the interval cannot close; affine nodes
// interpolate two upstream numbers; and a dag run is bit-identical to the
// equivalent hand-sequenced submits, independent of worker count — the
// committed anchored fleet_capping DAG included.
#include "core/dag/dag.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/json.hpp"
#include "core/engine.hpp"
#include "core/scenario.hpp"
#include "core/spec.hpp"

namespace gpupower::core {
namespace {

/// A cheap static run document; placeholder fields are overridden by
/// substitutions in the tests below.
std::string static_run(const std::string& pattern, int base_seed) {
  return std::string(R"__({"scenario": "static", "experiment": {)__"
                     R"__("gpu": "a100", "dtype": "fp16", "n": 64, )__"
                     R"__("seeds": 2, "base_seed": )__") +
         std::to_string(base_seed) + R"__(, "pattern": ")__" + pattern +
         R"__(", "sampling": {"tiles": 6, "k_fraction": 0.5}}})__";
}

/// A one-device fleet run document with a numeric power cap — the search
/// tests bisect over "cap_w" (avg_power_w is monotone in the cap).
std::string fleet_run(const std::string& cap_w) {
  return std::string(
             R"__({"scenario": "fleet", "experiment": {)__"
             R"__("gpu": "a100", "dtype": "fp16", "n": 64, "seeds": 2, )__"
             R"__("pattern": "gaussian(sigma=210) | sparsity(25%)", )__"
             R"__("sampling": {"tiles": 6, "k_fraction": 0.5}}, )__"
             R"__("timelines": )__"
             R"__(["burst(period=0.2, duty=30%, high=100%, low=5%, )__"
             R"__(dur=0.5)"], )__"
             R"__("devices": [{"gpu": "a100", )__"
             R"__("governor": "utilization(up=80%, down=30%)"}], )__"
             R"__("cap_w": )__") +
         cap_w + R"__(, "slice_s": 0.01, "pstates": 5})__";
}

std::string dag_text(const std::vector<std::string>& nodes) {
  std::string text = R"__({"scenario": "dag", "name": "t", "nodes": [)__";
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i != 0) text += ", ";
    text += nodes[i];
  }
  return text + "]}";
}

SpecParseResult parse_text(const std::string& text) {
  return parse_scenario_spec_text(text);
}

// --- parse-time validation --------------------------------------------------

TEST(DagSpec, CycleFailsNamingANode) {
  const SpecParseResult parsed = parse_text(dag_text({
      std::string(R"__({"name": "a", "run": )__") +
          static_run("gaussian(sigma=210)", 7) +
          R"__(, "substitutions": )__"
          R"__([{"field": "experiment.base_seed", )__"
          R"__("$ref": "b.result.seeds"}]})__",
      std::string(R"__({"name": "b", "run": )__") +
          static_run("gaussian(sigma=210)", 7) +
          R"__(, "substitutions": )__"
          R"__([{"field": "experiment.base_seed", )__"
          R"__("$ref": "a.result.seeds"}]})__",
  }));
  ASSERT_FALSE(parsed.ok);
  EXPECT_NE(parsed.error.find("dependency cycle"), std::string::npos)
      << parsed.error;
  EXPECT_NE(parsed.error.find("'a'"), std::string::npos) << parsed.error;
}

TEST(DagSpec, UnknownRefNodeFailsNamingTheNode) {
  const SpecParseResult parsed = parse_text(dag_text({
      std::string(R"__({"name": "a", "run": )__") +
          static_run("gaussian(sigma=210)", 7) +
          R"__(, "substitutions": )__"
          R"__([{"field": "experiment.base_seed", )__"
          R"__("$ref": "oracle.result.power_w"}]})__",
  }));
  ASSERT_FALSE(parsed.ok);
  EXPECT_NE(parsed.error.find("unknown node 'oracle'"), std::string::npos)
      << parsed.error;
}

TEST(DagSpec, DuplicateNodeNameFails) {
  const SpecParseResult parsed = parse_text(dag_text({
      std::string(R"__({"name": "a", "run": )__") +
          static_run("gaussian(sigma=210)", 7) + "}",
      std::string(R"__({"name": "a", "run": )__") +
          static_run("gaussian(sigma=210)", 8) + "}",
  }));
  ASSERT_FALSE(parsed.ok);
  EXPECT_NE(parsed.error.find("duplicate node name 'a'"), std::string::npos)
      << parsed.error;
}

TEST(DagSpec, NestedDagInsideANodeIsRejected) {
  const SpecParseResult parsed = parse_text(dag_text({
      std::string(R"__({"name": "a", "run": )__") +
          dag_text({std::string(R"__({"name": "b", "run": )__") +
                    static_run("gaussian(sigma=210)", 7) + "}"}) +
          "}",
  }));
  ASSERT_FALSE(parsed.ok);
  EXPECT_NE(parsed.error.find("nested dag specs are not supported"),
            std::string::npos)
      << parsed.error;
}

TEST(DagSpec, DagCannotBeACampaignBase) {
  const SpecParseResult parsed = parse_text(
      std::string(R"__({"scenario": "campaign", "base": )__") +
      dag_text({std::string(R"__({"name": "a", "run": )__") +
                static_run("gaussian(sigma=210)", 7) + "}"}) +
      R"__(, "axes": [{"field": "experiment.n", "values": [64]}]})__");
  ASSERT_FALSE(parsed.ok);
  EXPECT_NE(parsed.error.find("cannot nest inside another spec's base"),
            std::string::npos)
      << parsed.error;
}

TEST(DagSpec, UnknownRefPathFailsAtRunTimeNamingNodeAndPath) {
  const SpecParseResult parsed = parse_text(dag_text({
      std::string(R"__({"name": "a", "run": )__") +
          static_run("gaussian(sigma=210)", 42) + "}",
      std::string(R"__({"name": "b", "run": )__") +
          static_run("gaussian(sigma=210)", 7) +
          R"__(, "substitutions": )__"
          R"__([{"field": "experiment.base_seed", )__"
          R"__("$ref": "a.result.nope_metric"}]})__",
  }));
  ASSERT_TRUE(parsed.ok) << parsed.error;  // path validity is run-time
  ExperimentEngine engine(EngineOptions::with_workers(2));
  dag::DagRun run;
  std::string error;
  EXPECT_FALSE(dag::run_dag(engine, *parsed.spec.dag, run, error));
  EXPECT_NE(error.find("node 'b'"), std::string::npos) << error;
  EXPECT_NE(error.find("has no value at 'nope_metric'"), std::string::npos)
      << error;
}

// --- diamond dedup ----------------------------------------------------------

// a -> {b, c} -> d: b and c patch the same `$ref` value into identical
// bases, so their configs collapse to one canonical key and the engine
// computes the pair exactly once.
TEST(DagRun, DiamondSharedUpstreamComputesOnce) {
  const SpecParseResult parsed = parse_text(dag_text({
      std::string(R"__({"name": "a", "run": )__") +
          static_run("gaussian(sigma=210)", 42) + "}",
      std::string(R"__({"name": "b", "run": )__") +
          static_run("gaussian(sigma=210)", 7) +
          R"__(, "substitutions": )__"
          R"__([{"field": "experiment.base_seed", )__"
          R"__("$ref": "a.result.seeds"}]})__",
      std::string(R"__({"name": "c", "run": )__") +
          static_run("gaussian(sigma=210)", 7) +
          R"__(, "substitutions": )__"
          R"__([{"field": "experiment.base_seed", )__"
          R"__("$ref": "a.result.seeds"}]})__",
      R"__({"name": "d", )__"
      R"__("reduce": {"op": "mean", "over": "b", "metric": "power_w"}})__",
  }));
  ASSERT_TRUE(parsed.ok) << parsed.error;

  ExperimentEngine engine(EngineOptions::with_workers(4));
  dag::DagRun run;
  std::string error;
  std::vector<std::string> finalized;
  ASSERT_TRUE(dag::run_dag(engine, *parsed.spec.dag, run, error,
                           [&](const dag::DagNodeRun& node) {
                             finalized.push_back(node.name);
                           }))
      << error;

  // Finalisation order is the declaration order — a pure function of the
  // graph, not of completion timing.
  EXPECT_EQ(finalized, (std::vector<std::string>{"a", "b", "c", "d"}));

  // b and c share one canonical key and one computed job; a is its own.
  ASSERT_EQ(run.nodes.size(), 4u);
  EXPECT_EQ(run.nodes[1].key, run.nodes[2].key);
  EXPECT_NE(run.nodes[0].key, run.nodes[1].key);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.jobs_computed, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);

  // Identical configs, identical bytes.
  ASSERT_EQ(run.nodes[1].points.size(), 1u);
  ASSERT_EQ(run.nodes[2].points.size(), 1u);
  EXPECT_EQ(scenario_result_to_json(run.nodes[1].points[0].result).dump(),
            scenario_result_to_json(run.nodes[2].points[0].result).dump());

  // The reduce folds b's one point.
  const analysis::JsonValue* value = run.nodes[3].doc.find("value");
  ASSERT_NE(value, nullptr);
  EXPECT_DOUBLE_EQ(value->as_number(),
                   run.nodes[1].points[0].result.static_result().power_w);
}

// --- bit-identity vs hand-sequenced submits ---------------------------------

std::string grid_campaign_text() {
  return std::string(
             R"__({"scenario": "campaign", "name": "grid", "base": )__") +
         static_run("gaussian(sigma=210)", 42) +
         R"__(, "axes": [{"field": "experiment.pattern", "values": )__"
         R"__(["gaussian(sigma=210)", "gaussian(sigma=100)"]}]})__";
}

std::string provisioning_dag_text() {
  return dag_text({
      std::string(R"__({"name": "calibrate", "run": )__") +
          static_run("gaussian(sigma=210)", 42) + "}",
      std::string(R"__({"name": "grid", "run": )__") + grid_campaign_text() +
          "}",
      R"__({"name": "regret", "reduce": {"op": "regret", "over": "grid", )__"
      R"__("baseline": "calibrate", "metric": "power_w"}})__",
  });
}

void run_provisioning_dag(int workers, dag::DagRun& out) {
  const SpecParseResult parsed = parse_text(provisioning_dag_text());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  ExperimentEngine engine(EngineOptions::with_workers(workers));
  std::string error;
  ASSERT_TRUE(dag::run_dag(engine, *parsed.spec.dag, out, error)) << error;
}

TEST(DagRun, BitIdenticalToHandSequencedSubmitsAcrossWorkerCounts) {
  dag::DagRun serial;
  dag::DagRun threaded;
  run_provisioning_dag(1, serial);
  run_provisioning_dag(4, threaded);
  if (HasFatalFailure()) return;

  // Hand-sequenced reference: the same documents submitted directly.
  ExperimentEngine engine(EngineOptions::with_workers(2));
  const SpecParseResult calibrate =
      parse_text(static_run("gaussian(sigma=210)", 42));
  ASSERT_TRUE(calibrate.ok) << calibrate.error;
  const ScenarioHandle calibrate_handle = engine.submit(calibrate.spec.config);
  const SpecParseResult grid = parse_text(grid_campaign_text());
  ASSERT_TRUE(grid.ok) << grid.error;
  CampaignRun reference;
  std::string error;
  ASSERT_TRUE(submit_campaign(engine, grid.spec, reference, error)) << error;
  engine.wait_all();

  for (const dag::DagRun* run : {&serial, &threaded}) {
    ASSERT_EQ(run->nodes.size(), 3u);
    ASSERT_EQ(run->nodes[0].points.size(), 1u);
    EXPECT_EQ(scenario_result_to_json(run->nodes[0].points[0].result).dump(),
              scenario_result_to_json(calibrate_handle.get()).dump());
    ASSERT_EQ(run->nodes[1].points.size(), reference.points.size());
    for (std::size_t i = 0; i < reference.points.size(); ++i) {
      EXPECT_EQ(run->nodes[1].points[i].label, reference.points[i].label);
      EXPECT_EQ(
          scenario_result_to_json(run->nodes[1].points[i].result).dump(),
          scenario_result_to_json(reference.handles[i].get()).dump());
    }
  }
  // The whole run — including the derived reduce document — is
  // byte-stable under worker-count variation.
  for (std::size_t n = 0; n < serial.nodes.size(); ++n) {
    EXPECT_EQ(serial.nodes[n].doc.dump(), threaded.nodes[n].doc.dump());
    EXPECT_EQ(serial.nodes[n].key, threaded.nodes[n].key);
  }
}

// Runs a dag whose `$ref` indexes a 2-point campaign's points array at
// `index`; 2^64 + 1 must not wrap onto points[1].
bool run_index_ref(const std::string& index, std::string& error) {
  const SpecParseResult parsed = parse_text(dag_text({
      std::string(R"__({"name": "grid", "run": )__") + grid_campaign_text() +
          "}",
      std::string(R"__({"name": "b", "run": )__") +
          static_run("gaussian(sigma=210)", 7) +
          R"__(, "substitutions": [{"field": "experiment.base_seed", )__"
          R"__("$ref": "grid.result.points.)__" +
          index + R"__(.result.seeds"}]})__",
  }));
  EXPECT_TRUE(parsed.ok) << parsed.error;
  if (!parsed.ok) return false;
  ExperimentEngine engine(EngineOptions::with_workers(2));
  dag::DagRun run;
  return dag::run_dag(engine, *parsed.spec.dag, run, error);
}

TEST(DagSpec, OverflowingRefIndexFailsInsteadOfWrapping) {
  std::string error;
  EXPECT_TRUE(run_index_ref("1", error)) << error;
  EXPECT_FALSE(run_index_ref("18446744073709551617", error));
  EXPECT_NE(error.find("node 'b'"), std::string::npos) << error;
  EXPECT_NE(error.find("has no value at 'points.18446744073709551617'"),
            std::string::npos)
      << error;
}

TEST(SpecPath, NumericSegmentsPatchExistingArrayElements) {
  const auto parsed =
      analysis::json_parse(R"({"axes": [{"values": [1, 2]}], "n": 64})");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  analysis::JsonValue out;
  std::string error;
  ASSERT_TRUE(detail::set_spec_path(parsed.value, "axes.0.values.1",
                                    analysis::JsonValue::integer(5), out,
                                    error))
      << error;
  EXPECT_EQ(out.dump(), R"({"axes":[{"values":[1,5]}],"n":64})");

  // Appending, an overflowing index, and a write through a scalar fail,
  // naming the segment.
  EXPECT_FALSE(detail::set_spec_path(parsed.value, "axes.0.values.2",
                                     analysis::JsonValue::integer(5), out,
                                     error));
  EXPECT_NE(error.find("'2' is not an index into the 2-element array"),
            std::string::npos)
      << error;
  EXPECT_FALSE(detail::set_spec_path(parsed.value,
                                     "axes.18446744073709551616.values",
                                     analysis::JsonValue::integer(5), out,
                                     error));
  EXPECT_NE(error.find("'18446744073709551616' is not an index"),
            std::string::npos)
      << error;
  EXPECT_FALSE(detail::set_spec_path(parsed.value, "n.0",
                                     analysis::JsonValue::integer(5), out,
                                     error));
  EXPECT_NE(error.find("'0' would patch inside a non-object, non-array"),
            std::string::npos)
      << error;
}

// --- affine nodes -----------------------------------------------------------

std::string affine_node(const std::string& name, const std::string& body) {
  return R"__({"name": ")__" + name + R"__(", "affine": )__" + body + "}";
}

std::string affine_dag_text(const std::string& body) {
  return dag_text({std::string(R"__({"name": "a", "run": )__") +
                       static_run("gaussian(sigma=210)", 42) + "}",
                   affine_node("mid", body)});
}

TEST(DagAffine, ParseErrorsNameTheNodeAndKey) {
  const struct {
    std::string body;
    std::string expect;
  } cases[] = {
      {R"__({"a": {"$ref": "a.result.power_w"}, "b": {"$ref": )__"
       R"__("a.result.power_w"}, "f": 0.5, "g": 1})__",
       "unknown key 'g'"},
      {R"__({"a": {"$ref": "a.result.power_w"}, "b": {"$ref": )__"
       R"__("a.result.power_w"}})__",
       "nodes[1] 'mid'.affine.f: expected a number"},
      {R"__({"a": {"$ref": "a.result.power_w"}, "b": {"$ref": )__"
       R"__("a.result.power_w"}, "f": 1e999})__",
       "nodes[1] 'mid'.affine.f: must be finite"},
      {R"__({"a": {"$ref": "nope.result.power_w"}, "b": {"$ref": )__"
       R"__("a.result.power_w"}, "f": 0.5})__",
       "references unknown node 'nope'"},
      {R"__({"a": {"$ref": "a.result.power_w"}, "b": {"$ref": )__"
       R"__("mid.result.value"}, "f": 0.5})__",
       "nodes[1] 'mid'.affine.b.$ref: $ref 'mid.result.value' references "
       "the node itself"},
      {R"__({"a": {"$ref": "a.result.power_w", "x": 1}, "b": {"$ref": )__"
       R"__("a.result.power_w"}, "f": 0.5})__",
       "unknown key 'x'"},
  };
  for (const auto& c : cases) {
    const SpecParseResult parsed = parse_text(affine_dag_text(c.body));
    ASSERT_FALSE(parsed.ok) << c.body;
    EXPECT_NE(parsed.error.find(c.expect), std::string::npos)
        << parsed.error;
  }
}

TEST(DagAffine, InterpolatesInTheDocumentedOrder) {
  const SpecParseResult parsed = parse_text(affine_dag_text(
      R"__({"a": {"$ref": "a.result.power_w"}, )__"
      R"__("b": {"$ref": "a.result.seeds"}, "f": 0.65})__"));
  ASSERT_TRUE(parsed.ok) << parsed.error;
  ExperimentEngine engine(EngineOptions::with_workers(2));
  dag::DagRun run;
  std::string error;
  ASSERT_TRUE(dag::run_dag(engine, *parsed.spec.dag, run, error)) << error;
  ASSERT_EQ(run.nodes.size(), 2u);
  const dag::DagNodeRun& mid = run.nodes[1];
  EXPECT_EQ(mid.kind, dag::DagNodeKind::kAffine);
  EXPECT_TRUE(mid.points.empty());
  EXPECT_EQ(engine.stats().submitted, 1u);  // an affine node submits nothing
  const double a = run.nodes[0].points[0].result.static_result().power_w;
  const double b = 2.0;  // seeds
  const analysis::JsonValue* value = mid.doc.find("value");
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(value->as_number(), a + 0.65 * (b - a));
  EXPECT_EQ(mid.doc.find("a")->as_number(), a);
  EXPECT_EQ(mid.doc.find("b")->as_number(), b);
  EXPECT_EQ(mid.doc.find("f")->as_number(), 0.65);
}

TEST(DagAffine, NonNumericOperandFailsNamingNodeAndPath) {
  const SpecParseResult parsed = parse_text(affine_dag_text(
      R"__({"a": {"$ref": "a.result.power_w"}, )__"
      R"__("b": {"$ref": "a.result.rails"}, "f": 0.5})__"));
  ASSERT_TRUE(parsed.ok) << parsed.error;
  ExperimentEngine engine(EngineOptions::with_workers(2));
  dag::DagRun run;
  std::string error;
  EXPECT_FALSE(dag::run_dag(engine, *parsed.spec.dag, run, error));
  EXPECT_NE(error.find("node 'mid'"), std::string::npos) << error;
  EXPECT_NE(error.find("$ref 'a.result.rails' is not a number"),
            std::string::npos)
      << error;
}

// The committed anchored study: measuring the idle floor and the uncapped
// peak, interpolating the caps with affine nodes and patching them into
// the grid's cap axis must reproduce the committed campaign's points
// exactly — same canonical keys, same result bytes — at any worker count.
// A model change that moves the anchors fails here, not only in CI.
TEST(DagAffine, AnchoredFleetCappingDagReproducesTheCommittedCampaign) {
  const std::string specs = std::string(GPUPOWER_SOURCE_DIR) +
                            "/examples/specs/";
  const SpecParseResult dag_spec =
      load_scenario_spec(specs + "fleet_capping_dag.json");
  ASSERT_TRUE(dag_spec.ok) << dag_spec.error;
  ASSERT_NE(dag_spec.spec.dag, nullptr);
  const SpecParseResult campaign_spec =
      load_scenario_spec(specs + "fleet_capping.json");
  ASSERT_TRUE(campaign_spec.ok) << campaign_spec.error;

  for (const int workers : {1, 4}) {
    ExperimentEngine engine(EngineOptions::with_workers(workers));
    dag::DagRun run;
    std::string error;
    ASSERT_TRUE(dag::run_dag(engine, *dag_spec.spec.dag, run, error))
        << error;
    CampaignRun campaign;
    ASSERT_TRUE(submit_campaign(engine, campaign_spec.spec, campaign, error))
        << error;
    engine.wait_all();

    const dag::DagNodeRun* grid = nullptr;
    for (const dag::DagNodeRun& node : run.nodes) {
      if (node.name == "grid") grid = &node;
    }
    ASSERT_NE(grid, nullptr);
    ASSERT_EQ(grid->points.size(), campaign.points.size());
    ASSERT_EQ(campaign.points.size(), 12u);
    for (std::size_t i = 0; i < campaign.points.size(); ++i) {
      EXPECT_EQ(grid->points[i].label, campaign.points[i].label);
      EXPECT_EQ(canonical_scenario_key(grid->points[i].config),
                canonical_scenario_key(campaign.points[i].config))
          << "workers=" << workers << " point " << campaign.points[i].label;
      EXPECT_EQ(scenario_result_to_json(grid->points[i].result).dump(),
                scenario_result_to_json(campaign.handles[i].get()).dump());
    }
    // Every campaign point was already computed by the DAG's grid node.
    for (const ExperimentEngine::SubmitOutcome outcome : campaign.outcomes) {
      EXPECT_NE(outcome, ExperimentEngine::SubmitOutcome::kComputed);
    }
  }
}

// --- search nodes -----------------------------------------------------------

double uncapped_avg_power() {
  const SpecParseResult parsed = parse_text(fleet_run("10000"));
  EXPECT_TRUE(parsed.ok) << parsed.error;
  ExperimentEngine engine(EngineOptions::with_workers(2));
  const ScenarioHandle handle = engine.submit(parsed.spec.config);
  return handle.get().fleet().avg_power_w;
}

std::string search_dag_text(const std::string& target,
                            const std::string& tolerance,
                            const std::string& max_iterations) {
  return dag_text({
      std::string(R"__({"name": "tightest", "search": {"base": )__") +
          fleet_run("10000") +
          R"__(, "field": "cap_w", "lo": 1, "hi": 10000, )__"
          R"__("metric": "avg_power_w", "predicate": ">=", "target": )__" +
          target + R"__(, "tolerance": )__" + tolerance +
          R"__(, "max_iterations": )__" + max_iterations + "}}",
  });
}

TEST(DagSearch, ConvergesToTheTightestCapDeterministically) {
  const double target = 0.95 * uncapped_avg_power();
  const SpecParseResult parsed =
      parse_text(search_dag_text(std::to_string(target), "500", "32"));
  ASSERT_TRUE(parsed.ok) << parsed.error;
  dag::DagRun serial;
  dag::DagRun threaded;
  const auto execute = [&](int workers, dag::DagRun& out) {
    ExperimentEngine engine(EngineOptions::with_workers(workers));
    std::string error;
    ASSERT_TRUE(dag::run_dag(engine, *parsed.spec.dag, out, error)) << error;
  };
  execute(1, serial);
  execute(4, threaded);
  if (HasFatalFailure()) return;

  ASSERT_EQ(serial.nodes.size(), 1u);
  const analysis::JsonValue* value = serial.nodes[0].doc.find("value");
  ASSERT_NE(value, nullptr);
  EXPECT_GE(value->as_number(), 1.0);
  EXPECT_LE(value->as_number(), 10000.0);
  // The accepted point satisfies the predicate.
  const analysis::JsonValue* result = serial.nodes[0].doc.find("result");
  ASSERT_NE(result, nullptr);
  const analysis::JsonValue* metric = result->find("avg_power_w");
  ASSERT_NE(metric, nullptr);
  EXPECT_GE(metric->as_number(), target);
  // Deterministic bisection: identical bytes under worker variation.
  EXPECT_EQ(serial.nodes[0].doc.dump(), threaded.nodes[0].doc.dump());
  EXPECT_EQ(serial.nodes[0].key, threaded.nodes[0].key);
}

TEST(DagSearch, FailsWhenThePredicateDoesNotHoldAtHi) {
  const SpecParseResult parsed =
      parse_text(search_dag_text("1e9", "500", "32"));
  ASSERT_TRUE(parsed.ok) << parsed.error;
  ExperimentEngine engine(EngineOptions::with_workers(2));
  dag::DagRun run;
  std::string error;
  EXPECT_FALSE(dag::run_dag(engine, *parsed.spec.dag, run, error));
  EXPECT_NE(error.find("node 'tightest'"), std::string::npos) << error;
  EXPECT_NE(error.find("does not hold at hi"), std::string::npos) << error;
}

TEST(DagSearch, ReportsNonConvergenceAtTheIterationCap) {
  const double target = 0.95 * uncapped_avg_power();
  const SpecParseResult parsed =
      parse_text(search_dag_text(std::to_string(target), "0.001", "1"));
  ASSERT_TRUE(parsed.ok) << parsed.error;
  ExperimentEngine engine(EngineOptions::with_workers(2));
  dag::DagRun run;
  std::string error;
  EXPECT_FALSE(dag::run_dag(engine, *parsed.spec.dag, run, error));
  EXPECT_NE(error.find("did not converge within 1 iterations"),
            std::string::npos)
      << error;
}

}  // namespace
}  // namespace gpupower::core
