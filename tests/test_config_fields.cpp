// The field tables (core/config_fields.hpp) against the canonical keys:
// every row either changes the key when its value changes, or is inert —
// results stay bit-identical — so no result-changing field can slip out of
// the cache key.  Rows are mutated through the spec document, so the walk
// also exercises each row's codec and range.
#include "core/config_fields.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "core/config_builder.hpp"
#include "core/scenario.hpp"
#include "core/spec.hpp"

namespace gpupower::core {
namespace {

using analysis::JsonValue;
using fields::Codec;
using fields::RowInfo;

ExperimentConfig base_experiment() {
  return ExperimentConfigBuilder()
      .n(64)
      .seeds(1)
      .sampling(gpupower::gpusim::SamplingPlan::fast(6, 0.5))
      .pattern("gaussian(sigma=210) | sparsity(25%)")
      .variation(gpupower::gpusim::ProcessVariation{0.03, 7})
      .build();
}

constexpr std::string_view kTimeline =
    "burst(period=0.2, duty=30%, high=100%, low=5%, dur=0.4)";

DvfsConfig base_dvfs() {
  return DvfsConfigBuilder()
      .experiment(base_experiment())
      .governor("utilization(up=80%, down=30%)")
      .timeline(kTimeline)
      .build();
}

FleetConfig base_fleet() {
  gpupower::gpusim::fleet::ThermalConfig thermal;
  thermal.enabled = true;
  return FleetConfigBuilder()
      .experiment(base_experiment())
      .add_timeline(kTimeline)
      .add_device(gpupower::gpusim::GpuModel::kA100PCIe, "utilization()")
      .cap(400.0)
      .thermal(thermal)
      .build();
}

const JsonValue* find_path(const JsonValue& doc, std::string_view path) {
  const JsonValue* value = &doc;
  while (value != nullptr) {
    const std::size_t dot = path.find('.');
    value = value->find(path.substr(0, dot));
    if (dot == std::string_view::npos) return value;
    path.remove_prefix(dot + 1);
  }
  return nullptr;
}

/// Another in-range value for the row.
JsonValue alternative(const RowInfo& row, const JsonValue& current) {
  const double v = current.as_number();
  switch (row.codec) {
    case Codec::kInt:
      return JsonValue::integer(static_cast<long long>(
          row.range.contains(v + 1) ? v + 1 : v - 1));
    case Codec::kUint64:
      return JsonValue::integer(static_cast<long long>(v) + 1);
    case Codec::kDouble:
      return JsonValue::number(row.range.contains(v + 0.125) ? v + 0.125
                                                             : v - 0.125);
    case Codec::kNullableDouble:
      return current.is_null() ? JsonValue::number(1000.0) : JsonValue::null();
    case Codec::kBool:
      return JsonValue::boolean(!current.as_boolean());
    case Codec::kEnum:
      for (const fields::Spelling& spelling : row.spellings) {
        if (spelling.text != current.as_string()) {
          return JsonValue::string(spelling.text);
        }
      }
      break;
    case Codec::kPattern:
      return JsonValue::string("gaussian(mean=3)");
    case Codec::kPatternList: {
      JsonValue list = JsonValue::array();
      for (std::size_t i = 0; i < current.size(); ++i) list.push(current.at(i));
      list.push(JsonValue::string("gaussian(mean=3)"));
      return list;
    }
    case Codec::kObject:
      break;
  }
  ADD_FAILURE() << "no alternative for row " << row.name;
  return current;
}

std::string result_bytes(const ScenarioConfig& config) {
  return scenario_result_to_json(run_scenario(config)).dump();
}

TEST(ConfigFields, EveryRowIsKeyedOrInert) {
  struct Kind {
    ScenarioConfig base;
    std::vector<std::pair<std::string, RowInfo>> rows;
  };
  std::vector<Kind> kinds = {{base_experiment(), {}},
                             {base_dvfs(), {}},
                             {base_fleet(), {}}};
  const auto collect = [](Kind& kind) {
    return [&kind](const std::string& path, const RowInfo& row) {
      if (row.codec != Codec::kObject) kind.rows.emplace_back(path, row);
    };
  };
  for (Kind& kind : kinds) {
    fields::walk_fields<ExperimentConfig>("experiment", collect(kind));
  }
  fields::walk_fields<gpupower::gpusim::dvfs::GovernorConfig>(
      "governor", collect(kinds[1]));
  fields::walk_fields<DvfsConfig>("", collect(kinds[1]));
  fields::walk_fields<FleetConfig>("", collect(kinds[2]));

  std::vector<std::string> inert;
  for (const Kind& kind : kinds) {
    ASSERT_TRUE(validate_scenario(kind.base).empty())
        << validate_scenario(kind.base);
    const JsonValue doc = spec_to_json(kind.base);
    const std::string base_key = canonical_scenario_key(kind.base);
    for (const auto& [path, row] : kind.rows) {
      const JsonValue* current = find_path(doc, path);
      ASSERT_NE(current, nullptr) << path << " missing from the spec";
      JsonValue patched;
      std::string error;
      ASSERT_TRUE(detail::set_spec_path(doc, path, alternative(row, *current),
                                        patched, error))
          << path << ": " << error;
      const SpecParseResult parsed = parse_scenario_spec(patched);
      ASSERT_TRUE(parsed.ok) << path << ": " << parsed.error;
      const std::string key = canonical_scenario_key(parsed.spec.config);
      if (row.keyed) {
        EXPECT_NE(key, base_key) << path << " is keyed but not in the key";
      } else {
        inert.push_back(path);
        EXPECT_EQ(key, base_key) << path;
        EXPECT_EQ(result_bytes(parsed.spec.config), result_bytes(kind.base))
            << path << " is unkeyed but changes the result";
      }
    }
  }
  // The sampler seed is overwritten per replica (run_seed_replica derives
  // it from the replica seed); every other field is keyed.
  EXPECT_EQ(inert, std::vector<std::string>(3, "experiment.sampler.seed"));
}

}  // namespace
}  // namespace gpupower::core
