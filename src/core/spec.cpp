#include "core/spec.hpp"

#include <charconv>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/config_builder.hpp"
#include "core/dag/dag.hpp"
#include "core/engine.hpp"
#include "core/figures.hpp"
#include "core/obs/obs.hpp"
#include "core/pattern_dsl.hpp"

namespace gpupower::core {
namespace {

using analysis::JsonValue;
namespace dvfs = gpupower::gpusim::dvfs;

/// Campaign grids above this are almost certainly a typo'd axis, not a
/// plan (the engine would happily chew through them for hours).
constexpr std::size_t kMaxCampaignPoints = 4096;

using fields::Ctx;
using fields::check_keys;
using fields::join_path;
using fields::read_string;

bool parse_experiment(const JsonValue& doc, Ctx& ctx, ExperimentConfig& out) {
  const JsonValue* v = doc.find("experiment");
  return v == nullptr || fields::read_fields(*v, "experiment", ctx, out);
}

JsonValue governor_json(const dvfs::GovernorConfig& config) {
  JsonValue g = JsonValue::object();
  fields::write_fields(config, g);
  return g;
}

/// The cross-field checks (validate_scenario) every parsed config passes.
bool finish(ScenarioConfig config, Ctx& ctx, ScenarioConfig& out) {
  const std::string problem = validate_scenario(config);
  if (!problem.empty()) return ctx.fail("", problem);
  out = std::move(config);
  return true;
}

// --- per-kind scenario parsing ----------------------------------------------

bool parse_static(const JsonValue& doc, Ctx& ctx, ScenarioConfig& out) {
  ExperimentConfig experiment;
  return check_keys(doc, "", {"scenario", "experiment"}, ctx) &&
         parse_experiment(doc, ctx, experiment) &&
         finish(std::move(experiment), ctx, out);
}

bool parse_dvfs(const JsonValue& doc, Ctx& ctx, ScenarioConfig& out) {
  DvfsConfig config;
  if (!fields::read_fields(
          doc, "", ctx, config,
          {"scenario", "experiment", "governor", "timeline"}) ||
      !parse_experiment(doc, ctx, config.experiment)) {
    return false;
  }
  if (const JsonValue* v = doc.find("governor")) {
    if (!fields::read_governor(v, "governor", ctx, config.governor)) {
      return false;
    }
  }
  const JsonValue* timeline = doc.find("timeline");
  if (timeline == nullptr) {
    return ctx.fail("timeline",
                    "required for a dvfs scenario (a workload to replay)");
  }
  return fields::read_timeline(timeline, "timeline", ctx, config.timeline) &&
         finish(std::move(config), ctx, out);
}

bool parse_device(const JsonValue& entry, const std::string& path, Ctx& ctx,
                  FleetDeviceConfig& out) {
  if (!entry.is_object()) return ctx.fail(path, "expected an object");
  if (!check_keys(entry, path, {"gpu", "governor", "timeline", "priority"},
                  ctx)) {
    return false;
  }
  if (const JsonValue* f = entry.find("gpu")) {
    if (!fields::read_gpu(f, join_path(path, "gpu"), ctx, out.gpu)) {
      return false;
    }
  }
  if (const JsonValue* f = entry.find("governor")) {
    if (!fields::read_governor(f, join_path(path, "governor"), ctx,
                               out.governor)) {
      return false;
    }
  }
  if (const JsonValue* f = entry.find("timeline")) {
    if (!fields::read_int(f, join_path(path, "timeline"), ctx,
                          fields::kIntRange, out.timeline)) {
      return false;
    }
  }
  if (const JsonValue* f = entry.find("priority")) {
    if (!fields::read_int(f, join_path(path, "priority"), ctx,
                          fields::kIntRange, out.priority)) {
      return false;
    }
  }
  return true;
}

/// Expands the staggered block: `count` devices, each replaying its own
/// copy of the timeline delayed by i * stagger_s.
bool parse_staggered(const JsonValue& v, Ctx& ctx,
                     FleetConfigBuilder& builder) {
  if (!v.is_object()) return ctx.fail("staggered", "expected an object");
  if (!check_keys(v, "staggered",
                  {"timeline", "count", "stagger_s", "gpu", "governor"},
                  ctx)) {
    return false;
  }
  const JsonValue* timeline_value = v.find("timeline");
  if (timeline_value == nullptr) {
    return ctx.fail("staggered.timeline", "required (a timeline DSL string)");
  }
  dvfs::WorkloadTimeline timeline;
  if (!fields::read_timeline(timeline_value, "staggered.timeline", ctx,
                             timeline)) {
    return false;
  }
  const JsonValue* count_value = v.find("count");
  if (count_value == nullptr) {
    return ctx.fail("staggered.count", "required (device count)");
  }
  int count = 0;
  if (!fields::read_int(count_value, "staggered.count", ctx,
                        fields::kStaggeredCount, count)) {
    return false;
  }
  double stagger_s = 0.0;
  if (const JsonValue* f = v.find("stagger_s")) {
    if (!fields::read_number(f, "staggered.stagger_s", ctx, stagger_s)) {
      return false;
    }
  }
  gpupower::gpusim::GpuModel gpu = gpupower::gpusim::GpuModel::kA100PCIe;
  if (const JsonValue* f = v.find("gpu")) {
    if (!fields::read_gpu(f, "staggered.gpu", ctx, gpu)) return false;
  }
  std::string governor_dsl = "utilization()";
  if (const JsonValue* f = v.find("governor")) {
    if (!read_string(f, "staggered.governor", ctx, governor_dsl)) {
      return false;
    }
  }
  builder.add_staggered_devices(timeline, count, stagger_s, gpu,
                                governor_dsl);
  return true;
}

bool parse_fleet(const JsonValue& doc, Ctx& ctx, ScenarioConfig& out) {
  FleetConfig config;
  if (!fields::read_fields(doc, "", ctx, config,
                           {"scenario", "experiment", "timelines", "devices",
                            "staggered"}) ||
      !parse_experiment(doc, ctx, config.experiment)) {
    return false;
  }
  if (const JsonValue* v = doc.find("timelines")) {
    if (!v->is_array()) {
      return ctx.fail("timelines", "expected an array of timeline DSL strings");
    }
    config.timelines.resize(v->size());
    for (std::size_t i = 0; i < v->size(); ++i) {
      if (!fields::read_timeline(&v->at(i),
                                 "timelines[" + std::to_string(i) + "]", ctx,
                                 config.timelines[i])) {
        return false;
      }
    }
  }
  if (const JsonValue* v = doc.find("devices")) {
    if (!v->is_array()) {
      return ctx.fail("devices", "expected an array of device objects");
    }
    config.devices.resize(v->size());
    for (std::size_t i = 0; i < v->size(); ++i) {
      if (!parse_device(v->at(i), "devices[" + std::to_string(i) + "]", ctx,
                        config.devices[i])) {
        return false;
      }
    }
  }
  FleetConfigBuilder builder(std::move(config));
  if (const JsonValue* v = doc.find("staggered")) {
    if (!parse_staggered(*v, ctx, builder)) return false;
  }
  // error(): the staggered expansion's, else validate_fleet_config's.
  const std::string problem = builder.error();
  if (!problem.empty()) return ctx.fail("", problem);
  out = ScenarioConfig(builder.build());
  return true;
}

bool parse_single(const JsonValue& doc, Ctx& ctx, ScenarioConfig& out) {
  if (!doc.is_object()) return ctx.fail("", "spec must be a JSON object");
  const JsonValue* scenario = doc.find("scenario");
  if (scenario == nullptr) {
    return ctx.fail("scenario",
                    "required (static | dvfs | fleet | campaign | dag)");
  }
  std::string kind_name;
  if (!read_string(scenario, "scenario", ctx, kind_name)) return false;
  if (kind_name == "campaign") {
    return ctx.fail("scenario",
                    "a campaign cannot nest inside another campaign's base");
  }
  if (kind_name == "dag") {
    return ctx.fail("scenario",
                    "a dag cannot nest inside another spec's base");
  }
  ScenarioKind kind;
  if (!parse_scenario_kind(kind_name, kind)) {
    return ctx.fail("scenario", "unknown scenario kind '" + kind_name +
                                    "' (expected static | dvfs | fleet | "
                                    "campaign | dag)");
  }
  switch (kind) {
    case ScenarioKind::kStatic:
      return parse_static(doc, ctx, out);
    case ScenarioKind::kDvfs:
      return parse_dvfs(doc, ctx, out);
    case ScenarioKind::kFleet:
      return parse_fleet(doc, ctx, out);
  }
  return ctx.fail("scenario", "unhandled scenario kind");
}

// --- campaign parsing -------------------------------------------------------

std::string value_label(const JsonValue& value) {
  if (value.is_string()) return value.as_string();
  return value.dump();
}

bool parse_axis(const JsonValue& entry, std::string_view path, Ctx& ctx,
                CampaignAxis& out) {
  if (!entry.is_object()) return ctx.fail(path, "expected an axis object");
  if (!check_keys(entry, path, {"field", "values", "figure"}, ctx)) {
    return false;
  }
  const JsonValue* field = entry.find("field");
  if (field == nullptr) {
    return ctx.fail(join_path(path, "field"),
                    "required (a dotted path into the base spec)");
  }
  if (!read_string(field, join_path(path, "field"), ctx, out.field)) {
    return false;
  }
  if (out.field.empty()) {
    return ctx.fail(join_path(path, "field"), "must not be empty");
  }
  if (out.field == "scenario") {
    return ctx.fail(join_path(path, "field"),
                    "a campaign cannot sweep the scenario kind itself");
  }
  const JsonValue* values = entry.find("values");
  const JsonValue* figure = entry.find("figure");
  if ((values == nullptr) == (figure == nullptr)) {
    return ctx.fail(path, "needs exactly one of 'values' or 'figure'");
  }
  if (figure != nullptr) {
    std::string figure_name;
    if (!read_string(figure, join_path(path, "figure"), ctx, figure_name)) {
      return false;
    }
    FigureId id;
    if (!parse_figure_id(figure_name, id)) {
      return ctx.fail(join_path(path, "figure"),
                      "unknown figure id '" + figure_name + "'");
    }
    for (const SweepPoint& point : figure_sweep(id)) {
      out.values.push_back(
          {JsonValue::string(to_dsl(point.spec)), point.label});
    }
    return true;
  }
  if (!values->is_array() || values->size() == 0) {
    return ctx.fail(join_path(path, "values"), "expected a non-empty array");
  }
  for (std::size_t i = 0; i < values->size(); ++i) {
    const JsonValue& value = values->at(i);
    const std::string value_path =
        join_path(path, "values[" + std::to_string(i) + "]");
    if (value.is_object()) {
      if (!check_keys(value, value_path, {"value", "label"}, ctx)) {
        return false;
      }
      const JsonValue* payload = value.find("value");
      if (payload == nullptr) {
        return ctx.fail(join_path(value_path, "value"), "required");
      }
      std::string label = value_label(*payload);
      if (const JsonValue* l = value.find("label")) {
        if (!read_string(l, join_path(value_path, "label"), ctx, label)) {
          return false;
        }
      }
      out.values.push_back({*payload, std::move(label)});
    } else if (value.is_array()) {
      return ctx.fail(value_path,
                      "array axis values need the {\"value\": ..., "
                      "\"label\": ...} wrapper form");
    } else {
      out.values.push_back({value, value_label(value)});
    }
  }
  return true;
}

bool parse_campaign(const JsonValue& doc, Ctx& ctx, ScenarioSpec& out) {
  if (!check_keys(doc, "", {"scenario", "name", "protocol", "base", "axes"},
                  ctx)) {
    return false;
  }
  out.campaign = true;
  if (const JsonValue* v = doc.find("name")) {
    if (!read_string(v, "name", ctx, out.name)) return false;
  }
  if (const JsonValue* v = doc.find("protocol")) {
    if (!read_string(v, "protocol", ctx, out.protocol)) return false;
  }
  const JsonValue* base = doc.find("base");
  if (base == nullptr) {
    return ctx.fail("base", "required (the scenario spec the axes patch)");
  }
  {
    Ctx base_ctx;
    ScenarioConfig base_config;
    if (!parse_single(*base, base_ctx, base_config)) {
      return ctx.fail("base", base_ctx.error);
    }
    out.config = std::move(base_config);  // the grid's un-patched corner
  }
  out.base = *base;
  const JsonValue* axes = doc.find("axes");
  if (axes == nullptr || !axes->is_array() || axes->size() == 0) {
    return ctx.fail("axes", "required (a non-empty array of axis objects)");
  }
  std::size_t points = 1;
  for (std::size_t i = 0; i < axes->size(); ++i) {
    CampaignAxis axis;
    if (!parse_axis(axes->at(i), "axes[" + std::to_string(i) + "]", ctx,
                    axis)) {
      return false;
    }
    points *= axis.values.size();
    out.axes.push_back(std::move(axis));
  }
  if (points > kMaxCampaignPoints) {
    return ctx.fail("axes", "campaign grid has " + std::to_string(points) +
                                " points (max " +
                                std::to_string(kMaxCampaignPoints) + ")");
  }
  return true;
}

/// Rebuilds `in` with the dotted `path` set to `leaf`.  Object segments
/// create missing intermediate objects; numeric segments index existing
/// arrays (appending is an error); a scalar on the path is an error.
bool set_path(const JsonValue& in, std::string_view path,
              const JsonValue& leaf, JsonValue& out, std::string& error) {
  const std::size_t dot = path.find('.');
  const std::string_view head =
      dot == std::string_view::npos ? path : path.substr(0, dot);
  if (head.empty()) {
    error = "empty path segment";
    return false;
  }
  // The patched value of `head`'s member: the leaf itself at the last
  // segment, else the rest of the path set inside `child`.
  auto patch_child = [&](const JsonValue& child, JsonValue& patched) {
    if (dot == std::string_view::npos) {
      patched = leaf;
      return true;
    }
    return set_path(child, path.substr(dot + 1), leaf, patched, error);
  };
  if (in.is_array()) {
    std::size_t index = 0;
    if (!detail::path_index(head, index) || index >= in.size()) {
      error = "'" + std::string(head) + "' is not an index into the " +
              std::to_string(in.size()) + "-element array";
      return false;
    }
    JsonValue rebuilt = JsonValue::array();
    for (std::size_t i = 0; i < in.size(); ++i) {
      if (i != index) {
        rebuilt.push(in.at(i));
        continue;
      }
      JsonValue child;
      if (!patch_child(in.at(i), child)) return false;
      rebuilt.push(std::move(child));
    }
    out = std::move(rebuilt);
    return true;
  }
  if (!in.is_object()) {
    error = "'" + std::string(head) +
            "' would patch inside a non-object, non-array value";
    return false;
  }
  JsonValue rebuilt = JsonValue::object();
  bool replaced = false;
  for (const std::string& key : in.keys()) {
    const JsonValue* member = in.find(key);
    if (key == head && !replaced) {
      replaced = true;
      JsonValue child;
      if (!patch_child(*member, child)) return false;
      rebuilt.set(key, std::move(child));
    } else if (key != head) {
      rebuilt.set(key, *member);
    }
  }
  if (!replaced) {
    JsonValue child;
    if (!patch_child(JsonValue::object(), child)) return false;
    rebuilt.set(head, std::move(child));
  }
  out = std::move(rebuilt);
  return true;
}

}  // namespace

SpecParseResult parse_scenario_spec(const JsonValue& doc) {
  SpecParseResult result;
  Ctx ctx;
  // A non-object has no "scenario" and fails in parse_single.
  const JsonValue* scenario = doc.find("scenario");
  std::string kind_name;
  if (scenario != nullptr && scenario->is_string()) {
    kind_name = scenario->as_string();
  }
  bool ok = false;
  if (kind_name == "campaign") {
    ok = parse_campaign(doc, ctx, result.spec);
  } else if (kind_name == "dag") {
    auto parsed = std::make_shared<dag::DagSpec>();
    std::string dag_error;
    ok = dag::parse_dag(doc, *parsed, dag_error);
    if (ok) {
      result.spec.name = parsed->name;
      result.spec.dag = std::move(parsed);
    } else {
      ctx.fail("", dag_error);
    }
  } else {
    ok = parse_single(doc, ctx, result.spec.config);
  }
  if (!ok) {
    result.error = ctx.error;
    return result;
  }
  result.ok = true;
  return result;
}

SpecParseResult parse_scenario_spec_text(std::string_view json_text) {
  const analysis::JsonParseResult parsed = analysis::json_parse(json_text);
  if (!parsed.ok) {
    SpecParseResult result;
    result.error = "JSON syntax error at byte " +
                   std::to_string(parsed.error_pos) + ": " + parsed.error;
    return result;
  }
  return parse_scenario_spec(parsed.value);
}

SpecParseResult load_scenario_spec(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    SpecParseResult result;
    result.error = "cannot read spec file '" + path + "'";
    return result;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return parse_scenario_spec_text(text.str());
}

analysis::JsonValue spec_to_json(const ScenarioConfig& config) {
  JsonValue experiment = JsonValue::object();
  fields::write_fields(config.experiment(), experiment);
  JsonValue doc = JsonValue::object();
  doc.set("scenario", JsonValue::string(name(config.kind())))
      .set("experiment", std::move(experiment));
  switch (config.kind()) {
    case ScenarioKind::kStatic:
      break;
    case ScenarioKind::kDvfs: {
      const DvfsConfig& dvfs_config = config.dvfs();
      doc.set("governor", governor_json(dvfs_config.governor))
          .set("timeline",
               JsonValue::string(dvfs::to_dsl(dvfs_config.timeline)));
      fields::write_fields(dvfs_config, doc);
      break;
    }
    case ScenarioKind::kFleet: {
      const FleetConfig& fleet_config = config.fleet();
      JsonValue timelines = JsonValue::array();
      for (const dvfs::WorkloadTimeline& timeline : fleet_config.timelines) {
        timelines.push(JsonValue::string(dvfs::to_dsl(timeline)));
      }
      JsonValue devices = JsonValue::array();
      for (const FleetDeviceConfig& device : fleet_config.devices) {
        JsonValue entry = JsonValue::object();
        entry.set("gpu", JsonValue::string(fields::gpu_key(device.gpu)))
            .set("governor", governor_json(device.governor))
            .set("timeline", JsonValue::integer(device.timeline))
            .set("priority", JsonValue::integer(device.priority));
        devices.push(std::move(entry));
      }
      doc.set("timelines", std::move(timelines))
          .set("devices", std::move(devices));
      fields::write_fields(fleet_config, doc);
      break;
    }
  }
  return doc;
}

bool expand_campaign(const ScenarioSpec& spec, std::vector<CampaignPoint>& out,
                     std::string& error) {
  obs::Span span("campaign.expand");
  out.clear();
  if (!spec.campaign) {
    error = "not a campaign spec";
    return false;
  }
  std::size_t total = 1;
  for (const CampaignAxis& axis : spec.axes) total *= axis.values.size();
  out.reserve(total);

  std::vector<std::size_t> index(spec.axes.size(), 0);
  for (std::size_t point = 0; point < total; ++point) {
    CampaignPoint entry;
    JsonValue doc = spec.base;
    for (std::size_t a = 0; a < spec.axes.size(); ++a) {
      const CampaignAxis& axis = spec.axes[a];
      const CampaignAxisValue& value = axis.values[index[a]];
      JsonValue patched;
      std::string patch_error;
      if (!set_path(doc, axis.field, value.value, patched, patch_error)) {
        error = "axis '" + axis.field + "': " + patch_error;
        return false;
      }
      doc = std::move(patched);
      if (a != 0) entry.label += "@";
      entry.label += value.label;
      entry.coords.emplace_back(axis.field, value.label);
    }
    Ctx ctx;
    if (!parse_single(doc, ctx, entry.config)) {
      error = "campaign point '" + entry.label + "': " + ctx.error;
      return false;
    }
    out.push_back(std::move(entry));
    // Odometer: the last axis spins fastest (row-major grid order).
    for (std::size_t a = spec.axes.size(); a-- > 0;) {
      if (++index[a] < spec.axes[a].values.size()) break;
      index[a] = 0;
    }
  }
  if (obs::tracing_enabled()) {
    span.args(obs::SpanArgs()
                  .arg("campaign", obs::intern(spec.name))
                  .arg("points", static_cast<std::int64_t>(out.size())));
  }
  return true;
}

bool detail::path_index(std::string_view segment, std::size_t& index) {
  const char* end = segment.data() + segment.size();
  const auto [ptr, ec] = std::from_chars(segment.data(), end, index);
  return ec == std::errc{} && ptr == end;
}

bool detail::set_spec_path(const analysis::JsonValue& in,
                           std::string_view path,
                           const analysis::JsonValue& leaf,
                           analysis::JsonValue& out, std::string& error) {
  return set_path(in, path, leaf, out, error);
}

bool submit_campaign(ExperimentEngine& engine, const ScenarioSpec& spec,
                     CampaignRun& out, std::string& error) {
  if (!expand_campaign(spec, out.points, error)) return false;
  out.handles.clear();
  out.handles.reserve(out.points.size());
  out.outcomes.clear();
  out.outcomes.reserve(out.points.size());
  for (const CampaignPoint& point : out.points) {
    // The point label rides on a wrapper span (the submit span inside
    // carries the canonical key), tying grid coordinates to scenario
    // identity in one trace query.
    obs::Span span("campaign.point");
    if (obs::tracing_enabled()) {
      span.args(obs::SpanArgs().arg("point", obs::intern(point.label)));
    }
    ExperimentEngine::SubmitOutcome outcome;
    out.handles.push_back(engine.submit(point.config, &outcome));
    out.outcomes.push_back(outcome);
  }
  return true;
}

}  // namespace gpupower::core
