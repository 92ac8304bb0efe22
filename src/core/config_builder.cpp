#include "core/config_builder.hpp"

#include <utility>

#include "gpusim/dvfs/dsl_util.hpp"

namespace gpupower::core {
namespace {

using analysis::JsonValue;

/// Reads one value through the named row of S's table; empty on success,
/// else the row's error.
template <class S>
std::string read_row(S& config, std::string_view key, JsonValue value) {
  JsonValue doc = JsonValue::object();
  doc.set(key, std::move(value));
  fields::Ctx ctx;
  (void)fields::read_fields(doc, {}, ctx, config);
  return ctx.error;
}

/// Reads a DSL string through one of the fields' DSL readers.
template <class T, class Read>
std::string read_dsl(Read read, std::string_view dsl, T& out) {
  const JsonValue value = JsonValue::string(dsl);
  fields::Ctx ctx;
  (void)read(&value, {}, ctx, out);
  return ctx.error;
}

}  // namespace

ExperimentConfigBuilder& ExperimentConfigBuilder::dtype(std::string_view name) {
  return fail(read_row(config_, "dtype", JsonValue::string(name)));
}

ExperimentConfigBuilder& ExperimentConfigBuilder::pattern(
    std::string_view dsl) {
  return fail(read_row(config_, "pattern", JsonValue::string(dsl)));
}

ExperimentConfigBuilder& ExperimentConfigBuilder::env(const BenchEnv& env) {
  // Route through the validating setters so a BenchEnv assembled outside
  // read_bench_env (e.g. from CLI flags) cannot smuggle in out-of-range
  // values.
  n(env.n);
  seeds(env.seeds);
  gpupower::gpusim::SamplingPlan plan = config_.sampling;
  plan.max_tiles = env.tiles;
  plan.k_fraction = env.k_fraction;
  return sampling(plan);
}

DvfsConfigBuilder& DvfsConfigBuilder::governor(std::string_view dsl) {
  return fail(read_dsl(fields::read_governor, dsl, config_.governor));
}

DvfsConfigBuilder& DvfsConfigBuilder::timeline(std::string_view dsl) {
  return fail(read_dsl(fields::read_timeline, dsl, config_.timeline));
}

DvfsConfigBuilder& DvfsConfigBuilder::add_phase_pattern(std::string_view dsl) {
  PatternSpec spec;
  const std::string problem = read_dsl(fields::read_pattern, dsl, spec);
  return problem.empty() ? add_phase_pattern(spec) : fail(problem);
}

FleetConfigBuilder& FleetConfigBuilder::add_timeline(std::string_view dsl) {
  gpupower::gpusim::dvfs::WorkloadTimeline timeline;
  const std::string problem = read_dsl(fields::read_timeline, dsl, timeline);
  return problem.empty() ? add_timeline(timeline) : fail(problem);
}

FleetConfigBuilder& FleetConfigBuilder::add_device(
    gpupower::gpusim::GpuModel gpu, std::string_view governor_dsl,
    int timeline, int priority) {
  FleetDeviceConfig device{gpu, {}, timeline, priority};
  const std::string problem =
      read_dsl(fields::read_governor, governor_dsl, device.governor);
  return problem.empty() ? add_device(device) : fail(problem);
}

FleetConfigBuilder& FleetConfigBuilder::add_staggered_devices(
    const gpupower::gpusim::dvfs::WorkloadTimeline& timeline, int count,
    double stagger_s, gpupower::gpusim::GpuModel gpu,
    std::string_view governor_dsl) {
  if (!fields::kStaggeredCount.contains(count)) {
    return fail(fields::out_of_range("staggered.count", std::to_string(count),
                                     fields::kStaggeredCount));
  }
  if (!fields::kStaggerSeconds.contains(stagger_s)) {
    return fail(fields::out_of_range(
        "staggered.stagger_s",
        gpupower::gpusim::dvfs::detail::format_exact(stagger_s),
        fields::kStaggerSeconds));
  }
  const int base = static_cast<int>(config_.timelines.size());
  for (int i = 0; i < count; ++i) {
    gpupower::gpusim::dvfs::WorkloadTimeline shifted;
    if (i > 0 && stagger_s > 0.0) {
      shifted = gpupower::gpusim::dvfs::WorkloadTimeline::idle(
          static_cast<double>(i) * stagger_s);
    }
    shifted.append(timeline);
    add_timeline(shifted);
    add_device(gpu, governor_dsl, /*timeline=*/base + i,
               /*priority=*/count - i);
  }
  return *this;
}

FleetConfigBuilder& FleetConfigBuilder::allocator(std::string_view policy) {
  return fail(read_row(config_, "allocator", JsonValue::string(policy)));
}

FleetConfigBuilder& FleetConfigBuilder::add_phase_pattern(
    std::string_view dsl) {
  PatternSpec spec;
  const std::string problem = read_dsl(fields::read_pattern, dsl, spec);
  return problem.empty() ? add_phase_pattern(spec) : fail(problem);
}

}  // namespace gpupower::core
