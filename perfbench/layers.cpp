#include "layers.hpp"

#include <chrono>
#include <cstdio>
#include <span>
#include <stdexcept>

#include "core/experiment.hpp"
#include "core/fleet_experiment.hpp"
#include "core/pattern_dsl.hpp"
#include "core/pattern_spec.hpp"
#include "gpusim/simulator.hpp"
#include "patterns/rng.hpp"
#include "telemetry/sampler.hpp"

namespace perfbench {
namespace {

using gpupower::core::ExperimentConfig;
using gpupower::core::FleetConfig;
using gpupower::core::PatternSpec;
using gpupower::core::ScenarioConfig;
using gpupower::core::ScenarioKind;
using gpupower::core::SeedReplicaResult;
using gpupower::gpusim::ActivityTotals;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

gpupower::gemm::GemmProblem problem_of(const ExperimentConfig& config) {
  return gpupower::gemm::GemmProblem{config.n, config.n, config.n, 1.0f, 0.0f,
                                     config.pattern.transpose_b};
}

std::uint64_t replica_seed_of(const ExperimentConfig& config, int seed_index) {
  return gpupower::patterns::derive_seed(
      config.base_seed, static_cast<std::uint64_t>(seed_index));
}

/// build_inputs -> activity for one pattern, both calls timed.
template <typename T>
ActivityTotals timed_activity(const gpupower::gpusim::GpuSimulator& sim,
                              const ExperimentConfig& config,
                              const PatternSpec& pattern,
                              std::uint64_t replica_seed, LayerTally& tally,
                              gpupower::core::ExperimentInputs<T>* keep) {
  const std::int64_t t0 = now_ns();
  gpupower::core::ExperimentInputs<T> inputs = gpupower::core::build_inputs<T>(
      pattern, config.dtype, config.n, replica_seed);
  const std::int64_t t1 = now_ns();
  const gpupower::gpusim::ActivityEstimate est =
      sim.activity(problem_of(config), config.dtype, inputs.a, inputs.b);
  const std::int64_t t2 = now_ns();
  tally.ns[kInputs] += t1 - t0;
  tally.ns[kActivity] += t2 - t1;
  ++tally.builds;
  ++tally.activity_calls;
  tally.tiles_walked += est.tiles_walked;
  if (keep != nullptr) *keep = std::move(inputs);
  return est.totals;
}

template <typename T>
SeedReplicaResult recompose_static(const ExperimentConfig& config,
                                   int seed_index, LayerTally& tally) {
  const gpupower::gpusim::GpuSimulator sim(
      config.gpu, gpupower::core::replica_sim_options(config, seed_index));
  const std::uint64_t replica_seed = replica_seed_of(config, seed_index);
  gpupower::core::ExperimentInputs<T> inputs;
  const ActivityTotals totals = timed_activity<T>(
      sim, config, config.pattern, replica_seed, tally, &inputs);

  const std::int64_t t0 = now_ns();
  const gpupower::gpusim::PowerReport report =
      gpupower::gpusim::PowerCalculator(sim.descriptor())
          .evaluate(problem_of(config), config.dtype, totals);
  const std::int64_t t1 = now_ns();
  // The replica runner's sampler stream: derived from the replica seed.
  gpupower::telemetry::SamplerConfig sampler = config.sampler;
  sampler.seed = gpupower::patterns::derive_seed(replica_seed, 0xD0C6);
  const gpupower::telemetry::PowerTrace trace = gpupower::telemetry::sample_run(
      report, config.effective_iterations(), sampler);
  const double power_w = gpupower::telemetry::reported_power_w(trace, sampler);
  const std::int64_t t2 = now_ns();
  tally.ns[kPower] += t1 - t0;
  tally.ns[kTelemetry] += t2 - t1;
  tally.samples += trace.samples().size();

  SeedReplicaResult replica;
  replica.power_w = power_w;
  replica.alignment = inputs.alignment;
  replica.weight_fraction = inputs.weight_fraction;
  replica.rails = report.rails;
  replica.iteration_s = report.realized_iteration_s;
  replica.energy_per_iter_j = report.energy_j;
  replica.throttled = report.throttled;
  replica.clock_frac = report.effective_clock_frac;
  return replica;
}

std::vector<const PatternSpec*> variant_patterns(const FleetConfig& config) {
  std::vector<const PatternSpec*> patterns{&config.experiment.pattern};
  for (const PatternSpec& p : config.phase_patterns) patterns.push_back(&p);
  return patterns;
}

Recomposed recompose_fleet(const FleetConfig& config, int seed_index,
                           LayerTally& tally) {
  const ExperimentConfig& experiment = config.experiment;
  const gpupower::gpusim::GpuSimulator sim(
      experiment.gpu,
      gpupower::core::replica_sim_options(experiment, seed_index));
  const std::uint64_t replica_seed = replica_seed_of(experiment, seed_index);

  Recomposed out;
  const std::int64_t variants_t0 = now_ns();
  for (const PatternSpec* pattern : variant_patterns(config)) {
    out.variants.push_back(gpupower::core::with_storage_type(
        experiment.dtype, [&](auto tag) {
          using T = typename decltype(tag)::type;
          return timed_activity<T>(sim, experiment, *pattern, replica_seed,
                                   tally, nullptr);
        }));
  }
  const std::int64_t variants_ns = now_ns() - variants_t0;

  // No public entry separates the P-state replay and fleet allocation from
  // the activity walk run_fleet_seed_replica repeats internally, so that
  // layer is the run's time minus the variants just recomposed.
  const std::int64_t t0 = now_ns();
  gpupower::gpusim::fleet::FleetRun run =
      gpupower::core::run_fleet_seed_replica(config, seed_index);
  const std::int64_t fleet_ns = now_ns() - t0;
  tally.ns[kFleet] += fleet_ns > variants_ns ? fleet_ns - variants_ns : 0;
  // The library replica is the run_fleet_seed_replica call; the walk just
  // recomposed in front of it is attribution, not part of the replica.
  tally.replica_ns += fleet_ns;
  for (const auto& device : run.devices) {
    tally.slices += device.replay.slices.size();
  }
  out.replica = std::move(run);
  return out;
}

bool same(const SeedReplicaResult& a, const SeedReplicaResult& b) {
  return a.power_w == b.power_w && a.alignment == b.alignment &&
         a.weight_fraction == b.weight_fraction &&
         a.rails.fetch_w == b.rails.fetch_w &&
         a.rails.operand_w == b.rails.operand_w &&
         a.rails.multiply_w == b.rails.multiply_w &&
         a.rails.accum_w == b.rails.accum_w &&
         a.rails.issue_w == b.rails.issue_w && a.iteration_s == b.iteration_s &&
         a.energy_per_iter_j == b.energy_per_iter_j &&
         a.throttled == b.throttled && a.clock_frac == b.clock_frac;
}

const gpupower::gpusim::dvfs::WorkloadTimeline& widest_timeline(
    const FleetConfig& config) {
  const auto* widest = &config.timelines.front();
  for (const auto& timeline : config.timelines) {
    if (timeline.max_pattern_index() > widest->max_pattern_index()) {
      widest = &timeline;
    }
  }
  return *widest;
}

}  // namespace

void LayerTally::merge(const LayerTally& other) {
  for (int i = 0; i < kLayerCount; ++i) ns[i] += other.ns[i];
  replica_ns += other.replica_ns;
  replicas += other.replicas;
  builds += other.builds;
  activity_calls += other.activity_calls;
  tiles_walked += other.tiles_walked;
  samples += other.samples;
  slices += other.slices;
}

Recomposed recompose_replica(const ScenarioConfig& config, int seed_index,
                             LayerTally& tally) {
  Recomposed out;
  switch (config.kind()) {
    case ScenarioKind::kStatic: {
      const ExperimentConfig& c = config.static_config();
      out.replica = gpupower::core::with_storage_type(c.dtype, [&](auto tag) {
        return recompose_static<typename decltype(tag)::type>(c, seed_index,
                                                              tally);
      });
      break;
    }
    case ScenarioKind::kFleet:
      out = recompose_fleet(config.fleet(), seed_index, tally);
      break;
    case ScenarioKind::kDvfs:
      throw std::invalid_argument("perfbench: dvfs points are not recomposed");
  }
  ++tally.replicas;
  return out;
}

std::string check_replica(const ScenarioConfig& config, int seed_index,
                          const Recomposed& recomposed, LayerTally& tally) {
  if (config.kind() == ScenarioKind::kStatic) {
    const std::int64_t t0 = now_ns();
    const SeedReplicaResult reference = gpupower::core::run_seed_replica(
        config.static_config(), seed_index);
    tally.replica_ns += now_ns() - t0;
    if (!same(std::get<SeedReplicaResult>(recomposed.replica), reference)) {
      return "recomposed static replica differs from run_seed_replica";
    }
    return {};
  }
  const FleetConfig& fleet = config.fleet();
  const gpupower::gpusim::GpuSimulator sim(
      fleet.experiment.gpu,
      gpupower::core::replica_sim_options(fleet.experiment, seed_index));
  const std::vector<ActivityTotals> reference =
      gpupower::core::replica_activity_variants(
          sim, fleet.experiment, fleet.phase_patterns, widest_timeline(fleet),
          problem_of(fleet.experiment), seed_index);
  if (reference != recomposed.variants) {
    return "recomposed fleet activity differs from replica_activity_variants";
  }
  return {};
}

gpupower::core::ScenarioResult reduce_recomposed(
    const ScenarioConfig& config, const std::vector<Recomposed>& replicas) {
  if (config.kind() == ScenarioKind::kStatic) {
    std::vector<SeedReplicaResult> seeds;
    for (const Recomposed& r : replicas) {
      seeds.push_back(std::get<SeedReplicaResult>(r.replica));
    }
    return gpupower::core::reduce_replicas(config.static_config(), seeds);
  }
  std::vector<gpupower::gpusim::fleet::FleetRun> runs;
  for (const Recomposed& r : replicas) {
    runs.push_back(std::get<gpupower::gpusim::fleet::FleetRun>(r.replica));
  }
  return gpupower::core::reduce_fleet_replicas(config.fleet(), runs);
}

std::vector<std::string> activity_keys(const ScenarioConfig& config,
                                       int seed_index) {
  const ExperimentConfig& experiment = config.experiment();
  std::vector<const PatternSpec*> patterns{&experiment.pattern};
  if (config.kind() == ScenarioKind::kFleet) {
    patterns = variant_patterns(config.fleet());
  }
  char tail[160];
  std::snprintf(tail, sizeof tail, "|%zu|%zu|%.17g|%llu|%llu",
                experiment.n, experiment.sampling.max_tiles,
                experiment.sampling.k_fraction,
                static_cast<unsigned long long>(experiment.sampling.seed),
                static_cast<unsigned long long>(
                    replica_seed_of(experiment, seed_index)));
  std::vector<std::string> keys;
  for (const PatternSpec* pattern : patterns) {
    keys.push_back(gpupower::core::to_dsl(*pattern) + "|" +
                   std::string(gpupower::numeric::name(experiment.dtype)) +
                   (pattern->transpose_b ? "|T" : "|N") + tail);
  }
  return keys;
}

}  // namespace perfbench
