// Outside-in layer timing for the perfbench driver: one seed replica of a
// static or fleet scenario is recomposed from the public calls of each
// layer (build_inputs -> activity -> evaluate -> sample_run, or the fleet's
// activity variants + run_fleet_seed_replica), each call timed with the
// steady clock.  Nothing inside the library is instrumented; the
// recomposed replicas are checked against the library's own replica
// runners bit for bit.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "core/scenario.hpp"

namespace perfbench {

enum Layer {
  kInputs,     ///< core::build_inputs<T>
  kActivity,   ///< GpuSimulator::activity
  kPower,      ///< PowerCalculator::evaluate
  kTelemetry,  ///< telemetry::sample_run + reported_power_w
  kFleet,      ///< run_fleet_seed_replica minus its activity variants
  kLayerCount,
};

inline constexpr const char* kLayerNames[kLayerCount] = {
    "inputs.build", "activity.estimate", "power.evaluate", "telemetry.sample",
    "fleet.replay"};

/// Per-thread layer totals; merged after the worker threads join.
struct LayerTally {
  std::array<std::int64_t, kLayerCount> ns{};
  /// The library's own replicas, the closure reference for the layer
  /// times: run_seed_replica (timed by check_replica) or the
  /// run_fleet_seed_replica call (its outside-in activity is attribution).
  std::int64_t replica_ns = 0;
  std::uint64_t replicas = 0;
  std::uint64_t builds = 0;
  std::uint64_t activity_calls = 0;
  std::uint64_t tiles_walked = 0;
  std::uint64_t samples = 0;
  std::uint64_t slices = 0;

  void merge(const LayerTally& other);
};

/// One recomposed replica: a static SeedReplicaResult, or a fleet run plus
/// the activity variants it was recomposed from.
struct Recomposed {
  std::variant<std::monostate, gpupower::core::SeedReplicaResult,
               gpupower::gpusim::fleet::FleetRun>
      replica;
  std::vector<gpupower::gpusim::ActivityTotals> variants;  ///< fleet only
};

/// Recomposes seed replica `seed_index` of `config` (static or fleet) with
/// every layer call timed into `tally`.
[[nodiscard]] Recomposed recompose_replica(
    const gpupower::core::ScenarioConfig& config, int seed_index,
    LayerTally& tally);

/// Checks a recomposed replica against the library's own runner
/// (run_seed_replica, or replica_activity_variants for a fleet's activity).
/// Returns an empty string when equal bit for bit, else the mismatch.  A
/// static replica's run_seed_replica time is added to tally.replica_ns.
[[nodiscard]] std::string check_replica(
    const gpupower::core::ScenarioConfig& config, int seed_index,
    const Recomposed& recomposed, LayerTally& tally);

/// Reduces recomposed replicas (seed order) through the kind's public
/// reduction, for comparison with the engine's result.
[[nodiscard]] gpupower::core::ScenarioResult reduce_recomposed(
    const gpupower::core::ScenarioConfig& config,
    const std::vector<Recomposed>& replicas);

/// Content keys of the activity walks one replica performs: pattern DSL,
/// n, dtype, transpose, sampling plan and replica seed (one per variant).
[[nodiscard]] std::vector<std::string> activity_keys(
    const gpupower::core::ScenarioConfig& config, int seed_index);

}  // namespace perfbench
