// Shared harness for the figure benches that are not a single figure
// sweep (fig1, fig2, fig7, fig8 and the ablations): the protocol preamble,
// an engine with the metrics registry armed, and the engine summary line
// (the preamble and the engine line are gpowerctl sweep's too).
// The fig3a..fig6d sweeps are campaign specs: `gpowerctl sweep --figure
// fig6a` runs one and `--emit-spec` prints it.
//
// Environment knobs (see core/env.hpp): GPUPOWER_N, GPUPOWER_SEEDS,
// GPUPOWER_TILES, GPUPOWER_KFRAC, GPUPOWER_WORKERS.  Defaults favour CI
// speed; GPUPOWER_N=2048 GPUPOWER_SEEDS=10 reproduces the paper's protocol.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "core/config_builder.hpp"
#include "core/engine.hpp"
#include "core/env.hpp"
#include "core/figures.hpp"
#include "core/obs/obs.hpp"

namespace gpupower::bench {

/// The title and the protocol line: size, `device` (what the GEMMs run
/// on), seeds and sampling.  `gpowerctl sweep` prints its figure tables
/// under the same preamble.
inline void print_preamble(const core::BenchEnv& env, std::string_view title,
                           std::string_view device) {
  std::printf("%s\n", std::string(title).c_str());
  std::printf(
      "  protocol: %zux%zu GEMM on simulated %s, %d seed(s), "
      "%zu sampled warp tiles, k-fraction %.2f\n",
      env.n, env.n, std::string(device).c_str(), env.seeds, env.tiles,
      env.k_fraction);
  if (env.n < 2048) {
    std::printf(
        "  note: N<2048 leaves SMs idle (partial occupancy), deflating "
        "absolute watts;\n"
        "  run GPUPOWER_N=2048 GPUPOWER_SEEDS=10 for paper-protocol "
        "levels.\n");
  }
  std::printf("\n");
}

inline core::ExperimentEngine make_engine(const core::BenchEnv& env) {
  // Bench engines always run with the metrics registry armed: the timing
  // breakdown (compute/queue-wait/store seconds) is part of what a bench
  // exists to measure, and the armed cost is a relaxed atomic per event.
  core::obs::set_metrics_enabled(true);
  core::EngineOptions options;
  options.workers = env.workers;
  return core::ExperimentEngine(options);
}

inline void print_engine_stats(const core::ExperimentEngine& engine) {
  std::printf("\nengine: %s\n", core::engine_stats_line(engine).c_str());
}

}  // namespace gpupower::bench
