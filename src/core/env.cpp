#include "core/env.hpp"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <type_traits>

#include "core/config_fields.hpp"

namespace gpupower::core {
namespace {

[[noreturn]] void die(const char* name, const char* raw, const char* expect) {
  std::fprintf(stderr, "gpupower: invalid %s='%s' (expected %s)\n", name, raw,
               expect);
  std::exit(2);
}

/// Reads an integer (T integral) or real knob, rejecting trailing junk and
/// values outside `range`.
template <class T>
T read_knob(const char* name, T fallback, const fields::Range& range,
            const std::string& expect) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  T v{};
  if constexpr (std::is_integral_v<T>) {
    v = std::strtol(raw, &end, 10);
  } else {
    v = std::strtod(raw, &end);
  }
  if (end == raw || *end != '\0' || !range.contains(static_cast<double>(v))) {
    die(name, raw, expect.c_str());
  }
  return v;
}

/// The declared range of an ExperimentConfig row ("n", "sampling.tiles").
fields::Range experiment_range(std::string_view path) {
  fields::Range range;
  fields::walk_fields<ExperimentConfig>(
      {}, [&](const std::string& row_path, const fields::RowInfo& row) {
        if (row_path == path) range = row.range;
      });
  return range;
}

}  // namespace

BenchEnv read_bench_env() {
  const fields::Range n = experiment_range("n");
  const fields::Range seeds = experiment_range("seeds");
  const fields::Range tiles = experiment_range("sampling.tiles");
  const fields::Range k_fraction = experiment_range("sampling.k_fraction");
  BenchEnv env;
  env.n = static_cast<std::size_t>(read_knob(
      "GPUPOWER_N", 512L, n, "integer matrix size in " + n.text()));
  env.seeds = static_cast<int>(read_knob(
      "GPUPOWER_SEEDS", 2L, seeds, "integer seed count in " + seeds.text()));
  env.tiles = static_cast<std::size_t>(read_knob(
      "GPUPOWER_TILES", 12L, tiles,
      "integer tile budget in " + tiles.text() + "; 0 = exact walk"));
  env.k_fraction = read_knob("GPUPOWER_KFRAC", 0.5, k_fraction,
                             "fraction in " + k_fraction.text());
  env.workers = static_cast<int>(
      read_knob("GPUPOWER_WORKERS", 0L, {0, 256},
                "worker count in [0, 256]; 0 = hardware concurrency"));
  return env;
}

bool env_is_set(const char* name) {
  const char* raw = std::getenv(name);
  return raw != nullptr && *raw != '\0';
}

StoreEnv read_store_env() {
  StoreEnv env;
  const char* dir = std::getenv("GPUPOWER_STORE_DIR");
  if (dir != nullptr) env.dir = dir;

  const char* raw = std::getenv("GPUPOWER_STORE");
  bool on = true;
  if (raw != nullptr && *raw != '\0') {
    const std::string value(raw);
    if (value == "on") {
      on = true;
    } else if (value == "off") {
      on = false;
    } else {
      die("GPUPOWER_STORE", raw, "'on' or 'off'");
    }
  }
  if (on && raw != nullptr && *raw != '\0' && env.dir.empty()) {
    // An explicit 'on' with nowhere to store is a misconfiguration, not a
    // silent no-op.
    die("GPUPOWER_STORE", raw, "GPUPOWER_STORE_DIR to also be set");
  }
  env.enabled = on && !env.dir.empty();
  env.max_bytes = static_cast<std::size_t>(
      read_knob("GPUPOWER_STORE_MAX_BYTES", 0L, {0, 0x1p62},
                "integer byte budget >= 0; 0 = unlimited"));
  return env;
}

ObsEnv read_obs_env() {
  ObsEnv env;
  const char* trace = std::getenv("GPUPOWER_TRACE");
  if (trace != nullptr) env.trace_path = trace;

  const char* raw = std::getenv("GPUPOWER_METRICS");
  if (raw != nullptr && *raw != '\0') {
    const std::string value(raw);
    if (value == "on") {
      env.metrics = true;
    } else if (value == "off") {
      env.metrics = false;
    } else {
      die("GPUPOWER_METRICS", raw, "'on' or 'off'");
    }
    env.metrics_set = true;
  }
  return env;
}

}  // namespace gpupower::core
