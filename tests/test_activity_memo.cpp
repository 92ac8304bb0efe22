// ActivityMemo suite: what the memo keys on (consumer-side fields share an
// entry, walk inputs never do), error propagation to attached waiters
// without caching the failure, byte-bounded LRU eviction that never drops
// an in-flight entry, and an 8-thread same-key/distinct-key hammer with
// exact hit/miss counts (labelled `concurrency` for the TSan job).
#include "core/activity_memo.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/dvfs_experiment.hpp"
#include "core/figures.hpp"
#include "core/fleet_experiment.hpp"
#include "core/pattern_dsl.hpp"
#include "gpusim/dvfs/timeline.hpp"
#include "gpusim/simulator.hpp"

namespace gpupower::core {
namespace {

using gpupower::gpusim::ActivityTotals;

ExperimentConfig small_experiment(gpupower::numeric::DType dtype =
                                      gpupower::numeric::DType::kFP16) {
  ExperimentConfig config;
  config.dtype = dtype;
  config.n = 64;
  config.seeds = 2;
  config.sampling = gpupower::gpusim::SamplingPlan::fast(6, 0.5);
  config.pattern = baseline_gaussian_spec();
  return config;
}

const gpupower::gpusim::dvfs::WorkloadTimeline& one_phase_timeline() {
  static const gpupower::gpusim::dvfs::WorkloadTimeline timeline =
      gpupower::gpusim::dvfs::parse_timeline("constant(util=1, dur=0.05)")
          .timeline;
  return timeline;
}

/// replica_activity_variants for `config`'s base pattern, through `memo`.
std::vector<ActivityTotals> variants(const ExperimentConfig& config,
                                     int seed_index, ActivityMemo* memo) {
  const gpupower::gpusim::GpuSimulator sim(
      config.gpu, replica_sim_options(config, seed_index));
  const gemm::GemmProblem problem{config.n, config.n, config.n, 1.0f, 0.0f,
                                  config.pattern.transpose_b};
  return replica_activity_variants(sim, config, {}, one_phase_timeline(),
                                   problem, seed_index, memo);
}

/// Distinct, key-derived totals so a lookup returning the wrong entry
/// shows.
ActivityTotals totals_for(const std::string& key) {
  ActivityTotals totals;
  totals.macs = std::hash<std::string>{}(key);
  totals.fetch_words = key.size();
  return totals;
}

// --- the key ---------------------------------------------------------------

TEST(ActivityMemo, MemoisedVariantsMatchTheUnmemoisedWalk) {
  ActivityMemo memo;
  const ExperimentConfig config = small_experiment();
  for (int s = 0; s < config.seeds; ++s) {
    const auto reference = variants(config, s, nullptr);
    EXPECT_EQ(variants(config, s, &memo), reference);  // miss
    EXPECT_EQ(variants(config, s, &memo), reference);  // hit
  }
  EXPECT_EQ(memo.misses(), 2u);
  EXPECT_EQ(memo.hits(), 2u);
}

TEST(ActivityMemo, Fp16AndFp16tDoNotShareEntries) {
  ActivityMemo memo;
  const auto fp16 =
      variants(small_experiment(gpupower::numeric::DType::kFP16), 0, &memo);
  const auto fp16t =
      variants(small_experiment(gpupower::numeric::DType::kFP16T), 0, &memo);
  EXPECT_EQ(memo.misses(), 2u);
  EXPECT_EQ(memo.hits(), 0u);
  EXPECT_EQ(memo.entries(), 2u);
  EXPECT_EQ(fp16t,
            variants(small_experiment(gpupower::numeric::DType::kFP16T), 0,
                     nullptr));
  EXPECT_EQ(fp16,
            variants(small_experiment(gpupower::numeric::DType::kFP16), 0,
                     nullptr));
}

TEST(ActivityMemo, TransposedAndUntransposedDoNotShareEntries) {
  ActivityMemo memo;
  ExperimentConfig transposed = small_experiment();
  ExperimentConfig untransposed = transposed;
  untransposed.pattern.transpose_b = false;
  (void)variants(transposed, 0, &memo);
  const auto plain = variants(untransposed, 0, &memo);
  EXPECT_EQ(memo.misses(), 2u);
  EXPECT_EQ(memo.hits(), 0u);
  EXPECT_EQ(plain, variants(untransposed, 0, nullptr));

  // The key is the walk's, not the config's: the same pattern walked
  // under the other problem orientation is a different entry too.
  const gemm::GemmProblem flipped{64, 64, 64, 1.0f, 0.0f, false};
  const gpupower::gpusim::SimOptions options;
  EXPECT_NE(activity_memo_key(transposed.pattern, transposed.dtype, 64,
                              flipped, options, 1),
            activity_memo_key(transposed.pattern, transposed.dtype, 64,
                              gemm::GemmProblem::square(64), options, 1));
}

TEST(ActivityMemo, KeyCarriesSamplingBackendSeedAndFullPrecisionPattern) {
  const ExperimentConfig config = small_experiment();
  const gemm::GemmProblem problem = gemm::GemmProblem::square(config.n);
  gpupower::gpusim::SimOptions options;
  options.sampling = config.sampling;
  const std::string key = activity_memo_key(config.pattern, config.dtype,
                                            config.n, problem, options, 7);

  gpupower::gpusim::SimOptions other_plan = options;
  other_plan.sampling.k_fraction = 0.5000000001;
  gpupower::gpusim::SimOptions other_backend = options;
  other_backend.activity_backend = gpupower::gpusim::ActivityBackend::kObserver;
  PatternSpec one = config.pattern;
  one.mean = 1.0;
  PatternSpec near = one;
  near.mean = 1.0 + 1e-9;
  ASSERT_EQ(to_dsl(one), to_dsl(near));  // the DSL form rounds it away

  EXPECT_NE(key, activity_memo_key(config.pattern, config.dtype, config.n,
                                   problem, other_plan, 7));
  EXPECT_NE(key, activity_memo_key(config.pattern, config.dtype, config.n,
                                   problem, other_backend, 7));
  EXPECT_NE(key, activity_memo_key(config.pattern, config.dtype, config.n,
                                   problem, options, 8));
  EXPECT_NE(activity_memo_key(one, config.dtype, config.n, problem, options,
                              7),
            activity_memo_key(near, config.dtype, config.n, problem, options,
                              7));

  // Consumer-side options never reach the key.
  gpupower::gpusim::SimOptions varied = options;
  varied.variation = gpupower::gpusim::ProcessVariation{};
  EXPECT_EQ(key, activity_memo_key(config.pattern, config.dtype, config.n,
                                   problem, varied, 7));
}

TEST(ActivityMemo, FleetsDifferingOnlyInGpuAndVariationShareEntries) {
  FleetConfig a100;
  a100.experiment = small_experiment();
  a100.timelines = {one_phase_timeline()};
  FleetDeviceConfig device;
  device.gpu = gpupower::gpusim::GpuModel::kA100PCIe;
  a100.devices = {device, device};

  FleetConfig h100 = a100;
  h100.experiment.gpu = gpupower::gpusim::GpuModel::kH100SXM;
  h100.experiment.variation = gpupower::gpusim::ProcessVariation{};
  h100.experiment.variation->per_seed = true;
  for (FleetDeviceConfig& d : h100.devices) {
    d.gpu = gpupower::gpusim::GpuModel::kH100SXM;
  }

  ActivityMemo memo;
  for (int s = 0; s < a100.experiment.seeds; ++s) {
    (void)run_fleet_seed_replica(a100, s, &memo);
  }
  EXPECT_EQ(memo.misses(), 2u);
  for (int s = 0; s < h100.experiment.seeds; ++s) {
    const auto memoised = run_fleet_seed_replica(h100, s, &memo);
    const auto reference = run_fleet_seed_replica(h100, s);
    EXPECT_EQ(memoised.energy_j, reference.energy_j);
    EXPECT_EQ(memoised.fleet_power_w, reference.fleet_power_w);
  }
  EXPECT_EQ(memo.misses(), 2u);
  EXPECT_EQ(memo.hits(), 2u);
}

// --- failures ---------------------------------------------------------------

TEST(ActivityMemo, ThrowingComputeReachesEveryWaiterAndIsNotCached) {
  ActivityMemo memo;
  constexpr int kWaiters = 4;
  std::atomic<int> failures{0};
  const auto failing = [&]() -> ActivityTotals {
    // Hold the entry in flight until every waiter has attached (a waiter
    // counts its hit before it blocks).
    while (memo.hits() < kWaiters) std::this_thread::yield();
    throw std::runtime_error("walk failed");
  };
  const auto attempt = [&] {
    try {
      (void)memo.lookup("k", failing);
    } catch (const std::runtime_error& error) {
      if (std::string(error.what()) == "walk failed") failures.fetch_add(1);
    }
  };

  std::thread owner(attempt);
  while (memo.entries() == 0) std::this_thread::yield();
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i) waiters.emplace_back(attempt);
  owner.join();
  for (std::thread& waiter : waiters) waiter.join();

  EXPECT_EQ(failures.load(), kWaiters + 1);
  EXPECT_EQ(memo.misses(), 1u);
  EXPECT_EQ(memo.hits(), static_cast<std::uint64_t>(kWaiters));
  EXPECT_EQ(memo.entries(), 0u);
  EXPECT_EQ(memo.bytes(), 0u);

  // The next lookup recomputes, and its success is cached.
  int computed = 0;
  const auto succeeding = [&] {
    ++computed;
    return totals_for("k");
  };
  EXPECT_EQ(memo.lookup("k", succeeding), totals_for("k"));
  EXPECT_EQ(memo.lookup("k", succeeding), totals_for("k"));
  EXPECT_EQ(computed, 1);
  EXPECT_EQ(memo.misses(), 2u);
}

// --- eviction ---------------------------------------------------------------

TEST(ActivityMemo, EvictsLeastRecentlyUsedUnderATinyBudget) {
  // Equal-length keys, so every entry accounts the same bytes.
  std::size_t entry_bytes = 0;
  {
    ActivityMemo probe;
    (void)probe.lookup("k1", [] { return totals_for("k1"); });
    entry_bytes = probe.bytes();
  }
  ASSERT_GT(entry_bytes, 0u);

  ActivityMemo memo(2 * entry_bytes);
  int computed = 0;
  const auto lookup = [&](const std::string& key) {
    return memo.lookup(key, [&] {
      ++computed;
      return totals_for(key);
    });
  };
  (void)lookup("k1");
  (void)lookup("k2");
  EXPECT_EQ(lookup("k1"), totals_for("k1"));  // hit: k1 is now most recent
  (void)lookup("k3");                          // evicts k2, the LRU entry
  EXPECT_EQ(memo.entries(), 2u);
  EXPECT_EQ(memo.bytes(), 2 * entry_bytes);
  EXPECT_EQ(computed, 3);

  EXPECT_EQ(lookup("k1"), totals_for("k1"));
  EXPECT_EQ(computed, 3);
  EXPECT_EQ(lookup("k2"), totals_for("k2"));  // evicted: recomputed
  EXPECT_EQ(computed, 4);
}

TEST(ActivityMemo, NeverEvictsAnInFlightEntry) {
  // A zero budget evicts every completed entry at once; the in-flight one
  // must survive it and keep serving attachers.
  ActivityMemo memo(0);
  std::atomic<bool> release{false};
  std::atomic<int> slow_computes{0};
  const auto slow = [&] {
    slow_computes.fetch_add(1);
    while (!release.load()) std::this_thread::yield();
    return totals_for("slow");
  };
  ActivityTotals first, attached;
  std::thread owner([&] { first = memo.lookup("slow", slow); });
  while (memo.entries() == 0) std::this_thread::yield();

  for (const char* key : {"a", "b", "c"}) {
    EXPECT_EQ(memo.lookup(key, [key] { return totals_for(key); }),
              totals_for(key));
  }
  EXPECT_EQ(memo.entries(), 1u);  // only the in-flight entry remains
  EXPECT_EQ(memo.bytes(), 0u);

  std::thread waiter([&] { attached = memo.lookup("slow", slow); });
  while (memo.hits() == 0) std::this_thread::yield();
  release.store(true);
  owner.join();
  waiter.join();

  EXPECT_EQ(slow_computes.load(), 1);
  EXPECT_EQ(first, totals_for("slow"));
  EXPECT_EQ(attached, totals_for("slow"));
  EXPECT_EQ(memo.entries(), 0u);  // completed, then over budget
}

// --- concurrency ------------------------------------------------------------

TEST(ActivityMemo, EightThreadHammerKeepsExactCounts) {
  constexpr int kThreads = 8;
  constexpr int kRounds = 200;
  constexpr int kOwnKeys = 10;
  ActivityMemo memo;
  std::atomic<int> computes{0};
  std::atomic<int> wrong{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        const std::string own =
            "own-" + std::to_string(t) + "-" + std::to_string(r % kOwnKeys);
        for (const std::string& key : {std::string("shared"), own}) {
          const ActivityTotals got = memo.lookup(key, [&] {
            computes.fetch_add(1);
            if (key == "shared") {
              // Long enough that the other threads attach in flight.
              std::this_thread::sleep_for(std::chrono::milliseconds(5));
            }
            return totals_for(key);
          });
          if (!(got == totals_for(key))) wrong.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  constexpr std::uint64_t kDistinct = 1 + kThreads * kOwnKeys;
  constexpr std::uint64_t kLookups = 2ull * kThreads * kRounds;
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(static_cast<std::uint64_t>(computes.load()), kDistinct);
  EXPECT_EQ(memo.misses(), kDistinct);
  EXPECT_EQ(memo.hits(), kLookups - kDistinct);
  EXPECT_EQ(memo.entries(), kDistinct);
}

}  // namespace
}  // namespace gpupower::core
