// ActivityMemo: a content-addressed, byte-bounded memo of activity walks.
//
// The paper's central claim is that GEMM power depends on the input data,
// not on who consumes it, and the simulator follows it: an activity walk
// reads only the inputs (pattern, size, replica seed), the dtype's tile
// config, the problem shape and the sampling plan.  It never reads the GPU
// model, process variation, the power cap, the allocator or the timeline.
// Sweeps over those consumer-side axes (fleet_capping's allocator x cap
// grid) therefore repeat identical walks; the engine owns one memo per
// scenario kind and routes the DVFS and fleet replica paths through it, so
// each distinct walk runs once.
//
// Contract:
//  - The first lookup of a key computes it; concurrent lookups of the same
//    key attach to the in-flight computation and wait (an `activity.wait`
//    span), like the engine cache's in-flight dedup.
//  - A computation that throws is not cached: every attached waiter
//    rethrows the error, and the next lookup recomputes.
//  - Completed entries live in a byte-bounded LRU; in-flight entries are
//    pinned until they complete.  Nothing is allocated until the first
//    lookup.
//  - The value is the ActivityTotals only — never the operand matrices.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>

#include "core/annotations.hpp"
#include "core/pattern_spec.hpp"
#include "gemm/problem.hpp"
#include "gpusim/energy_model.hpp"
#include "gpusim/simulator.hpp"

namespace gpupower::core {

/// The memo key of one activity walk: every input the walk reads, at full
/// precision.  The pattern contributes both its canonical DSL (to_dsl,
/// readable) and its raw scalars at "%.17g" (to_dsl rounds to ~6
/// significant digits and would collide near-identical patterns).  The
/// dtype is kept by name, so fp16 and fp16t — same storage, different tile
/// config — never share an entry.
///
/// Deliberately absent: the GPU model, process variation, the DCGM
/// sampler, iterations, the timeline, the governor, the P-state table and
/// the allocator/cap.  The walk reads none of them (they only consume the
/// totals), which is exactly what lets a cap or allocator sweep — or a
/// heterogeneous fleet — share one walk per seed.
[[nodiscard]] std::string activity_memo_key(
    const PatternSpec& pattern, gpupower::numeric::DType dtype, std::size_t n,
    const gemm::GemmProblem& problem,
    const gpupower::gpusim::SimOptions& options, std::uint64_t replica_seed);

class ActivityMemo {
 public:
  /// The engine's budget: a fixed 1 MiB of completed entries per memo
  /// (thousands of walks; an entry is its key plus the totals).
  static constexpr std::size_t kDefaultBudgetBytes = std::size_t{1} << 20;

  /// `budget_bytes` exists so tests can force eviction; production memos
  /// use the default.
  explicit ActivityMemo(std::size_t budget_bytes = kDefaultBudgetBytes);
  ~ActivityMemo();

  ActivityMemo(const ActivityMemo&) = delete;
  ActivityMemo& operator=(const ActivityMemo&) = delete;

  /// Returns the totals memoised under `key`, running `compute` on a miss
  /// (on the calling thread, outside the memo lock).  Rethrows the
  /// computation's exception on the computing thread and on every thread
  /// that attached to it.
  gpupower::gpusim::ActivityTotals lookup(
      const std::string& key,
      const std::function<gpupower::gpusim::ActivityTotals()>& compute);

  /// Lookups served by an existing entry, completed or in flight.
  [[nodiscard]] std::uint64_t hits() const;
  /// Lookups that ran `compute` (including ones that threw).
  [[nodiscard]] std::uint64_t misses() const;
  /// Accounted bytes of the completed entries currently held.
  [[nodiscard]] std::size_t bytes() const;
  /// Entries currently held, completed plus in flight.
  [[nodiscard]] std::size_t entries() const;

 private:
  struct Entry;
  using Table = std::unordered_map<std::string, std::shared_ptr<Entry>>;

  const std::size_t budget_bytes_;

  mutable Mutex mutex_;
  /// Signalled whenever an in-flight entry completes or fails.
  CondVar cv_;
  Table table_ GPUPOWER_GUARDED_BY(mutex_);
  /// Completed entries, most recently used first; points at table keys
  /// (unordered_map nodes are stable across rehashing).
  std::list<const std::string*> lru_ GPUPOWER_GUARDED_BY(mutex_);
  std::size_t bytes_ GPUPOWER_GUARDED_BY(mutex_) = 0;
  std::uint64_t hits_ GPUPOWER_GUARDED_BY(mutex_) = 0;
  std::uint64_t misses_ GPUPOWER_GUARDED_BY(mutex_) = 0;

  /// Moves bytes_ and the process-wide activity.memo_bytes gauge.
  void adjust_bytes(std::int64_t delta) GPUPOWER_REQUIRES(mutex_);
};

}  // namespace gpupower::core
