#include "core/activity_memo.hpp"

#include <atomic>
#include <exception>

#include "core/config_fields.hpp"
#include "core/obs/obs.hpp"
#include "core/pattern_dsl.hpp"
#include "gpusim/dvfs/dsl_util.hpp"

namespace gpupower::core {

/// One memo slot.  Every field is guarded by the owning memo's mutex_
/// (a nested struct cannot name it in an annotation).  Attached waiters
/// hold the shared_ptr, so a failed entry can leave the table while they
/// still read its error.
struct ActivityMemo::Entry {
  bool done = false;
  gpupower::gpusim::ActivityTotals totals;
  std::exception_ptr error;
  std::list<const std::string*>::iterator lru;  ///< valid once done
  std::size_t bytes = 0;                        ///< accounted once done
};

namespace {

/// Per-entry bookkeeping beyond the key and the Entry itself: the hash
/// node, the key's string header, the LRU node and the shared_ptr control
/// block, approximately.
constexpr std::size_t kEntryOverheadBytes = 128;

/// Sum over every live memo in the process, mirrored into the gauge.
std::atomic<std::int64_t> g_memo_bytes{0};

void publish_memo_bytes(std::int64_t delta) {
  static obs::Gauge& gauge = obs::gauge("activity.memo_bytes");
  gauge.set(g_memo_bytes.fetch_add(delta, std::memory_order_relaxed) + delta);
}

}  // namespace

std::string activity_memo_key(const PatternSpec& pattern,
                              gpupower::numeric::DType dtype, std::size_t n,
                              const gemm::GemmProblem& problem,
                              const gpupower::gpusim::SimOptions& options,
                              std::uint64_t replica_seed) {
  using gpupower::gpusim::dvfs::detail::format_exact;
  std::string key = to_dsl(pattern);
  key += "|praw=" + pattern_raw_key(pattern);
  key += "|dtype=";
  key += gpupower::numeric::name(dtype);
  key += "|n=" + std::to_string(n);
  key += "|mnk=" + std::to_string(problem.m) + "x" +
         std::to_string(problem.n) + "x" + std::to_string(problem.k);
  key += problem.transpose_b ? "|tb=1" : "|tb=0";
  key += "|samp=" + std::to_string(options.sampling.max_tiles) + ":" +
         format_exact(options.sampling.k_fraction) + ":" +
         std::to_string(options.sampling.seed);
  key += "|backend=" +
         std::to_string(static_cast<int>(options.activity_backend));
  key += "|seed=" + std::to_string(replica_seed);
  return key;
}

ActivityMemo::ActivityMemo(std::size_t budget_bytes)
    : budget_bytes_(budget_bytes) {}

ActivityMemo::~ActivityMemo() {
  MutexLock lock(mutex_);
  adjust_bytes(-static_cast<std::int64_t>(bytes_));
}

gpupower::gpusim::ActivityTotals ActivityMemo::lookup(
    const std::string& key,
    const std::function<gpupower::gpusim::ActivityTotals()>& compute) {
  std::shared_ptr<Entry> entry;
  {
    MutexLock lock(mutex_);
    if (const auto it = table_.find(key); it != table_.end()) {
      ++hits_;
      entry = it->second;
      if (entry->done) {
        lru_.splice(lru_.begin(), lru_, entry->lru);
        return entry->totals;
      }
      obs::Span wait("activity.wait");
      while (!entry->done) cv_.wait(mutex_);
      if (entry->error) std::rethrow_exception(entry->error);
      return entry->totals;
    }
    ++misses_;
    entry = std::make_shared<Entry>();
    table_.emplace(key, entry);
  }

  gpupower::gpusim::ActivityTotals totals;
  try {
    totals = compute();
  } catch (...) {
    {
      MutexLock lock(mutex_);
      // Erased before the error is published, so a waiter that retries
      // after rethrowing finds no entry and recomputes.
      table_.erase(key);
      entry->error = std::current_exception();
      entry->done = true;
    }
    cv_.notify_all();
    throw;
  }

  {
    MutexLock lock(mutex_);
    entry->totals = totals;
    entry->done = true;
    // Still present: only completed entries are ever evicted.
    const auto it = table_.find(key);
    lru_.push_front(&it->first);
    entry->lru = lru_.begin();
    entry->bytes = sizeof(Entry) + key.size() + kEntryOverheadBytes;
    adjust_bytes(static_cast<std::int64_t>(entry->bytes));
    while (bytes_ > budget_bytes_ && !lru_.empty()) {
      const auto victim = table_.find(*lru_.back());
      lru_.pop_back();
      adjust_bytes(-static_cast<std::int64_t>(victim->second->bytes));
      table_.erase(victim);
    }
  }
  cv_.notify_all();
  return totals;
}

void ActivityMemo::adjust_bytes(std::int64_t delta) {
  bytes_ = static_cast<std::size_t>(static_cast<std::int64_t>(bytes_) + delta);
  publish_memo_bytes(delta);
}

std::uint64_t ActivityMemo::hits() const {
  MutexLock lock(mutex_);
  return hits_;
}

std::uint64_t ActivityMemo::misses() const {
  MutexLock lock(mutex_);
  return misses_;
}

std::size_t ActivityMemo::bytes() const {
  MutexLock lock(mutex_);
  return bytes_;
}

std::size_t ActivityMemo::entries() const {
  MutexLock lock(mutex_);
  return table_.size();
}

}  // namespace gpupower::core
