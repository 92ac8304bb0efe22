// One declarative row per scenario-config field: its JSON name, the member
// it fills, the codec, the valid range, and whether it enters the
// canonical cache key.  The spec parser and spec_to_json (core/spec.cpp),
// the config builders' setter checks, validate_dvfs_config /
// validate_fleet_config, the engine's per-kind validate hooks and the
// GPUPOWER_* environment bounds all read these tables, so each field's
// spelling and range is written exactly once, in config_fields.cpp.  The
// canonical keys are defined there too, next to the rows they cover.
//
// Adding a field touches its struct header and config_fields.cpp: one row,
// plus one key fragment when the field changes results.  Hand-written on
// purpose: the fleet `devices` / `staggered` arrays, the governor's
// DSL-or-object union and the cross-field invariants (validate_*_config).
#pragma once

#include <functional>
#include <initializer_list>
#include <limits>
#include <span>
#include <string>
#include <string_view>

#include "analysis/json.hpp"
#include "core/dvfs_experiment.hpp"
#include "core/experiment.hpp"
#include "core/fleet_experiment.hpp"

namespace gpupower::core {

/// Canonical cache key for a config: the pattern serialised through
/// `to_dsl` (human-readable) plus every scalar field that influences the
/// result — including the pattern's raw scalars — at "%.17g" precision so
/// distinct configs never collide.  Two configs with equal keys produce
/// bit-identical ExperimentResults.
[[nodiscard]] std::string canonical_config_key(const ExperimentConfig& config);

/// One pattern's raw scalars at "%.17g" precision — the `praw` fragment of
/// canonical_config_key, reused by the DVFS/fleet keys for the per-phase
/// pattern lists.
[[nodiscard]] std::string pattern_raw_key(const PatternSpec& pattern);

}  // namespace gpupower::core

namespace gpupower::core::fields {

using analysis::JsonValue;

/// First-error collector for the JSON readers: the first failure wins,
/// prefixed with the dotted path of the offending key.
struct Ctx {
  std::string error;

  bool fail(std::string_view path, std::string_view message);
};

[[nodiscard]] std::string join_path(std::string_view parent,
                                    std::string_view key);

/// Fails naming the first key of `obj` that is not in `allowed`.
bool check_keys(const JsonValue& obj, std::string_view path,
                std::initializer_list<std::string_view> allowed, Ctx& ctx);

// Readers: a null `v` (an absent required key) reads as a type error.
bool read_string(const JsonValue* v, std::string_view path, Ctx& ctx,
                 std::string& out);
bool read_number(const JsonValue* v, std::string_view path, Ctx& ctx,
                 double& out);
/// An integral number within (-2^63, 2^63).
bool read_int(const JsonValue* v, std::string_view path, Ctx& ctx,
              long long& out);

/// A field's valid values: lo..hi, closed unless `lo_open`.  NaN is never
/// in range.
struct Range {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;

  [[nodiscard]] bool contains(double value) const noexcept;
  /// "[lo, hi]", or "(lo, hi]" when lo_open.
  [[nodiscard]] std::string text() const;
};

/// "<path>=<value> out of range <range>" — the message every range check
/// reports.
[[nodiscard]] std::string out_of_range(std::string_view path,
                                       std::string_view value,
                                       const Range& range);

/// read_int, then `range` checked before the value narrows into `out`.
bool read_int(const JsonValue* v, std::string_view path, Ctx& ctx,
              const Range& range, int& out);

/// Ranges of the hand-written fleet keys.
extern const Range kIntRange;         ///< devices[i].timeline / priority
extern const Range kStaggeredCount;   ///< staggered.count
extern const Range kStaggerSeconds;   ///< staggered.stagger_s

// The DSL readers: a pattern-, timeline- or governor-DSL string, failing
// with "<kind> DSL error at offset N: ..." at `path`.  A governor may also
// be an object of the governor table's rows.
bool read_pattern(const JsonValue* v, std::string_view path, Ctx& ctx,
                  PatternSpec& out);
bool read_timeline(const JsonValue* v, std::string_view path, Ctx& ctx,
                   gpupower::gpusim::dvfs::WorkloadTimeline& out);
bool read_governor(const JsonValue* v, std::string_view path, Ctx& ctx,
                   gpupower::gpusim::dvfs::GovernorConfig& out);

/// The GPU spelling codec of `experiment.gpu` (a100 | h100 | v100 |
/// rtx6000, any case, or the full descriptor name), shared with the
/// hand-written `devices[i].gpu` and `staggered.gpu` keys.
bool read_gpu(const JsonValue* v, std::string_view path, Ctx& ctx,
              gpupower::gpusim::GpuModel& out);
[[nodiscard]] std::string_view gpu_key(gpupower::gpusim::GpuModel model);

enum class Codec {
  kInt,             ///< integral member, range-checked before narrowing
  kUint64,          ///< seed: signed-64-bit JSON integer, bit-cast
  kDouble,
  kBool,
  kEnum,            ///< one spelling per enumerator
  kNullableDouble,  ///< null spells infinity (cap_w: uncapped)
  kPattern,         ///< pattern-DSL string
  kPatternList,     ///< array of pattern-DSL strings
  kObject,          ///< nested table (of a std::optional: present iff set)
};

struct Spelling {
  template <class Enum>
  constexpr Spelling(std::string_view spelling, Enum enumerator)
      : text(spelling), value(static_cast<int>(enumerator)) {}

  std::string_view text;
  int value;
};

/// What a row declares, without the member it reads and writes.
struct RowInfo {
  std::string_view name;
  Codec codec;
  Range range;
  /// false only for fields a replica overwrites before reading them.
  bool keyed;
  std::span<const Spelling> spellings;  ///< kEnum only
};

using RowVisitor =
    std::function<void(const std::string& path, const RowInfo& row)>;

// The table of S: ExperimentConfig, GovernorConfig (object form), and the
// DvfsConfig / FleetConfig scalars (phase_patterns, slice_s, pstates, and
// for fleets allocator, cap_w and thermal).  The embedded experiment and
// governor are separate tables the callers name.

/// Reads every row present in `obj` into `out` (absent rows keep their
/// values).  Keys that are neither a row nor in `extra_keys` fail.
template <class S>
bool read_fields(
    const JsonValue& obj, std::string_view path, Ctx& ctx, S& out,
    std::initializer_list<std::string_view> extra_keys = {});

/// Appends every row to `obj`, in table order.
template <class S>
void write_fields(const S& config, JsonValue& obj);

/// Empty when every row is in range, else the first out_of_range message.
template <class S>
[[nodiscard]] std::string check_fields(const S& config,
                                       std::string_view path = {});

/// Visits every row depth-first in table order; object rows before their
/// children.
template <class S>
void walk_fields(std::string_view path, const RowVisitor& visit);

}  // namespace gpupower::core::fields
