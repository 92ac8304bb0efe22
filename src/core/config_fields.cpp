#include "core/config_fields.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/pattern_dsl.hpp"
#include "gpusim/device.hpp"
#include "gpusim/dvfs/dsl_util.hpp"

namespace gpupower::core {
namespace fields {
namespace {

namespace dvfs = gpupower::gpusim::dvfs;
namespace fleet = gpupower::gpusim::fleet;
using gpupower::gpusim::GpuModel;
using gpupower::gpusim::dvfs::detail::format_exact;
using gpupower::numeric::DType;

constexpr double kInf = std::numeric_limits<double>::infinity();

bool check_keys_in(const JsonValue& obj, std::string_view path,
                   std::span<const std::string_view> allowed, Ctx& ctx) {
  for (const std::string& key : obj.keys()) {
    bool known = false;
    for (const std::string_view candidate : allowed) known |= key == candidate;
    if (known) continue;
    std::string expected;
    for (const std::string_view candidate : allowed) {
      if (!expected.empty()) expected += ", ";
      expected += candidate;
    }
    return ctx.fail(path.empty() ? "spec" : path,
                    "unknown key '" + key + "' (expected one of: " +
                        expected + ")");
  }
  return true;
}

std::string bound_text(double v) {
  if (std::isinf(v)) return v < 0 ? "-inf" : "inf";
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

// --- enum spellings ---------------------------------------------------------

using GovernorPolicy = dvfs::GovernorConfig::Policy;
using AllocatorPolicy = fleet::AllocatorConfig::Policy;
constexpr Spelling kGpus[] = {{"a100", GpuModel::kA100PCIe},
                              {"h100", GpuModel::kH100SXM},
                              {"v100", GpuModel::kV100SXM2},
                              {"rtx6000", GpuModel::kRTX6000}};
constexpr Spelling kDTypes[] = {{"fp32", DType::kFP32},
                                {"fp16", DType::kFP16},
                                {"fp16t", DType::kFP16T},
                                {"int8", DType::kINT8}};
constexpr Spelling kGovernorPolicies[] = {
    {"fixed", GovernorPolicy::kFixed},
    {"utilization", GovernorPolicy::kUtilization},
    {"oracle", GovernorPolicy::kOracle}};
constexpr Spelling kAllocators[] = {
    {"uniform", AllocatorPolicy::kUniform},
    {"proportional", AllocatorPolicy::kProportional},
    {"priority", AllocatorPolicy::kPriority},
    {"greedy", AllocatorPolicy::kGreedyOracle}};

// Spellings an enum's own parser accepts beyond the canonical ones.
bool parse_alias(std::string_view text, GpuModel& out) {
  std::string lowered(text);
  for (char& c : lowered) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  for (const Spelling& spelling : kGpus) {
    if (lowered == spelling.text) {
      out = static_cast<GpuModel>(spelling.value);
      return true;
    }
  }
  // The full descriptor names ("NVIDIA A100 PCIe 40GB").
  for (const auto model : gpupower::gpusim::kAllGpuModels) {
    if (text == gpupower::gpusim::name(model)) {
      out = model;
      return true;
    }
  }
  return false;
}
bool parse_alias(std::string_view text, DType& out) {
  return gpupower::numeric::parse_dtype(text, out);
}
bool parse_alias(std::string_view text, AllocatorPolicy& out) {
  return fleet::parse_allocator_policy(text, out);
}
template <class E>
bool parse_alias(std::string_view, E&) {
  return false;
}

std::string_view spelling_of(std::span<const Spelling> spellings,
                             int value) {
  for (const Spelling& spelling : spellings) {
    if (spelling.value == value) return spelling.text;
  }
  return spellings.front().text;
}

// --- rows -------------------------------------------------------------------

using WalkFn = void (*)(const std::string& path, const RowVisitor& visit);

/// A table row: what it declares plus how it reads, writes and checks the
/// member it names.
template <class S>
struct Row {
  RowInfo info;
  bool (*read)(const RowInfo&, const JsonValue&, const std::string& path,
               Ctx&, S&);
  /// False when the row is omitted (an empty optional).
  bool (*write)(const RowInfo&, const S&, JsonValue&);
  /// Empty, or the first out-of-range message under `parent`.
  std::string (*check)(const RowInfo&, const S&, std::string_view parent);
  WalkFn walk;  ///< nested rows; nullptr for scalars
};

/// The table of S (explicitly specialised after each table below).
template <class S>
std::span<const Row<S>> rows_of();

template <class S>
bool read_rows(const JsonValue& obj, std::string_view path, Ctx& ctx, S& out,
               std::span<const std::string_view> extra_keys) {
  if (!obj.is_object()) return ctx.fail(path, "expected an object");
  for (const std::string& key : obj.keys()) {
    bool known = std::ranges::find(extra_keys, key) != extra_keys.end();
    for (const Row<S>& row : rows_of<S>()) known |= key == row.info.name;
    if (known) continue;
    std::vector<std::string_view> allowed(extra_keys.begin(), extra_keys.end());
    for (const Row<S>& row : rows_of<S>()) allowed.push_back(row.info.name);
    return check_keys_in(obj, path, allowed, ctx);
  }
  for (const Row<S>& row : rows_of<S>()) {
    if (const JsonValue* v = obj.find(row.info.name)) {
      if (!row.read(row.info, *v, join_path(path, row.info.name), ctx, out)) {
        return false;
      }
    }
  }
  return true;
}

// Member access: `(s.*M).*Rest...`, so a row can name a nested member
// (the fleet's flat `cap_w` lives in `allocator.cap_w`).
template <class M>
struct MemberPointer;
template <class C, class T>
struct MemberPointer<T C::*> {
  using Owner = C;
};

template <auto M, auto... Rest>
struct Member {
  using Owner = typename MemberPointer<decltype(M)>::Owner;
  static auto& get(Owner& s) { return ((s.*M) .* ... .* Rest); }
  static const auto& get(const Owner& s) { return ((s.*M) .* ... .* Rest); }
  using Type = std::remove_cvref_t<decltype(get(std::declval<Owner&>()))>;
};

// Codecs: read a JSON value into a T (range-checked before it narrows),
// write it back, check a T already in a config.

/// A scalar with no range.
struct Leaf {
  static constexpr WalkFn walk = nullptr;
  template <class T>
  static std::string check(const RowInfo&, const T&, std::string_view) {
    return {};
  }
};

/// Integral (read as a JSON integer) or floating-point members.
template <class T>
struct NumberCodec : Leaf {
  static constexpr bool kIntegral = std::is_integral_v<T>;
  static constexpr Codec kCodec = kIntegral ? Codec::kInt : Codec::kDouble;
  using Wide = std::conditional_t<kIntegral, long long, double>;

  template <class V>
  static std::string text(V v) {
    if constexpr (kIntegral) return std::to_string(v);
    return format_exact(v);
  }
  static bool read(const RowInfo& row, const JsonValue& v,
                   const std::string& path, Ctx& ctx, T& out) {
    Wide value{};
    if constexpr (kIntegral) {
      if (!read_int(&v, path, ctx, value)) return false;
    } else if (!read_number(&v, path, ctx, value)) {
      return false;
    }
    bool fits = row.range.contains(static_cast<double>(value));
    if constexpr (kIntegral) fits = fits && std::in_range<T>(value);
    if (!fits) return ctx.fail({}, out_of_range(path, text(value), row.range));
    out = static_cast<T>(value);
    return true;
  }
  static bool write(const RowInfo&, const T& in, JsonValue& out) {
    out = kIntegral ? JsonValue::integer(static_cast<long long>(in))
                    : JsonValue::number(static_cast<double>(in));
    return true;
  }
  static std::string check(const RowInfo& row, const T& in,
                           std::string_view parent) {
    if (row.range.contains(static_cast<double>(in))) return {};
    return out_of_range(join_path(parent, row.name), text(in), row.range);
  }
};

/// null spells infinity (the fleet cap: uncapped).
template <class T>
struct NullableCodec : NumberCodec<T> {
  static constexpr Codec kCodec = Codec::kNullableDouble;
  static bool read(const RowInfo& row, const JsonValue& v,
                   const std::string& path, Ctx& ctx, T& out) {
    if (!v.is_null()) return NumberCodec<T>::read(row, v, path, ctx, out);
    out = kInf;
    return true;
  }
  static bool write(const RowInfo&, const T& in, JsonValue& out) {
    out = std::isinf(in) ? JsonValue::null() : JsonValue::number(in);
    return true;
  }
};

/// Seeds keep their historical signed-64-bit JSON round trip.
template <class T>
struct SeedCodec : Leaf {
  static constexpr Codec kCodec = Codec::kUint64;
  static bool read(const RowInfo&, const JsonValue& v,
                   const std::string& path, Ctx& ctx, T& out) {
    long long value = 0;
    if (!read_int(&v, path, ctx, value)) return false;
    out = static_cast<T>(value);
    return true;
  }
  static bool write(const RowInfo&, const T& in, JsonValue& out) {
    out = JsonValue::integer(static_cast<long long>(in));
    return true;
  }
};

template <class T>
struct BoolCodec : Leaf {
  static constexpr Codec kCodec = Codec::kBool;
  static bool read(const RowInfo&, const JsonValue& v,
                   const std::string& path, Ctx& ctx, T& out) {
    // as_boolean returns the fallback for non-bool kinds, so the two probes
    // agree exactly when the value is a real boolean.
    if (v.as_boolean(true) != v.as_boolean(false)) {
      return ctx.fail(path, "expected true or false");
    }
    out = v.as_boolean();
    return true;
  }
  static bool write(const RowInfo&, const T& in, JsonValue& out) {
    out = JsonValue::boolean(in);
    return true;
  }
};

template <class T>
struct EnumCodec : Leaf {
  static constexpr Codec kCodec = Codec::kEnum;
  static bool read(const RowInfo& row, const JsonValue& v,
                   const std::string& path, Ctx& ctx, T& out) {
    std::string text;
    if (!read_string(&v, path, ctx, text)) return false;
    std::string expected;
    for (const Spelling& spelling : row.spellings) {
      if (text == spelling.text) {
        out = static_cast<T>(spelling.value);
        return true;
      }
      expected += expected.empty() ? "" : " | ";
      expected += spelling.text;
    }
    return parse_alias(text, out) ||
           ctx.fail(path, "unknown " + std::string(row.name) + " '" + text +
                              "' (expected " + expected + ")");
  }
  static bool write(const RowInfo& row, const T& in, JsonValue& out) {
    out = JsonValue::string(spelling_of(row.spellings, static_cast<int>(in)));
    return true;
  }
};

template <class T>
struct PatternCodec : Leaf {
  static constexpr Codec kCodec = Codec::kPattern;
  static bool read(const RowInfo&, const JsonValue& v,
                   const std::string& path, Ctx& ctx, T& out) {
    return read_pattern(&v, path, ctx, out);
  }
  static bool write(const RowInfo&, const T& in, JsonValue& out) {
    out = JsonValue::string(to_exact_dsl(in));
    return true;
  }
};

template <class T>
struct PatternListCodec : Leaf {
  static constexpr Codec kCodec = Codec::kPatternList;
  static bool read(const RowInfo&, const JsonValue& v,
                   const std::string& path, Ctx& ctx, T& out) {
    if (!v.is_array()) {
      return ctx.fail(path, "expected an array of pattern DSL strings");
    }
    T patterns(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (!read_pattern(&v.at(i), path + "[" + std::to_string(i) + "]", ctx,
                        patterns[i])) {
        return false;
      }
    }
    out = std::move(patterns);
    return true;
  }
  static bool write(const RowInfo&, const T& in, JsonValue& out) {
    out = JsonValue::array();
    for (const PatternSpec& pattern : in) {
      out.push(JsonValue::string(to_exact_dsl(pattern)));
    }
    return true;
  }
};

/// A nested table; for a std::optional member, present in JSON iff
/// engaged.
template <class T>
struct Nested {
  using Value = T;
};
template <class T>
struct Nested<std::optional<T>> {
  using Value = T;
};

template <class T>
struct ObjectCodec {
  using Value = typename Nested<T>::Value;
  static constexpr bool kOptional = !std::is_same_v<T, Value>;
  static constexpr Codec kCodec = Codec::kObject;

  static bool read(const RowInfo&, const JsonValue& v,
                   const std::string& path, Ctx& ctx, T& out) {
    Value value{};
    if (!read_rows(v, path, ctx, value, {})) return false;
    out = std::move(value);
    return true;
  }
  static bool write(const RowInfo&, const T& in, JsonValue& out) {
    if constexpr (kOptional) {
      if (!in) return false;
    }
    out = JsonValue::object();
    write_fields(value_of(in), out);
    return true;
  }
  static std::string check(const RowInfo& row, const T& in,
                           std::string_view parent) {
    if constexpr (kOptional) {
      if (!in) return {};
    }
    // The nested path is only spelled out for a message.
    if (check_fields(value_of(in)).empty()) return {};
    return check_fields(value_of(in), join_path(parent, row.name));
  }
  static void walk(const std::string& path, const RowVisitor& visit) {
    walk_fields<Value>(path, visit);
  }
  static const Value& value_of(const T& in) {
    if constexpr (kOptional) return *in;
    else return in;
  }
};

template <template <class> class C, auto... Ms>
constexpr Row<typename Member<Ms...>::Owner> row(
    std::string_view name, Range range = {}, bool keyed = true,
    std::span<const Spelling> spellings = {}) {
  using A = Member<Ms...>;
  using S = typename A::Owner;
  using Cd = C<typename A::Type>;
  return {{name, Cd::kCodec, range, keyed, spellings},
          [](const RowInfo& info, const JsonValue& v, const std::string& path,
             Ctx& ctx, S& out) {
            return Cd::read(info, v, path, ctx, A::get(out));
          },
          [](const RowInfo& info, const S& in, JsonValue& out) {
            return Cd::write(info, A::get(in), out);
          },
          [](const RowInfo& info, const S& in, std::string_view parent) {
            return Cd::check(info, A::get(in), parent);
          },
          Cd::walk};
}

template <auto... Ms>
constexpr Row<typename Member<Ms...>::Owner> enum_row(
    std::string_view name, std::span<const Spelling> spellings) {
  return row<EnumCodec, Ms...>(name, {}, true, spellings);
}

// --- the tables -------------------------------------------------------------
//
// Row order is spec_to_json's key order.  A range written here is the only
// copy: builders, validate_*_config, the engine and GPUPOWER_* read it.

using gpupower::gpusim::ProcessVariation;
using gpupower::gpusim::SamplingPlan;
using telemetry::SamplerConfig;
using dvfs::GovernorConfig;
using fleet::AllocatorConfig;
using fleet::ThermalConfig;

constexpr Row<SamplingPlan> kSamplingRows[] = {
    row<NumberCodec, &SamplingPlan::max_tiles>("tiles", {0, 1000000}),
    row<NumberCodec, &SamplingPlan::k_fraction>("k_fraction", {0, 1, true}),
    row<SeedCodec, &SamplingPlan::seed>("seed"),
};
template <>
std::span<const Row<SamplingPlan>> rows_of() {
  return kSamplingRows;
}

constexpr Row<SamplerConfig> kSamplerRows[] = {
    row<NumberCodec, &SamplerConfig::period_s>("period_s", {0, kInf, true}),
    row<NumberCodec, &SamplerConfig::warmup_trim_s>("warmup_trim_s",
                                                    {0, kInf}),
    row<NumberCodec, &SamplerConfig::ramp_tau_s>("ramp_tau_s"),
    row<NumberCodec, &SamplerConfig::noise_sigma_w>("noise_sigma_w"),
    // run_seed_replica derives the sampler seed per replica, overwriting
    // this one; committed specs still carry it.
    row<SeedCodec, &SamplerConfig::seed>("seed", {}, /*keyed=*/false),
};
template <>
std::span<const Row<SamplerConfig>> rows_of() {
  return kSamplerRows;
}

constexpr Row<ProcessVariation> kVariationRows[] = {
    row<NumberCodec, &ProcessVariation::sigma_fraction>("sigma_fraction"),
    row<SeedCodec, &ProcessVariation::instance>("instance"),
    row<BoolCodec, &ProcessVariation::per_seed>("per_seed"),
};
template <>
std::span<const Row<ProcessVariation>> rows_of() {
  return kVariationRows;
}

constexpr Row<ExperimentConfig> kExperimentRows[] = {
    enum_row<&ExperimentConfig::gpu>("gpu", kGpus),
    enum_row<&ExperimentConfig::dtype>("dtype", kDTypes),
    row<NumberCodec, &ExperimentConfig::n>("n", {64, 65536}),
    row<NumberCodec, &ExperimentConfig::seeds>("seeds", {1, 10000}),
    row<NumberCodec, &ExperimentConfig::iterations>("iterations", {0, 1e9}),
    row<SeedCodec, &ExperimentConfig::base_seed>("base_seed"),
    row<PatternCodec, &ExperimentConfig::pattern>("pattern"),
    row<ObjectCodec, &ExperimentConfig::sampling>("sampling"),
    row<ObjectCodec, &ExperimentConfig::sampler>("sampler"),
    row<ObjectCodec, &ExperimentConfig::variation>("variation"),
};
template <>
std::span<const Row<ExperimentConfig>> rows_of() {
  return kExperimentRows;
}

// The object form of a governor; the DSL form is gpusim/dvfs/governor.hpp's.
constexpr Row<GovernorConfig> kGovernorRows[] = {
    enum_row<&GovernorConfig::policy>("policy", kGovernorPolicies),
    row<NumberCodec, &GovernorConfig::fixed_pstate>("fixed_pstate", {0, 1e6}),
    row<NumberCodec, &GovernorConfig::boost_util>("boost_util", {0, 1}),
    row<NumberCodec, &GovernorConfig::boost_hold_s>("boost_hold_s", {0, kInf}),
    row<NumberCodec, &GovernorConfig::low_util>("low_util", {0, 1}),
    row<NumberCodec, &GovernorConfig::low_hold_s>("low_hold_s", {0, kInf}),
};
template <>
std::span<const Row<GovernorConfig>> rows_of() {
  return kGovernorRows;
}

constexpr Row<ThermalConfig> kThermalRows[] = {
    row<BoolCodec, &ThermalConfig::enabled>("enabled"),
    row<NumberCodec, &ThermalConfig::ambient_c>("ambient_c"),
    row<NumberCodec, &ThermalConfig::tau_s>("tau_s", {0, kInf, true}),
    row<NumberCodec, &ThermalConfig::trip_c>("trip_c"),
    row<NumberCodec, &ThermalConfig::release_c>("release_c"),
    row<NumberCodec, &ThermalConfig::throttle_pstate>("throttle_pstate",
                                                   {-1, 1e6}),
    row<NumberCodec, &ThermalConfig::initial_c>("initial_c"),
};
template <>
std::span<const Row<ThermalConfig>> rows_of() {
  return kThermalRows;
}

// Replay scalars shared by the DVFS and fleet kinds.
constexpr Range kSliceSeconds{1e-6, 10};  // the floor keeps slice counts sane
constexpr Range kPStates{1, 16};          // 1 = boost only (DVFS off)

constexpr Row<DvfsConfig> kDvfsRows[] = {
    row<PatternListCodec, &DvfsConfig::phase_patterns>("phase_patterns"),
    row<NumberCodec, &DvfsConfig::slice_s>("slice_s", kSliceSeconds),
    row<NumberCodec, &DvfsConfig::pstates>("pstates", kPStates),
};
template <>
std::span<const Row<DvfsConfig>> rows_of() {
  return kDvfsRows;
}

constexpr Row<FleetConfig> kFleetRows[] = {
    enum_row<&FleetConfig::allocator, &AllocatorConfig::policy>("allocator",
                                                                kAllocators),
    row<NullableCodec, &FleetConfig::allocator, &AllocatorConfig::cap_w>(
        "cap_w", {0, kInf, true}),
    row<ObjectCodec, &FleetConfig::thermal>("thermal"),
    row<PatternListCodec, &FleetConfig::phase_patterns>("phase_patterns"),
    row<NumberCodec, &FleetConfig::slice_s>("slice_s", kSliceSeconds),
    row<NumberCodec, &FleetConfig::pstates>("pstates", kPStates),
};
template <>
std::span<const Row<FleetConfig>> rows_of() {
  return kFleetRows;
}

}  // namespace

const Range kIntRange{std::numeric_limits<int>::min(),
                      std::numeric_limits<int>::max()};
const Range kStaggeredCount{1, 256};
const Range kStaggerSeconds{0, kInf};

bool Ctx::fail(std::string_view path, std::string_view message) {
  if (error.empty()) {
    error = path.empty() ? std::string(message)
                         : std::string(path) + ": " + std::string(message);
  }
  return false;
}

std::string join_path(std::string_view parent, std::string_view key) {
  if (parent.empty()) return std::string(key);
  std::string path(parent);
  path += '.';
  path += key;
  return path;
}

bool check_keys(const JsonValue& obj, std::string_view path,
                std::initializer_list<std::string_view> allowed, Ctx& ctx) {
  return check_keys_in(obj, path, {allowed.begin(), allowed.size()}, ctx);
}

bool read_string(const JsonValue* v, std::string_view path, Ctx& ctx,
                 std::string& out) {
  if (v == nullptr || !v->is_string()) {
    return ctx.fail(path, "expected a string");
  }
  out = v->as_string();
  return true;
}

bool read_number(const JsonValue* v, std::string_view path, Ctx& ctx,
                 double& out) {
  if (v == nullptr || !v->is_number()) {
    return ctx.fail(path, "expected a number");
  }
  out = v->as_number();
  return true;
}

bool read_int(const JsonValue* v, std::string_view path, Ctx& ctx,
              long long& out) {
  if (v == nullptr || !v->is_number()) {
    return ctx.fail(path, "expected an integer");
  }
  const double value = v->as_number();
  // Range-check before the cast: float-to-integer conversion outside the
  // target range is undefined behaviour, so a spec saying 1e300 must be
  // rejected here, not by whatever the hardware happens to produce.
  constexpr double kMax = 9223372036854775808.0;  // 2^63
  if (!(value > -kMax && value < kMax)) {
    return ctx.fail(path, "expected an integer");
  }
  out = static_cast<long long>(value);
  if (static_cast<double>(out) != value) {
    return ctx.fail(path, "expected an integer");
  }
  return true;
}

bool read_int(const JsonValue* v, std::string_view path, Ctx& ctx,
              const Range& range, int& out) {
  long long value = 0;
  if (!read_int(v, path, ctx, value)) return false;
  if (!range.contains(static_cast<double>(value))) {
    return ctx.fail({}, out_of_range(path, std::to_string(value), range));
  }
  out = static_cast<int>(value);
  return true;
}

bool Range::contains(double value) const noexcept {
  return (lo_open ? value > lo : value >= lo) && value <= hi;
}

std::string Range::text() const {
  return (lo_open ? "(" : "[") + bound_text(lo) + ", " + bound_text(hi) + "]";
}

std::string out_of_range(std::string_view path, std::string_view value,
                         const Range& range) {
  std::string message(path);
  message += '=';
  message += value;
  message += " out of range ";
  message += range.text();
  return message;
}

bool read_gpu(const JsonValue* v, std::string_view path, Ctx& ctx,
              GpuModel& out) {
  if (v == nullptr) return ctx.fail(path, "expected a string");
  return EnumCodec<GpuModel>::read(kExperimentRows[0].info, *v,
                                   std::string(path), ctx, out);
}

bool read_pattern(const JsonValue* v, std::string_view path, Ctx& ctx,
                  PatternSpec& out) {
  std::string dsl;
  if (!read_string(v, path, ctx, dsl)) return false;
  const ParseResult parsed = parse_pattern(dsl);
  if (!parsed.ok) {
    return ctx.fail(path, "pattern DSL error at offset " +
                              std::to_string(parsed.error_pos) + ": " +
                              parsed.error);
  }
  out = parsed.spec;
  return true;
}

bool read_timeline(const JsonValue* v, std::string_view path, Ctx& ctx,
                   dvfs::WorkloadTimeline& out) {
  std::string dsl;
  if (!read_string(v, path, ctx, dsl)) return false;
  const auto parsed = dvfs::parse_timeline(dsl);
  if (!parsed.ok) {
    return ctx.fail(path, "timeline DSL error at offset " +
                              std::to_string(parsed.error_pos) + ": " +
                              parsed.error);
  }
  out = parsed.timeline;
  return true;
}

bool read_governor(const JsonValue* v, std::string_view path, Ctx& ctx,
                   dvfs::GovernorConfig& out) {
  if (v != nullptr && v->is_object()) {
    dvfs::GovernorConfig config;
    if (!read_rows(*v, path, ctx, config, {})) return false;
    out = config;
    return true;
  }
  if (v == nullptr || !v->is_string()) {
    return ctx.fail(path, "expected a governor DSL string or object");
  }
  const auto parsed = dvfs::parse_governor(v->as_string());
  if (!parsed.ok) {
    return ctx.fail(path, "governor DSL error at offset " +
                              std::to_string(parsed.error_pos) + ": " +
                              parsed.error);
  }
  out = parsed.config;
  return true;
}

std::string_view gpu_key(GpuModel model) {
  return spelling_of(kGpus, static_cast<int>(model));
}

template <class S>
bool read_fields(const JsonValue& obj, std::string_view path, Ctx& ctx,
                 S& out, std::initializer_list<std::string_view> extra_keys) {
  return read_rows(obj, path, ctx, out,
                   {extra_keys.begin(), extra_keys.size()});
}

template <class S>
void write_fields(const S& config, JsonValue& obj) {
  for (const Row<S>& row : rows_of<S>()) {
    JsonValue value;
    if (row.write(row.info, config, value)) {
      obj.set(row.info.name, std::move(value));
    }
  }
}

template <class S>
std::string check_fields(const S& config, std::string_view path) {
  for (const Row<S>& row : rows_of<S>()) {
    std::string problem = row.check(row.info, config, path);
    if (!problem.empty()) return problem;
  }
  return {};
}

template <class S>
void walk_fields(std::string_view path, const RowVisitor& visit) {
  for (const Row<S>& row : rows_of<S>()) {
    const std::string row_path = join_path(path, row.info.name);
    visit(row_path, row.info);
    if (row.walk != nullptr) row.walk(row_path, visit);
  }
}

#define GPUPOWER_FIELD_TABLE(S)                                            \
  template bool read_fields(const JsonValue&, std::string_view, Ctx&, S&,  \
                            std::initializer_list<std::string_view>);      \
  template void write_fields(const S&, JsonValue&);                        \
  template std::string check_fields(const S&, std::string_view);           \
  template void walk_fields<S>(std::string_view, const RowVisitor&);
GPUPOWER_FIELD_TABLE(ExperimentConfig)
GPUPOWER_FIELD_TABLE(dvfs::GovernorConfig)
GPUPOWER_FIELD_TABLE(DvfsConfig)
GPUPOWER_FIELD_TABLE(FleetConfig)
#undef GPUPOWER_FIELD_TABLE

}  // namespace fields

// --- canonical keys ---------------------------------------------------------
//
// Persistence formats: the engine cache key and the result-store entry key
// (Spec.CanonicalKeysMatchGoldenBytes pins the bytes).  Every keyed row
// contributes; a new keyed field appends a fragment.

using gpupower::gpusim::dvfs::detail::format_exact;
namespace dvfs = gpupower::gpusim::dvfs;

std::string canonical_config_key(const ExperimentConfig& config) {
  std::string key;
  key.reserve(192);
  key += "gpu=";
  key += gpupower::gpusim::name(config.gpu);
  key += "|dtype=";
  key += gpupower::numeric::name(config.dtype);
  key += "|n=" + std::to_string(config.n);
  key += "|seeds=" + std::to_string(config.seeds);
  key += "|iters=" + std::to_string(config.effective_iterations());
  key += "|base=" + std::to_string(config.base_seed);
  key += "|samp=" + std::to_string(config.sampling.max_tiles) + ":" +
         format_exact(config.sampling.k_fraction) + ":" +
         std::to_string(config.sampling.seed);
  key += "|smpl=" + format_exact(config.sampler.period_s) + ":" +
         format_exact(config.sampler.warmup_trim_s) + ":" +
         format_exact(config.sampler.ramp_tau_s) + ":" +
         format_exact(config.sampler.noise_sigma_w);
  key += "|var=";
  if (config.variation) {
    key += format_exact(config.variation->sigma_fraction) + ":" +
           std::to_string(config.variation->instance) + ":" +
           (config.variation->per_seed ? "perseed" : "shared");
  } else {
    key += "none";
  }
  // to_dsl keeps the key human-readable, but rounds doubles to ~6
  // significant digits; append the pattern's raw scalars at full precision
  // so near-identical specs never collide.
  key += "|pattern=" + to_dsl(config.pattern);
  key += "|praw=" + pattern_raw_key(config.pattern);
  return key;
}

std::string pattern_raw_key(const PatternSpec& pattern) {
  return std::to_string(static_cast<int>(pattern.value)) + ":" +
         format_exact(pattern.mean) + ":" + format_exact(pattern.sigma) +
         ":" + std::to_string(pattern.set_size) + ":" +
         std::to_string(static_cast<int>(pattern.place)) + ":" +
         format_exact(pattern.sort_percent) + ":" +
         format_exact(pattern.sparsity) + ":" +
         std::to_string(static_cast<int>(pattern.bitop)) + ":" +
         format_exact(pattern.bit_fraction) + ":" +
         (pattern.transpose_b ? "t" : "n");
}

std::string canonical_governor_key(const dvfs::GovernorConfig& governor) {
  // Raw governor fields at full precision — to_dsl is the %g display form
  // and would collide configs differing past 6 significant digits.
  return std::to_string(static_cast<int>(governor.policy)) + ":" +
         std::to_string(governor.fixed_pstate) + ":" +
         format_exact(governor.boost_util) + ":" +
         format_exact(governor.boost_hold_s) + ":" +
         format_exact(governor.low_util) + ":" +
         format_exact(governor.low_hold_s);
}

std::string canonical_timeline_key(const dvfs::WorkloadTimeline& timeline) {
  if (timeline.phases().size() <= 64) {
    return dvfs::to_dsl(timeline);
  }
  std::uint64_t hash = 1469598103934665603ull;
  const auto mix = [&hash](double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    for (int b = 0; b < 64; b += 8) {
      hash ^= (bits >> b) & 0xFFu;
      hash *= 1099511628211ull;
    }
  };
  for (const auto& phase : timeline.phases()) {
    mix(phase.duration_s);
    mix(phase.utilization);
    mix(static_cast<double>(phase.pattern));
  }
  std::string key = "#";
  key += std::to_string(timeline.phases().size());
  key += ':';
  key += std::to_string(hash);
  return key;
}

std::string canonical_dvfs_key(const DvfsConfig& config) {
  std::string key = canonical_config_key(config.experiment);
  key += "|gov=" + canonical_governor_key(config.governor);
  key += "|slice=" + format_exact(config.slice_s);
  key += "|pstates=" + std::to_string(config.pstates);
  key += "|tl=" + canonical_timeline_key(config.timeline);
  // Phase patterns contribute their raw scalars; the fragment is absent
  // when the list is empty, keeping historical keys stable.
  for (const PatternSpec& pattern : config.phase_patterns) {
    key += "|pp=" + pattern_raw_key(pattern);
  }
  return key;
}

std::string canonical_fleet_key(const FleetConfig& config) {
  std::string key = canonical_config_key(config.experiment);
  key += "|alloc=" +
         std::to_string(static_cast<int>(config.allocator.policy)) + ":" +
         format_exact(config.allocator.cap_w);
  key += "|thermal=";
  if (config.thermal.enabled) {
    key += format_exact(config.thermal.ambient_c) + ":" +
           format_exact(config.thermal.tau_s) + ":" +
           format_exact(config.thermal.trip_c) + ":" +
           format_exact(config.thermal.release_c) + ":" +
           std::to_string(config.thermal.throttle_pstate) + ":" +
           format_exact(config.thermal.initial_c);
  } else {
    key += "off";
  }
  key += "|slice=" + format_exact(config.slice_s);
  key += "|pstates=" + std::to_string(config.pstates);
  for (const dvfs::WorkloadTimeline& timeline : config.timelines) {
    key += "|tl=" + canonical_timeline_key(timeline);
  }
  for (const FleetDeviceConfig& device : config.devices) {
    key += "|dev=";
    key += gpupower::gpusim::name(device.gpu);
    key += ':';
    key += canonical_governor_key(device.governor);
    key += ':';
    key += std::to_string(device.timeline);
    key += ':';
    key += std::to_string(device.priority);
  }
  for (const PatternSpec& pattern : config.phase_patterns) {
    key += "|pp=" + pattern_raw_key(pattern);
  }
  return key;
}

}  // namespace gpupower::core
