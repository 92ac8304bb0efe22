#include "gpusim/activity.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "core/obs/obs.hpp"
#include "patterns/rng.hpp"

namespace gpupower::gpusim {
namespace {

/// K-slice ranges to walk: evenly strided coverage of `fraction` of the
/// slices, deterministic phase from the seed so different experiments sample
/// the same way.
std::vector<std::pair<std::size_t, std::size_t>> select_k_ranges(
    std::size_t k_total, std::size_t k_step, double fraction,
    std::uint64_t seed) {
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  const std::size_t slices = (k_total + k_step - 1) / k_step;
  fraction = std::clamp(fraction, 0.0, 1.0);
  auto wanted = static_cast<std::size_t>(
      std::ceil(fraction * static_cast<double>(slices)));
  wanted = std::clamp<std::size_t>(wanted, 1, slices);
  if (wanted == slices) {
    ranges.emplace_back(0, k_total);
    return ranges;
  }
  const double stride = static_cast<double>(slices) / static_cast<double>(wanted);
  patterns::Xoshiro256 rng(seed);
  const double phase = rng.uniform() * stride;
  for (std::size_t i = 0; i < wanted; ++i) {
    const auto slice = std::min<std::size_t>(
        slices - 1, static_cast<std::size_t>(phase + stride * static_cast<double>(i)));
    const std::size_t begin = slice * k_step;
    ranges.emplace_back(begin, std::min(begin + k_step, k_total));
  }
  // De-duplicate in case rounding produced repeats.
  ranges.erase(std::unique(ranges.begin(), ranges.end()), ranges.end());
  return ranges;
}

/// Reference walker: the per-element observer walk through
/// gemm::process_tile (one ActivityCounters callback per wire event).
template <typename T>
class ObserverWalker {
 public:
  ObserverWalker(const gemm::GemmProblem& problem, const gemm::Matrix<T>& a,
                 const gemm::Matrix<T>& b_storage,
                 const gemm::TileConfig& config)
      : problem_(problem), a_(a), b_(b_storage), config_(config) {}

  void process_tile(const gemm::TileCoord& tile,
                    std::vector<gpupower::numeric::accumulator_t<T>>& acc,
                    std::size_t k_begin, std::size_t k_end) {
    gemm::process_tile(problem_, a_, b_, tile, config_, acc, counters_,
                       k_begin, k_end);
  }

  [[nodiscard]] const ActivityTotals& totals() const noexcept {
    return counters_.totals();
  }

 private:
  const gemm::GemmProblem& problem_;
  const gemm::Matrix<T>& a_;
  const gemm::Matrix<T>& b_;
  const gemm::TileConfig& config_;
  ActivityCounters counters_;
};

/// Batched bit-plane walker: gathers each tile's A-row / B-column operand
/// words into contiguous per-lane buffers once per K-range (all the range's
/// K-slices share one gather/derive pass) and counts with bulk
/// std::popcount loops over sub-ranges of the packed streams.
///
/// Only the accumulator chain depends on the order the MACs run in, so it
/// is the only counter walked per (i, j) pairing; it re-runs the compute
/// path's arithmetic (same operations, same order).  Every other counter is
/// an order-independent integer sum, factored out of the pairing loop:
///
///  - Multiplier interior (t > t0 of a chain) and exponent activity are
///    sums over t of products of per-t lane sums, e.g.
///      sum_ij HD_a_i[t] * pop_b_j[t] = (sum_i HD_a_i[t]) * (sum_j pop_b_j[t]),
///    so pack_range keeps per-t sums over each panel's lanes and a slice
///    or MMA segment costs O(ks) instead of O(rows * cols * ks).
///  - SIMT operand buses and multiplier boundaries have closed forms over
///    the row-major pairing order: pairing (i, j) follows (i, j - 1), so
///    only the (i, 0) pairings carry state across rows.
///  - The tensor-core path keeps its per-fragment operand-issue loop and a
///    per-pairing multiplier boundary (fragments reorder the pairings).
///
/// Every per-stream chain (the last word on each bus, the multiplier's
/// previously held significands) ends each slice on the word the observer
/// walk would have left there, so the integer counters match it bit for
/// bit (pinned by the parity tests).
template <typename T>
class BitPlaneKernel {
  using traits = gpupower::numeric::scalar_traits<T>;
  using Acc = gpupower::numeric::accumulator_t<T>;
  static constexpr int kWidth = traits::kBits;
  static constexpr bool kHasExponent = kWidth != 8;

 public:
  BitPlaneKernel(const gemm::GemmProblem& problem, const gemm::Matrix<T>& a,
                 const gemm::Matrix<T>& b_storage,
                 const gemm::TileConfig& config)
      : problem_(problem),
        a_(a),
        b_(b_storage),
        config_(config),
        ws_(workspace()) {}

  /// Panels are packed once per K-range (not once per K-slice): one gather
  /// and one derive pass cover every slice of the range, and the per-slice
  /// counting loops index sub-ranges of the shared buffers.  Ranges are
  /// capped at kMaxChunkSlices threadblock slices so panel memory stays
  /// bounded for huge K; port state threads across chunks like it threads
  /// across tiles, so chunking never changes the counted stream.
  void process_tile(const gemm::TileCoord& tile, std::vector<Acc>& acc,
                    std::size_t k_begin, std::size_t k_end) {
    const std::size_t k_total = std::min(k_end, problem_.k);
    const std::size_t k_step = config_.threadblock.k;
    const std::size_t chunk = k_step * kMaxChunkSlices;
    for (std::size_t c0 = k_begin; c0 < k_total; c0 += chunk) {
      const std::size_t c1 = std::min(c0 + chunk, k_total);
      pack_range(tile, c0, c1);
      for (const SliceInfo& slice : slices_) {
        process_slice(tile, acc, c1 - c0, slice);
      }
    }
  }

  [[nodiscard]] const ActivityTotals& totals() const noexcept {
    return totals_;
  }

 private:
  /// Upper bound on threadblock K-slices packed per gather, bounding panel
  /// memory at lanes x (kMaxChunkSlices x threadblock.k) entries.
  static constexpr std::size_t kMaxChunkSlices = 64;

  /// One threadblock K-slice of the packed range: element sub-range
  /// [t0, t1) and the global indices of its operand segments.
  struct SliceInfo {
    std::size_t t0 = 0;
    std::size_t t1 = 0;
    std::size_t seg_begin = 0;
    std::size_t seg_end = 0;
  };

  static std::uint64_t hd(std::uint32_t x, std::uint32_t y) noexcept {
    return static_cast<std::uint64_t>(std::popcount(x ^ y));
  }

  static std::uint32_t exponent_popcount(std::uint32_t bits) noexcept {
    if constexpr (kWidth == 16) {
      return static_cast<std::uint32_t>(std::popcount((bits >> 10) & 0x1Fu));
    } else if constexpr (kWidth == 32) {
      return static_cast<std::uint32_t>(std::popcount((bits >> 23) & 0xFFu));
    } else {
      return 0;
    }
  }

  /// Packed toggle/weight counting over one lane-contiguous word stream:
  /// XOR-with-previous toggles and Hamming weight of w[t0, t1) chained off
  /// `prev`, multiple words per 64-bit popcount.  INT8 words (8 significant
  /// bits) pack four per lane in 16-bit slots; FP16/FP32 words pack two in
  /// 32-bit slots.  XOR and popcount are bitwise, so disjoint slots never
  /// interact and the packed sums equal the word-at-a-time sums exactly —
  /// the parity tests pin this against the observer walk.
  static void count_stream(const std::uint32_t* w, std::size_t t0,
                           std::size_t t1, std::uint32_t& prev,
                           std::uint64_t& toggles,
                           std::uint64_t& weight) noexcept {
    std::uint64_t tog = 0;
    std::uint64_t wt = 0;
    std::uint32_t p = prev;
    std::size_t t = t0;
    if constexpr (kWidth == 8) {
      for (; t + 4 <= t1; t += 4) {
        const std::uint64_t pack =
            static_cast<std::uint64_t>(w[t]) |
            (static_cast<std::uint64_t>(w[t + 1]) << 16) |
            (static_cast<std::uint64_t>(w[t + 2]) << 32) |
            (static_cast<std::uint64_t>(w[t + 3]) << 48);
        const std::uint64_t shifted =
            static_cast<std::uint64_t>(p) |
            (static_cast<std::uint64_t>(w[t]) << 16) |
            (static_cast<std::uint64_t>(w[t + 1]) << 32) |
            (static_cast<std::uint64_t>(w[t + 2]) << 48);
        tog += static_cast<std::uint64_t>(std::popcount(pack ^ shifted));
        wt += static_cast<std::uint64_t>(std::popcount(pack));
        p = w[t + 3];
      }
    } else {
      for (; t + 2 <= t1; t += 2) {
        const std::uint64_t pack =
            static_cast<std::uint64_t>(w[t]) |
            (static_cast<std::uint64_t>(w[t + 1]) << 32);
        const std::uint64_t shifted =
            static_cast<std::uint64_t>(p) |
            (static_cast<std::uint64_t>(w[t]) << 32);
        tog += static_cast<std::uint64_t>(std::popcount(pack ^ shifted));
        wt += static_cast<std::uint64_t>(std::popcount(pack));
        p = w[t + 1];
      }
    }
    for (; t < t1; ++t) {
      tog += static_cast<std::uint64_t>(std::popcount(p ^ w[t]));
      wt += static_cast<std::uint64_t>(std::popcount(w[t]));
      p = w[t];
    }
    prev = p;
    toggles += tog;
    weight += wt;
  }

  /// One operand panel in packed lane-major buffers (lane * ks + t, where a
  /// lane is an A row or a B column of the tile and t indexes the K-range),
  /// plus per-t sums over the panel's lanes for the factored multiplier and
  /// exponent counters.
  struct Panel {
    std::vector<std::uint32_t> bits;
    std::vector<Acc> vals;
    std::vector<std::uint32_t> sig;
    std::vector<std::uint64_t> seg_tog;  ///< per (lane, segment) internal toggles
    std::vector<std::uint64_t> seg_wt;   ///< per (lane, segment) Hamming weight
    // Per-t sums over the lanes:
    std::vector<std::uint32_t> pop_sum;  ///< popcount(sig[t])
    std::vector<std::uint32_t> hd_sum;   ///< HD(sig[t], sig[t-1]), read for t > t0
    std::vector<std::uint32_t> exp_sum;  ///< exponent-field popcount
    std::vector<std::uint32_t> nz_sum;   ///< sig[t] != 0 (zero gating)

    void resize(std::size_t lanes, std::size_t ks, std::size_t nseg) {
      bits.resize(lanes * ks);
      vals.resize(lanes * ks);
      sig.resize(lanes * ks);
      seg_tog.resize(lanes * nseg);
      seg_wt.resize(lanes * nseg);
      pop_sum.assign(ks, 0);
      hd_sum.assign(ks, 0);
      if constexpr (kHasExponent) {
        exp_sum.assign(ks, 0);
        nz_sum.assign(ks, 0);
      }
    }
  };

  void derive_lane(Panel& panel, std::size_t lane, std::size_t ks,
                   std::span<const std::pair<std::size_t, std::size_t>> segs) {
    const std::size_t base = lane * ks;
    std::uint32_t prev_sig = 0;
    for (std::size_t t = 0; t < ks; ++t) {
      const std::uint32_t w = panel.bits[base + t];
      const std::uint32_t sig = significand(w, kWidth);
      panel.sig[base + t] = sig;
      panel.pop_sum[t] += static_cast<std::uint32_t>(std::popcount(sig));
      // Interior of the lane's multiplier chain: every MAC pairing streams
      // the lane k-contiguously, so HD(sig[t], sig[t-1]) is pairing-
      // independent for t > t0 — only the chain's first element toggles
      // against carried state, so hd_sum is never read at a chain start.
      panel.hd_sum[t] += static_cast<std::uint32_t>(hd(sig, prev_sig));
      prev_sig = sig;
      if constexpr (kHasExponent) {
        panel.exp_sum[t] += exponent_popcount(w);
        panel.nz_sum[t] += sig != 0 ? 1u : 0u;
      }
    }
    for (std::size_t s = 0; s < segs.size(); ++s) {
      const auto [t0, t1] = segs[s];
      // The segment's first word contributes only weight (its toggle is
      // the per-pairing boundary against the carried bus state); the
      // interior is the packed XOR stream.
      std::uint64_t tog = 0, wt = 0;
      std::uint32_t prev = panel.bits[base + t0];
      wt += static_cast<std::uint64_t>(std::popcount(prev));
      count_stream(panel.bits.data() + base, t0 + 1, t1, prev, tog, wt);
      panel.seg_tog[lane * segs.size() + s] = tog;
      panel.seg_wt[lane * segs.size() + s] = wt;
    }
  }

  void pack_range(const gemm::TileCoord& tile, std::size_t k0,
                  std::size_t k1) {
    const std::size_t rows = tile.rows;
    const std::size_t cols = tile.cols;
    const std::size_t ks = k1 - k0;
    const std::size_t k_step = config_.threadblock.k;

    // Slice table + operand segments over the whole range: the whole slice
    // for SIMT threads, one per MMA fragment K-depth for tensor cores.
    slices_.clear();
    segs_.clear();
    for (std::size_t s0 = 0; s0 < ks; s0 += k_step) {
      SliceInfo slice;
      slice.t0 = s0;
      slice.t1 = std::min(s0 + k_step, ks);
      slice.seg_begin = segs_.size();
      if (config_.tensor_core) {
        for (std::size_t t0 = slice.t0; t0 < slice.t1; t0 += config_.mma.k) {
          segs_.emplace_back(t0, std::min(t0 + config_.mma.k, slice.t1));
        }
      } else {
        segs_.emplace_back(slice.t0, slice.t1);
      }
      slice.seg_end = segs_.size();
      slices_.push_back(slice);
    }

    a_panel_.resize(rows, ks, segs_.size());
    b_panel_.resize(cols, ks, segs_.size());

    for (std::size_t i = 0; i < rows; ++i) {
      const T* src = a_.data() + (tile.row + i) * a_.cols() + k0;
      for (std::size_t t = 0; t < ks; ++t) {
        a_panel_.bits[i * ks + t] =
            static_cast<std::uint32_t>(traits::to_bits(src[t]));
        a_panel_.vals[i * ks + t] = static_cast<Acc>(traits::to_float(src[t]));
      }
      derive_lane(a_panel_, i, ks, segs_);
    }
    for (std::size_t j = 0; j < cols; ++j) {
      if (problem_.transpose_b) {
        const T* src = b_.data() + (tile.col + j) * b_.cols() + k0;
        for (std::size_t t = 0; t < ks; ++t) {
          b_panel_.bits[j * ks + t] =
              static_cast<std::uint32_t>(traits::to_bits(src[t]));
          b_panel_.vals[j * ks + t] =
              static_cast<Acc>(traits::to_float(src[t]));
        }
      } else {
        const T* src = b_.data() + k0 * b_.cols() + tile.col + j;
        const std::size_t stride = b_.cols();
        for (std::size_t t = 0; t < ks; ++t) {
          const T v = src[t * stride];
          b_panel_.bits[j * ks + t] =
              static_cast<std::uint32_t>(traits::to_bits(v));
          b_panel_.vals[j * ks + t] = static_cast<Acc>(traits::to_float(v));
        }
      }
      derive_lane(b_panel_, j, ks, segs_);
    }
  }

  /// Bulk fetch-bus count: a lane-by-lane pass over one slice's sub-range
  /// of the packed panel, which is exactly the stream order the memory
  /// hierarchy drives (A rows row-major, then the B slice in storage
  /// order).
  void count_fetch(const Panel& panel, std::size_t lanes, std::size_t ks,
                   std::size_t t0, std::size_t t1, std::uint32_t& last) {
    std::uint64_t tog = 0, wt = 0;
    std::uint32_t prev = last;
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      count_stream(panel.bits.data() + lane * ks, t0, t1, prev, tog, wt);
    }
    totals_.fetch_toggles += tog;
    totals_.fetch_weight += wt;
    totals_.fetch_words += lanes * (t1 - t0);
    last = prev;
  }

  void process_slice(const gemm::TileCoord& tile, std::vector<Acc>& acc,
                     std::size_t ks, const SliceInfo& slice) {
    const std::size_t rows = tile.rows;
    const std::size_t cols = tile.cols;

    count_fetch(a_panel_, rows, ks, slice.t0, slice.t1, port_.last_fetch_a);
    count_fetch(b_panel_, cols, ks, slice.t0, slice.t1, port_.last_fetch_b);

    if (!config_.tensor_core) {
      simt_slice(rows, cols, ks, slice, acc);
    } else {
      tensor_core_slice(rows, cols, ks, slice, acc);
    }
  }

  /// Multiplier interior (t0, t1) and exponent activity [t0, t1) of every
  /// pairing of the tile's A rows with its B columns, from the panels'
  /// per-t lane sums.
  void add_pairing_sums(std::size_t t0, std::size_t t1) {
    const Panel& pa = a_panel_;
    const Panel& pb = b_panel_;
    std::uint64_t pp = 0;
    for (std::size_t t = t0 + 1; t < t1; ++t) {
      pp += static_cast<std::uint64_t>(pa.hd_sum[t]) * pb.pop_sum[t] +
            static_cast<std::uint64_t>(pb.hd_sum[t]) * pa.pop_sum[t];
    }
    totals_.mult_pp += pp;
    if constexpr (kHasExponent) {
      // A zero operand gates both exponent adders; a value's own exponent
      // popcount is already zero when the value is zero, so gating only
      // needs the other operand's nonzero count.
      std::uint64_t exp = 0;
      for (std::size_t t = t0; t < t1; ++t) {
        exp += static_cast<std::uint64_t>(pb.nz_sum[t]) * pa.exp_sum[t] +
               static_cast<std::uint64_t>(pa.nz_sum[t]) * pb.exp_sum[t];
      }
      totals_.exponent_bits += exp;
    }
  }

  /// The accumulator chain of lane row i x lane column j over [t0, t1):
  /// the one counter that depends on MAC order.  Returns the chain's
  /// accumulator result.
  Acc mac_chain(std::size_t i, std::size_t j, std::size_t ks, std::size_t t0,
                std::size_t t1, Acc start, bool single_acc_write,
                std::uint64_t& acc_toggles) {
    const Acc* fa = a_panel_.vals.data() + i * ks;
    const Acc* fb = b_panel_.vals.data() + j * ks;

    // Accumulator chain: the carried dependency is the arithmetic itself,
    // re-run exactly as the compute path would.
    std::uint64_t acc_tog = 0;
    Acc sum = start;
    if (single_acc_write) {
      for (std::size_t t = t0; t < t1; ++t) sum += fa[t] * fb[t];
    } else {
      for (std::size_t t = t0; t < t1; ++t) {
        const Acc next = sum + fa[t] * fb[t];
        acc_tog += static_cast<std::uint64_t>(std::popcount(
            gemm::detail::acc_bits(sum) ^ gemm::detail::acc_bits(next)));
        sum = next;
      }
      acc_toggles += acc_tog;
    }
    return sum;
  }

  void simt_slice(std::size_t rows, std::size_t cols, std::size_t ks,
                  const SliceInfo& slice, std::vector<Acc>& acc) {
    // Per-thread streams: output (i, j) streams row i of A and column j of
    // B k-contiguously, pairings in row-major order.  A lane's chain
    // interior is its packed segment, identical for every pairing, so only
    // the first word's toggle against the previous pairing's last word is
    // pairing-dependent: pairing (i, j >= 1) follows (i, j - 1), and
    // pairing (i, 0) follows (i - 1, cols - 1) or the carried port state.
    const std::size_t t0 = slice.t0;
    const std::size_t t1 = slice.t1;
    const std::size_t st = t1 - t0;
    const std::size_t nseg = segs_.size();
    const std::size_t seg = slice.seg_begin;  // SIMT: one segment per slice
    const Panel& pa = a_panel_;
    const Panel& pb = b_panel_;

    // B side of one row of pairings: column j >= 1 chains off column j - 1.
    std::uint64_t b_tog = 0, b_wt = 0, b_sig_hd = 0;
    for (std::size_t j = 0; j < cols; ++j) {
      b_tog += pb.seg_tog[j * nseg + seg];
      b_wt += pb.seg_wt[j * nseg + seg];
      if (j != 0) {
        b_tog += hd(pb.bits[(j - 1) * ks + t1 - 1], pb.bits[j * ks + t0]);
        b_sig_hd += hd(pb.sig[(j - 1) * ks + t1 - 1], pb.sig[j * ks + t0]);
      }
    }
    const std::size_t b_end = (cols - 1) * ks + t1 - 1;
    const std::uint64_t pop_b0 = static_cast<std::uint64_t>(
        std::popcount(pb.sig[t0]));
    const std::uint64_t pop_b_rest = pb.pop_sum[t0] - pop_b0;

    std::uint64_t op_tog = rows * b_tog +
                           hd(port_.last_operand_b, pb.bits[t0]) +
                           (rows - 1) * hd(pb.bits[b_end], pb.bits[t0]);
    std::uint64_t op_wt = rows * b_wt;
    // Multiplier, B half of pairings (i, j >= 1), summed over the rows.
    std::uint64_t pp = pa.pop_sum[t0] * b_sig_hd;

    // A side, row by row: pairings (i, j >= 1) chain off row i's own last
    // word; pairing (i, 0) chains off the previous row's.
    std::uint32_t last_a = port_.last_operand_a;
    std::uint32_t prev_sig_a = port_.prev_sig_a;
    std::uint32_t prev_sig_b = port_.prev_sig_b;
    for (std::size_t i = 0; i < rows; ++i) {
      const std::size_t first = i * ks + t0;
      const std::size_t last = i * ks + t1 - 1;
      op_tog += hd(last_a, pa.bits[first]) +
                (cols - 1) * hd(pa.bits[last], pa.bits[first]) +
                cols * pa.seg_tog[i * nseg + seg];
      op_wt += cols * pa.seg_wt[i * nseg + seg];
      last_a = pa.bits[last];
      // Multiplier: pairing (i, 0), then the A half of pairings (i, j >= 1).
      pp += hd(pa.sig[first], prev_sig_a) * pop_b0 +
            hd(pb.sig[t0], prev_sig_b) *
                static_cast<std::uint64_t>(std::popcount(pa.sig[first])) +
            hd(pa.sig[first], pa.sig[last]) * pop_b_rest;
      prev_sig_a = pa.sig[last];
      prev_sig_b = pb.sig[b_end];
    }
    port_.last_operand_a = last_a;
    port_.last_operand_b = pb.bits[b_end];
    port_.prev_sig_a = prev_sig_a;
    port_.prev_sig_b = prev_sig_b;
    add_pairing_sums(t0, t1);

    std::uint64_t acc_tog = 0;
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < cols; ++j) {
        acc[i * cols + j] =
            mac_chain(i, j, ks, t0, t1, acc[i * cols + j], false, acc_tog);
      }
    }
    const std::uint64_t mac_count = rows * cols * st;
    totals_.operand_words += 2 * mac_count;
    totals_.operand_toggles += op_tog;
    totals_.operand_weight += op_wt;
    totals_.mult_pp += pp;
    totals_.macs += mac_count;
    totals_.acc_updates += mac_count;
    totals_.acc_toggles += acc_tog;
  }

  void tensor_core_slice(std::size_t rows, std::size_t cols, std::size_t ks,
                         const SliceInfo& slice, std::vector<Acc>& acc) {
    const std::size_t fm = config_.mma.m;
    const std::size_t fn = config_.mma.n;
    const std::size_t nseg = segs_.size();
    std::uint64_t op_tog = 0, op_wt = 0, op_words = 0, pp = 0;
    std::uint64_t acc_tog = 0, acc_ups = 0, mac_count = 0;
    std::uint32_t last_a = port_.last_operand_a;
    std::uint32_t last_b = port_.last_operand_b;
    std::uint32_t prev_sig_a = port_.prev_sig_a;
    std::uint32_t prev_sig_b = port_.prev_sig_b;
    for (std::size_t s = slice.seg_begin; s < slice.seg_end; ++s) {
      const auto [t0, t1] = segs_[s];
      const std::size_t st = t1 - t0;
      add_pairing_sums(t0, t1);
      for (std::size_t i0 = 0; i0 < rows; i0 += fm) {
        const std::size_t iend = std::min(i0 + fm, rows);
        for (std::size_t j0 = 0; j0 < cols; j0 += fn) {
          const std::size_t jend = std::min(j0 + fn, cols);
          // Fragment operand issue: the A rows then the B columns of the
          // fragment, each a packed segment with a boundary toggle.
          for (std::size_t i = i0; i < iend; ++i) {
            op_tog += hd(last_a, a_panel_.bits[i * ks + t0]) +
                      a_panel_.seg_tog[i * nseg + s];
            op_wt += a_panel_.seg_wt[i * nseg + s];
            last_a = a_panel_.bits[i * ks + t1 - 1];
          }
          op_words += (iend - i0) * st;
          for (std::size_t j = j0; j < jend; ++j) {
            op_tog += hd(last_b, b_panel_.bits[j * ks + t0]) +
                      b_panel_.seg_tog[j * nseg + s];
            op_wt += b_panel_.seg_wt[j * nseg + s];
            last_b = b_panel_.bits[j * ks + t1 - 1];
          }
          op_words += (jend - j0) * st;
          // Dot-product array + single accumulator write per output.  The
          // chain's first MAC toggles the multiplier against the
          // significands the previous pairing left in the array.
          for (std::size_t i = i0; i < iend; ++i) {
            const std::uint32_t sa = a_panel_.sig[i * ks + t0];
            for (std::size_t j = j0; j < jend; ++j) {
              const std::uint32_t sb = b_panel_.sig[j * ks + t0];
              pp += hd(sa, prev_sig_a) *
                        static_cast<std::uint64_t>(std::popcount(sb)) +
                    hd(sb, prev_sig_b) *
                        static_cast<std::uint64_t>(std::popcount(sa));
              prev_sig_a = a_panel_.sig[i * ks + t1 - 1];
              prev_sig_b = b_panel_.sig[j * ks + t1 - 1];
              const Acc dot = mac_chain(i, j, ks, t0, t1, Acc{}, true, acc_tog);
              Acc& slot = acc[i * cols + j];
              const Acc next = slot + dot;
              acc_tog += static_cast<std::uint64_t>(std::popcount(
                  gemm::detail::acc_bits(slot) ^ gemm::detail::acc_bits(next)));
              slot = next;
              ++acc_ups;
              mac_count += st;
            }
          }
        }
      }
    }
    port_.last_operand_a = last_a;
    port_.last_operand_b = last_b;
    port_.prev_sig_a = prev_sig_a;
    port_.prev_sig_b = prev_sig_b;
    totals_.operand_words += op_words;
    totals_.operand_toggles += op_tog;
    totals_.operand_weight += op_wt;
    totals_.mult_pp += pp;
    totals_.macs += mac_count;
    totals_.acc_updates += acc_ups;
    totals_.acc_toggles += acc_tog;
  }

  /// Panel buffers and slice/segment tables, shared across every kernel
  /// instance a worker thread constructs.  Seed replicas of one experiment
  /// share their A/B shapes, so after the first replica every resize() is
  /// a no-op and the multi-megabyte panels stop churning the allocator —
  /// the "reuse packed panels across seed replicas" item from the PR 3
  /// note.  Safe because a kernel walks tiles strictly serially within one
  /// estimate_activity call and every pack_range rewrites the full index
  /// range it later reads (parity-pinned); distinct threads get distinct
  /// workspaces.
  struct Workspace {
    Panel a_panel;
    Panel b_panel;
    std::vector<SliceInfo> slices;
    std::vector<std::pair<std::size_t, std::size_t>> segs;
  };

  static Workspace& workspace() {
    thread_local Workspace ws;
    return ws;
  }

  const gemm::GemmProblem& problem_;
  const gemm::Matrix<T>& a_;
  const gemm::Matrix<T>& b_;
  const gemm::TileConfig& config_;
  Workspace& ws_;

  ActivityTotals totals_;
  PortState port_;
  Panel& a_panel_ = ws_.a_panel;
  Panel& b_panel_ = ws_.b_panel;
  std::vector<SliceInfo>& slices_ = ws_.slices;
  std::vector<std::pair<std::size_t, std::size_t>>& segs_ = ws_.segs;
};

template <typename T, typename Walker>
ActivityEstimate estimate_with(const gemm::GemmProblem& problem,
                               const gemm::TileConfig& config,
                               const SamplingPlan& plan, Walker& walker) {
  using Acc = gpupower::numeric::accumulator_t<T>;
  ActivityEstimate est;
  std::vector<Acc> acc;

  if (plan.max_tiles == 0) {
    // Exact: full threadblock walk.
    const auto tiles =
        gemm::enumerate_tiles(problem.n, problem.m, config.threadblock);
    for (const auto& tile : tiles) {
      acc.assign(tile.rows * tile.cols, Acc{});
      walker.process_tile(tile, acc, 0, problem.k);
    }
    est.totals = walker.totals();
    est.tiles_walked = est.tiles_total = tiles.size();
    return est;
  }

  // Sampled: warp-tile quanta, stratified over the raster order.
  gemm::TileShape quantum = config.warp;
  quantum.k = config.threadblock.k;
  const auto tiles = gemm::enumerate_tiles(problem.n, problem.m, quantum);
  est.tiles_total = tiles.size();

  std::vector<std::size_t> chosen;
  if (tiles.size() <= plan.max_tiles) {
    chosen.resize(tiles.size());
    for (std::size_t i = 0; i < tiles.size(); ++i) chosen[i] = i;
  } else {
    patterns::Xoshiro256 rng(patterns::derive_seed(plan.seed, 1));
    const double stride =
        static_cast<double>(tiles.size()) / static_cast<double>(plan.max_tiles);
    for (std::size_t i = 0; i < plan.max_tiles; ++i) {
      const double lo = stride * static_cast<double>(i);
      const double hi = stride * static_cast<double>(i + 1);
      const auto idx = std::min<std::size_t>(
          tiles.size() - 1,
          static_cast<std::size_t>(lo + rng.uniform() * (hi - lo)));
      chosen.push_back(idx);
    }
    chosen.erase(std::unique(chosen.begin(), chosen.end()), chosen.end());
    est.sampled = true;
  }

  const auto k_ranges = select_k_ranges(problem.k, config.threadblock.k,
                                        plan.k_fraction, plan.seed);
  std::size_t k_walked = 0;
  for (const auto& [b, e] : k_ranges) k_walked += e - b;
  est.k_coverage =
      static_cast<double>(k_walked) / static_cast<double>(problem.k);
  if (est.k_coverage < 1.0) est.sampled = true;

  for (const std::size_t idx : chosen) {
    const auto& tile = tiles[idx];
    acc.assign(tile.rows * tile.cols, Acc{});
    for (const auto& [kb, ke] : k_ranges) {
      walker.process_tile(tile, acc, kb, ke);
    }
  }
  est.tiles_walked = chosen.size();

  est.totals = walker.totals();
  // Scale sampled counts to the full problem.  Output coverage scales by
  // tile count (quanta are equal-sized except at the ragged edge, which the
  // stratified pick samples proportionally); K coverage scales linearly.
  const double scale =
      (static_cast<double>(est.tiles_total) /
       static_cast<double>(std::max<std::size_t>(est.tiles_walked, 1))) /
      std::max(est.k_coverage, 1e-12);
  if (scale != 1.0) est.totals.scale_by(scale);
  return est;
}

}  // namespace

template <typename T>
ActivityEstimate estimate_activity(const gemm::GemmProblem& problem,
                                   const gemm::Matrix<T>& a,
                                   const gemm::Matrix<T>& b_storage,
                                   const gemm::TileConfig& config,
                                   const SamplingPlan& plan,
                                   ActivityBackend backend) {
  // One span per kernel call (per-tile would flood the rings); the walked
  // tile count rides along as an obs counter.
  core::obs::Span span("activity.estimate");
  ActivityEstimate est;
  if (backend == ActivityBackend::kObserver) {
    ObserverWalker<T> walker(problem, a, b_storage, config);
    est = estimate_with<T>(problem, config, plan, walker);
  } else {
    BitPlaneKernel<T> walker(problem, a, b_storage, config);
    est = estimate_with<T>(problem, config, plan, walker);
  }
  static core::obs::Counter& tiles_walked =
      core::obs::counter("activity.tiles_walked");
  tiles_walked.add(est.tiles_walked);
  return est;
}

template ActivityEstimate estimate_activity<float>(
    const gemm::GemmProblem&, const gemm::Matrix<float>&,
    const gemm::Matrix<float>&, const gemm::TileConfig&, const SamplingPlan&,
    ActivityBackend);
template ActivityEstimate estimate_activity<gpupower::numeric::float16_t>(
    const gemm::GemmProblem&, const gemm::Matrix<gpupower::numeric::float16_t>&,
    const gemm::Matrix<gpupower::numeric::float16_t>&, const gemm::TileConfig&,
    const SamplingPlan&, ActivityBackend);
template ActivityEstimate estimate_activity<gpupower::numeric::int8_value_t>(
    const gemm::GemmProblem&,
    const gemm::Matrix<gpupower::numeric::int8_value_t>&,
    const gemm::Matrix<gpupower::numeric::int8_value_t>&,
    const gemm::TileConfig&, const SamplingPlan&, ActivityBackend);

}  // namespace gpupower::gpusim
