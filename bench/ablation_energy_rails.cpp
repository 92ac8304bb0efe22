// Ablation: which physical rail explains which takeaway?  Re-evaluates four
// representative experiments with each energy-model rail zeroed in turn,
// reporting how much of the baseline-vs-variant power delta that rail
// carries.  This is the design-choice audit for the DESIGN.md claim that
// the takeaways *emerge* from toggle physics rather than hard-coded curves.
#include <cstdio>
#include <iostream>

#include "analysis/table.hpp"
#include "core/pattern_spec.hpp"
#include "fig_harness.hpp"
#include "gpusim/activity.hpp"
#include "gpusim/power.hpp"

namespace {

using namespace gpupower;

enum class Rail { kNone, kFetch, kOperand, kMultiply, kAccum, kWeight };

const char* rail_name(Rail r) {
  switch (r) {
    case Rail::kNone:
      return "full model";
    case Rail::kFetch:
      return "- fetch";
    case Rail::kOperand:
      return "- operand";
    case Rail::kMultiply:
      return "- multiply";
    case Rail::kAccum:
      return "- accum";
    case Rail::kWeight:
      return "- weight";
  }
  return "?";
}

gpusim::DeviceDescriptor ablated(Rail rail) {
  gpusim::DeviceDescriptor dev = gpusim::device(gpusim::GpuModel::kA100PCIe);
  switch (rail) {
    case Rail::kNone:
      break;
    case Rail::kFetch:
      dev.energy.fetch_toggle_pj = dev.energy.fetch_access_pj = 0.0;
      break;
    case Rail::kOperand:
      dev.energy.operand_toggle_pj = dev.energy.operand_access_pj = 0.0;
      break;
    case Rail::kMultiply:
      dev.energy.multiply_pp_simt_pj = dev.energy.multiply_pp_tc_pj = 0.0;
      dev.energy.exponent_simt_pj = dev.energy.exponent_tc_pj = 0.0;
      break;
    case Rail::kAccum:
      dev.energy.acc_toggle_pj = dev.energy.acc_access_pj = 0.0;
      break;
    case Rail::kWeight:
      dev.energy.weight_pj = 0.0;
      break;
  }
  return dev;
}

double evaluate(const gpusim::DeviceDescriptor& dev,
                const core::PatternSpec& spec, numeric::DType dtype,
                const core::BenchEnv& env) {
  const auto problem = gemm::GemmProblem{env.n, env.n, env.n, 1.0f, 0.0f,
                                         spec.transpose_b};
  const auto inputs =
      core::build_inputs<numeric::float16_t>(spec, dtype, env.n, 42);
  gpusim::SamplingPlan plan;
  plan.max_tiles = env.tiles;
  plan.k_fraction = env.k_fraction;
  const auto est = gpusim::estimate_activity(
      problem, inputs.a, inputs.b, gemm::TileConfig::for_dtype(dtype), plan);
  return gpusim::PowerCalculator(dev).evaluate(problem, dtype, est.totals)
      .total_w;
}

}  // namespace

int main() {
  const core::BenchEnv env = core::read_bench_env();
  bench::print_preamble(env,
                        "Ablation: per-rail contribution to each takeaway "
                        "(FP16, baseline vs variant)",
                        "A100 PCIe");

  struct Variant {
    const char* name;
    core::PatternSpec spec;
  };
  std::vector<Variant> variants;
  {
    core::PatternSpec sorted = core::baseline_gaussian_spec();
    sorted.place = core::PatternSpec::Place::kSortRows;
    sorted.sort_percent = 100.0;
    variants.push_back({"T9 sorted+aligned", sorted});
    core::PatternSpec sparse = core::baseline_gaussian_spec();
    sparse.sparsity = 0.5;
    variants.push_back({"T12 sparsity 50%", sparse});
    core::PatternSpec shifted = core::baseline_gaussian_spec();
    shifted.mean = 4096.0;
    shifted.sigma = 1.0;
    variants.push_back({"T2 mean shift", shifted});
    core::PatternSpec zeroed = core::baseline_gaussian_spec();
    zeroed.bitop = core::PatternSpec::BitOp::kZeroLow;
    zeroed.bit_fraction = 0.5;
    variants.push_back({"T14 LSBs zeroed", zeroed});
  }

  const auto baseline_spec = core::baseline_gaussian_spec();
  analysis::Table table({"model", "baseline W", "T9 dW", "T12 dW", "T2 dW",
                         "T14 dW"});
  for (const Rail rail : {Rail::kNone, Rail::kFetch, Rail::kOperand,
                          Rail::kMultiply, Rail::kAccum, Rail::kWeight}) {
    const auto dev = ablated(rail);
    const double base =
        evaluate(dev, baseline_spec, numeric::DType::kFP16, env);
    std::vector<double> row{base};
    for (const auto& variant : variants) {
      row.push_back(evaluate(dev, variant.spec, numeric::DType::kFP16, env) -
                    base);
    }
    table.add_row(rail_name(rail), row, 1);
  }
  table.print(std::cout);
  std::printf(
      "\nReading: a rail whose removal shrinks a delta (dW moves toward 0)\n"
      "is the physical carrier of that takeaway — e.g. removing the multiply\n"
      "rail should flatten T9 (sorted streams stop saving array switching),\n"
      "and removing operand wires should flatten T2.\n");
  return 0;
}
