#include "core/api.hpp"

#include <stdexcept>

namespace semilocal {

std::string_view strategy_name(Strategy s) {
  switch (s) {
    case Strategy::kRowMajor: return "semi_rowmajor";
    case Strategy::kAntidiag: return "semi_antidiag";
    case Strategy::kAntidiagSimd: return "semi_antidiag_SIMD";
    case Strategy::kLoadBalanced: return "semi_load_balanced";
    case Strategy::kRecursive: return "semi_recursive";
    case Strategy::kHybrid: return "semi_hybrid";
    case Strategy::kHybridTiled: return "semi_hybrid_iterative";
  }
  return "unknown";
}

SemiLocalKernel semi_local_kernel(SequenceView a, SequenceView b,
                                  const SemiLocalOptions& opts, Workspace* ws) {
  switch (opts.strategy) {
    case Strategy::kRowMajor:
      return comb_rowmajor(a, b);
    case Strategy::kAntidiag:
      return comb_antidiag(
          a, b, CombOptions{.branchless = false, .parallel = opts.parallel,
                            .allow_16bit = opts.allow_16bit},
          ws);
    case Strategy::kAntidiagSimd:
      return comb_antidiag(
          a, b, CombOptions{.branchless = true, .parallel = opts.parallel,
                            .allow_16bit = opts.allow_16bit},
          ws);
    case Strategy::kLoadBalanced:
      return comb_load_balanced(
          a, b, CombOptions{.branchless = true, .parallel = opts.parallel,
                            .allow_16bit = opts.allow_16bit},
          opts.ant, ws);
    case Strategy::kRecursive:
      return recursive_combing(a, b, opts.ant, opts.parallel ? opts.depth : 0);
    case Strategy::kHybrid:
      return hybrid_combing(
          a, b, HybridOptions{.depth = opts.depth, .parallel = opts.parallel,
                              .comb = {.branchless = true, .parallel = false,
                                       .allow_16bit = opts.allow_16bit},
                              .ant = opts.ant});
    case Strategy::kHybridTiled:
      return hybrid_tiled_combing(
          a, b, 0, 0,
          HybridOptions{.depth = opts.depth, .parallel = opts.parallel,
                        .comb = {.branchless = true, .parallel = false,
                                 .allow_16bit = opts.allow_16bit},
                        .ant = opts.ant});
  }
  throw std::invalid_argument("semi_local_kernel: unknown strategy");
}

SemiLocalKernel semi_local_kernel(SequenceView a, SequenceView b,
                                  const SemiLocalOptions& opts) {
  return semi_local_kernel(a, b, opts, nullptr);
}

Index lcs_semilocal(SequenceView a, SequenceView b, const SemiLocalOptions& opts) {
  return semi_local_kernel(a, b, opts).lcs();
}

}  // namespace semilocal
