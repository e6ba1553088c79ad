// Shared fixtures of the correlation test binaries: small watermarked
// instances whose matching sets stay small enough for Brute Force, the
// strict field-by-field result comparison, and the two-path parity check
// (cold scalar runner vs batched decode over a MatchContext).

#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sscor/correlation/brute_force.hpp"
#include "sscor/correlation/correlator.hpp"
#include "sscor/correlation/decode_plan.hpp"
#include "sscor/correlation/greedy.hpp"
#include "sscor/correlation/greedy_plus.hpp"
#include "sscor/correlation/greedy_star.hpp"
#include "sscor/correlation/robust.hpp"
#include "sscor/matching/batch_kernel.hpp"
#include "sscor/matching/match_context.hpp"
#include "sscor/traffic/chaff.hpp"
#include "sscor/traffic/interactive_model.hpp"
#include "sscor/traffic/perturbation.hpp"
#include "sscor/util/rng.hpp"
#include "sscor/watermark/embedder.hpp"

namespace sscor {

inline WatermarkParams small_params() {
  WatermarkParams params;
  params.bits = 4;
  params.redundancy = 1;  // 8 pairs -> 16 relevant packets
  params.pair_offset = 1;
  // Large relative to the 0.5 pkt/s test flows so the embedding is nearly
  // error-free even at redundancy 1.
  params.embedding_delay = seconds(std::int64_t{2});
  return params;
}

/// A small correlated instance: watermarked Poisson flow, perturbed and
/// chaffed, with matching sets small enough for Brute Force.
struct SmallInstance {
  WatermarkedFlow marked;
  Flow downstream;
};

inline SmallInstance make_small_instance(std::uint64_t seed,
                                         double chaff_rate,
                                         DurationUs delta) {
  const traffic::PoissonFlowModel model(0.5);
  const Flow flow = model.generate(20, 0, mix_seeds(seed, 1));
  Rng rng(mix_seeds(seed, 2));
  const Watermark wm = Watermark::random(small_params().bits, rng);
  const Embedder embedder(small_params(), mix_seeds(seed, 3));
  SmallInstance instance{embedder.embed(flow, wm), Flow{}};
  const traffic::UniformPerturber perturber(delta, mix_seeds(seed, 4));
  const traffic::PoissonChaffInjector chaff(chaff_rate, mix_seeds(seed, 5));
  instance.downstream = chaff.apply(perturber.apply(instance.marked.flow));
  return instance;
}

inline CorrelatorConfig small_config() {
  CorrelatorConfig config;
  config.max_delay = seconds(std::int64_t{1});
  config.hamming_threshold = 1;
  config.cost_bound = 200'000'000;
  return config;
}

/// Every CorrelationResult field must agree — the paper's cost metric and
/// the interruption fields included, not just the headline decode.
inline void expect_same_result(const CorrelationResult& expected,
                               const CorrelationResult& actual) {
  EXPECT_EQ(expected.algorithm, actual.algorithm);
  EXPECT_EQ(expected.correlated, actual.correlated);
  EXPECT_EQ(expected.hamming, actual.hamming);
  EXPECT_EQ(expected.best_watermark, actual.best_watermark);
  EXPECT_EQ(expected.cost, actual.cost) << "cost-replay invariant violated";
  EXPECT_EQ(expected.matching_complete, actual.matching_complete);
  EXPECT_EQ(expected.cost_bound_hit, actual.cost_bound_hit);
  EXPECT_EQ(expected.interrupted, actual.interrupted);
  EXPECT_EQ(expected.stop_reason, actual.stop_reason);
  EXPECT_EQ(expected.degraded, actual.degraded);
}

/// The two decode paths agree.  For every algorithm the cold scalar run_*
/// reference equals Correlator::correlate on both of its routes: without a
/// context (scalar) and with a MatchContext for the pair, with or without a
/// prebuilt SoaPlan (batched engine).  The robust variant and unpruned
/// Brute Force, which Correlator does not expose, are compared with
/// BatchDecoder directly.  Brute force is opt-in (exponential on larger
/// instances).
inline void check_batch_parity(const WatermarkedFlow& marked,
                               const Flow& downstream,
                               const CorrelatorConfig& config,
                               bool include_brute = true) {
  const MatchContext context =
      MatchContext::build(marked.flow, downstream, config.max_delay,
                          config.size_constraint);
  batch::BatchDecoder decoder(config);
  const batch::DecodeHypothesis hyp{&marked.schedule, &marked.watermark};
  batch::SoaPlan plan;
  plan.build(marked.schedule, marked.watermark);

  std::vector<CorrelationResult> cold = {
      run_greedy(DecodePlan(marked.schedule, marked.watermark), marked.flow,
                 downstream, config),
      run_greedy_plus(marked.schedule, marked.watermark, marked.flow,
                      downstream, config),
      run_greedy_star(marked.schedule, marked.watermark, marked.flow,
                      downstream, config),
  };
  if (include_brute) {
    cold.push_back(run_brute_force(marked.schedule, marked.watermark,
                                   marked.flow, downstream, config));
  }
  for (const CorrelationResult& reference : cold) {
    SCOPED_TRACE(to_string(reference.algorithm));
    const Correlator correlator(config, reference.algorithm);
    expect_same_result(reference, correlator.correlate(marked, downstream));
    expect_same_result(reference,
                       correlator.correlate(marked, downstream, &context));
    expect_same_result(
        reference, correlator.correlate(marked, downstream, &context, &plan));
  }
  for (const double fraction : {0.05, 0.3}) {
    RobustOptions options;
    options.max_unmatched_fraction = fraction;
    expect_same_result(
        run_greedy_plus_robust(marked.schedule, marked.watermark, marked.flow,
                               downstream, config, options),
        decoder.robust(context, hyp, options));
  }
  if (include_brute) {
    // Pruning on is the default compared above; this enumerates the
    // unpruned built sets.
    BruteForceOptions unpruned;
    unpruned.prune = false;
    expect_same_result(
        run_brute_force(marked.schedule, marked.watermark, marked.flow,
                        downstream, config, unpruned),
        decoder.brute_force(context, hyp, unpruned));
  }
}

}  // namespace sscor
