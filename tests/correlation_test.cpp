// Tests for the core correlation engine: decode plans, selection state,
// and the four best-watermark algorithms, including the paper's key
// algorithmic invariants:
//
//   * Greedy's Hamming distance lower-bounds Brute Force's (paper §3.3.2).
//   * Greedy* with an unlimited bound never beats Brute Force and always
//     satisfies the order constraint.
//   * Greedy+ selections satisfy the timing and order constraints.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "small_instance.hpp"
#include "sscor/correlation/online.hpp"
#include "sscor/correlation/selection.hpp"

namespace sscor {
namespace {

TEST(DecodePlan, SlotsSortedUniqueAndConsistent) {
  const auto params = small_params();
  const auto schedule = KeySchedule::create(params, 100, 5);
  Rng rng(6);
  const Watermark target = Watermark::random(params.bits, rng);
  const DecodePlan plan(schedule, target);

  const auto slots = plan.slots();
  ASSERT_EQ(slots.size(), 2 * params.total_pairs());
  for (std::size_t s = 1; s < slots.size(); ++s) {
    EXPECT_LT(slots[s - 1].up_index, slots[s].up_index);
  }
  // pair_slots must point back at slots of the right pair and role.
  for (std::uint32_t bit = 0; bit < plan.bit_count(); ++bit) {
    for (std::uint32_t pair = 0; pair < plan.pairs_per_bit(); ++pair) {
      const PairSlots& ps = plan.pair_slots(bit, pair);
      EXPECT_TRUE(slots[ps.first_slot].is_first);
      EXPECT_FALSE(slots[ps.second_slot].is_first);
      EXPECT_EQ(slots[ps.first_slot].bit, bit);
      EXPECT_EQ(slots[ps.second_slot].bit, bit);
      EXPECT_EQ(slots[ps.first_slot].up_index + params.pair_offset,
                slots[ps.second_slot].up_index);
    }
    EXPECT_EQ(plan.bit_slots(bit).size(), 2 * plan.pairs_per_bit());
  }
}

TEST(DecodePlan, GreedyPreferenceMatchesFigure2) {
  // Wanted bit 1, group 1 (wants a large IPD): first packet earliest,
  // second latest.  Group 2 (wants small): the opposite.
  const auto params = small_params();
  const auto schedule = KeySchedule::create(params, 100, 5);
  const DecodePlan ones(schedule, Watermark::parse("1111"));
  for (const auto& slot : ones.slots()) {
    const bool expect_earliest = slot.group1 == slot.is_first;
    EXPECT_EQ(slot.prefer_earliest, expect_earliest);
  }
  const DecodePlan zeros(schedule, Watermark::parse("0000"));
  for (const auto& slot : zeros.slots()) {
    const bool expect_earliest = slot.group1 != slot.is_first;
    EXPECT_EQ(slot.prefer_earliest, expect_earliest);
  }
}

class AlgorithmPropertyTest : public testing::TestWithParam<int> {};

TEST_P(AlgorithmPropertyTest, GreedyLowerBoundsBruteForce) {
  const auto instance = make_small_instance(100 + GetParam(), 0.5,
                                            seconds(std::int64_t{1}));
  CorrelatorConfig config;
  config.max_delay = seconds(std::int64_t{1});
  config.hamming_threshold = 1;
  config.cost_bound = 200'000'000;

  const auto brute =
      run_brute_force(instance.marked.schedule, instance.marked.watermark,
                      instance.marked.flow, instance.downstream, config);
  const DecodePlan plan(instance.marked.schedule, instance.marked.watermark);
  const auto greedy = run_greedy(plan, instance.marked.flow,
                                 instance.downstream, config);
  if (brute.matching_complete) {
    ASSERT_FALSE(brute.cost_bound_hit) << "instance too large for the test";
    EXPECT_LE(greedy.hamming, brute.hamming) << "greedy must lower-bound";
  }
}

TEST_P(AlgorithmPropertyTest, GreedyStarNeverBeatsBruteForceAndPlusIsValid) {
  const auto instance = make_small_instance(200 + GetParam(), 1.0,
                                            seconds(std::int64_t{1}));
  CorrelatorConfig config;
  config.max_delay = seconds(std::int64_t{1});
  config.hamming_threshold = 0;  // force the final phases to run
  config.cost_bound = 200'000'000;

  const auto brute =
      run_brute_force(instance.marked.schedule, instance.marked.watermark,
                      instance.marked.flow, instance.downstream, config);
  const auto star =
      run_greedy_star(instance.marked.schedule, instance.marked.watermark,
                      instance.marked.flow, instance.downstream, config);
  const auto plus =
      run_greedy_plus(instance.marked.schedule, instance.marked.watermark,
                      instance.marked.flow, instance.downstream, config);
  ASSERT_EQ(star.matching_complete, brute.matching_complete);
  if (!brute.matching_complete) return;
  ASSERT_FALSE(brute.cost_bound_hit) << "instance too large for the test";
  // Brute Force is exact over order-consistent assignments; Greedy* and
  // Greedy+ decode only order-consistent selections, so neither can beat
  // it.
  EXPECT_GE(star.hamming, brute.hamming);
  EXPECT_GE(plus.hamming, star.hamming * 0u + brute.hamming);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlgorithmPropertyTest, testing::Range(0, 10));

TEST(SelectionState, RepairProducesOrderConsistentSelection) {
  for (int s = 0; s < 8; ++s) {
    const auto instance = make_small_instance(300 + s, 2.0,
                                              seconds(std::int64_t{2}));
    CostMeter cost;
    auto sets = CandidateSets::build(instance.marked.flow,
                                     instance.downstream,
                                     seconds(std::int64_t{2}),
                                     std::nullopt, cost);
    ASSERT_TRUE(sets.complete());
    ASSERT_TRUE(sets.prune(cost));
    const DecodePlan plan(instance.marked.schedule,
                          instance.marked.watermark);
    const auto down_ts = instance.downstream.timestamps();
    SelectionState state(plan, sets, down_ts, cost);
    // Greedy initialisation generally violates order; repair must fix it.
    state.repair_order();
    EXPECT_TRUE(state.order_consistent()) << "seed " << s;
  }
}

TEST(SelectionState, TryAdvanceKeepsOrderAndImproves) {
  const auto instance = make_small_instance(999, 2.0,
                                            seconds(std::int64_t{2}));
  CostMeter cost;
  auto sets = CandidateSets::build(instance.marked.flow, instance.downstream,
                                   seconds(std::int64_t{2}), std::nullopt,
                                   cost);
  ASSERT_TRUE(sets.complete());
  ASSERT_TRUE(sets.prune(cost));
  const DecodePlan plan(instance.marked.schedule, instance.marked.watermark);
  const auto down_ts = instance.downstream.timestamps();
  SelectionState state(plan, sets, down_ts, cost);
  state.repair_order();

  for (std::uint32_t bit = 0; bit < plan.bit_count(); ++bit) {
    if (state.bit_matches(bit)) continue;
    const DurationUs before = state.bit_diff(bit);
    for (const auto slot : plan.bit_slots(bit)) {
      const auto outcome = state.try_advance(slot, bit);
      if (outcome == SelectionState::MoveOutcome::kCommitted) {
        EXPECT_TRUE(state.order_consistent());
        const bool want_one = plan.target().bit(bit) == 1;
        if (want_one) {
          EXPECT_GT(state.bit_diff(bit), before);
        } else {
          EXPECT_LT(state.bit_diff(bit), before);
        }
      }
    }
  }
}

TEST(Correlator, DetectsIdenticalFlow) {
  const auto instance = make_small_instance(42, 0.0, 0);
  CorrelatorConfig config;
  config.max_delay = 0;
  config.hamming_threshold = 1;
  for (const auto algorithm :
       {Algorithm::kBruteForce, Algorithm::kGreedy, Algorithm::kGreedyPlus,
        Algorithm::kGreedyStar}) {
    const Correlator correlator(config, algorithm);
    const auto result =
        correlator.correlate(instance.marked, instance.marked.flow);
    EXPECT_TRUE(result.correlated) << to_string(algorithm);
    EXPECT_EQ(result.hamming, 0u) << to_string(algorithm);
    EXPECT_GT(result.cost, 0u) << to_string(algorithm);
  }
}

TEST(Correlator, RejectsDisjointTimeRanges) {
  const auto instance = make_small_instance(43, 0.0, 0);
  // A flow entirely in the far future: no matches possible.
  const Flow future = instance.marked.flow.shifted(seconds(std::int64_t{10'000}));
  CorrelatorConfig config;
  config.max_delay = seconds(std::int64_t{2});
  config.hamming_threshold = 1;  // the 4-bit instance needs a tight bar
  for (const auto algorithm :
       {Algorithm::kBruteForce, Algorithm::kGreedyPlus,
        Algorithm::kGreedyStar}) {
    const Correlator correlator(config, algorithm);
    const auto result = correlator.correlate(instance.marked, future);
    EXPECT_FALSE(result.correlated) << to_string(algorithm);
    EXPECT_FALSE(result.matching_complete) << to_string(algorithm);
  }
  // Greedy never computes full matching but still cannot decode a close
  // watermark out of nothing.
  const Correlator greedy(config, Algorithm::kGreedy);
  EXPECT_FALSE(greedy.correlate(instance.marked, future).correlated);
}

TEST(Correlator, EndToEndUnderPerturbationAndChaff) {
  // The flagship scenario at small scale: perturbed + chaffed downstream
  // flow is recovered by the matching-based algorithms.
  int detected_plus = 0;
  int detected_star = 0;
  constexpr int kTrials = 8;
  for (int t = 0; t < kTrials; ++t) {
    const auto instance = make_small_instance(700 + t, 1.0,
                                              seconds(std::int64_t{2}));
    CorrelatorConfig config;
    config.max_delay = seconds(std::int64_t{2});
    config.hamming_threshold = 1;
    detected_plus += Correlator(config, Algorithm::kGreedyPlus)
                         .correlate(instance.marked, instance.downstream)
                         .correlated;
    detected_star += Correlator(config, Algorithm::kGreedyStar)
                         .correlate(instance.marked, instance.downstream)
                         .correlated;
  }
  EXPECT_GE(detected_plus, kTrials - 2);
  EXPECT_GE(detected_star, kTrials - 2);
}

TEST(Correlator, GreedyStarRespectsCostBound) {
  const auto instance = make_small_instance(55, 3.0,
                                            seconds(std::int64_t{3}));
  CorrelatorConfig config;
  config.max_delay = seconds(std::int64_t{3});
  config.hamming_threshold = 0;
  config.cost_bound = 500;  // absurdly tight
  const Correlator correlator(config, Algorithm::kGreedyStar);
  const auto result =
      correlator.correlate(instance.marked, instance.downstream);
  // The bound may stop the run anywhere, but cost accounting must show
  // we stopped promptly after it.
  EXPECT_LE(result.cost, 2'000u);
}

TEST(BruteForce, StopAtThresholdStopsEarly) {
  const auto instance = make_small_instance(77, 0.5,
                                            seconds(std::int64_t{1}));
  CorrelatorConfig config;
  config.max_delay = seconds(std::int64_t{1});
  config.hamming_threshold = 4;  // every watermark qualifies
  config.cost_bound = 200'000'000;
  BruteForceOptions stop;
  stop.stop_at_threshold = true;
  const auto quick =
      run_brute_force(instance.marked.schedule, instance.marked.watermark,
                      instance.marked.flow, instance.downstream, config,
                      stop);
  const auto full =
      run_brute_force(instance.marked.schedule, instance.marked.watermark,
                      instance.marked.flow, instance.downstream, config);
  if (quick.matching_complete) {
    EXPECT_LE(quick.cost, full.cost);
    EXPECT_TRUE(quick.correlated);
  }
}

TEST(BruteForce, PruningDoesNotChangeTheOptimum) {
  for (int s = 0; s < 6; ++s) {
    const auto instance = make_small_instance(800 + s, 0.7,
                                              seconds(std::int64_t{1}));
    CorrelatorConfig config;
    config.max_delay = seconds(std::int64_t{1});
    config.cost_bound = 500'000'000;
    BruteForceOptions no_prune;
    no_prune.prune = false;
    const auto pruned =
        run_brute_force(instance.marked.schedule, instance.marked.watermark,
                        instance.marked.flow, instance.downstream, config);
    const auto raw =
        run_brute_force(instance.marked.schedule, instance.marked.watermark,
                        instance.marked.flow, instance.downstream, config,
                        no_prune);
    ASSERT_FALSE(raw.cost_bound_hit) << "instance too large for the test";
    EXPECT_EQ(pruned.matching_complete, raw.matching_complete);
    if (raw.matching_complete) {
      EXPECT_EQ(pruned.hamming, raw.hamming) << "seed " << s;
      EXPECT_LE(pruned.cost, raw.cost) << "pruning should not cost more";
    }
  }
}

/// Field-by-field equality of two results — the golden interleaving tests
/// pin every observable, not just the verdict.
void expect_identical_result(const CorrelationResult& got,
                             const CorrelationResult& want,
                             const std::string& label) {
  EXPECT_EQ(got.algorithm, want.algorithm) << label;
  EXPECT_EQ(got.correlated, want.correlated) << label;
  EXPECT_EQ(got.hamming, want.hamming) << label;
  EXPECT_EQ(got.best_watermark, want.best_watermark) << label;
  EXPECT_EQ(got.cost, want.cost) << label;
  EXPECT_EQ(got.matching_complete, want.matching_complete) << label;
  EXPECT_EQ(got.cost_bound_hit, want.cost_bound_hit) << label;
  EXPECT_EQ(got.interrupted, want.interrupted) << label;
  EXPECT_EQ(got.stop_reason, want.stop_reason) << label;
  EXPECT_EQ(got.degraded, want.degraded) << label;
}

// Golden interleaving test: the same downstream flow replayed under three
// arrival-order interleavings — one packet per ingest(), shared-buffer
// chunked ingest_appended(), and one bulk append — must produce a
// CorrelationResult identical to the batch Correlator in every field,
// including the paper's cost metric.  Early exits are disabled so even
// pairs the finality proofs would reject take the offline path.
TEST(OnlineCorrelator, GoldenInterleavingsMatchBatch) {
  OnlineOptions no_exit;
  no_exit.early_exit = false;
  for (const Algorithm algorithm :
       {Algorithm::kGreedy, Algorithm::kGreedyPlus, Algorithm::kGreedyStar,
        Algorithm::kBruteForce}) {
    for (const std::uint64_t seed : {11u, 12u, 13u}) {
      const SmallInstance instance =
          make_small_instance(seed, 2.0, seconds(std::int64_t{1}));
      CorrelatorConfig config;
      config.max_delay = seconds(std::int64_t{2});
      const CorrelationResult batch = Correlator(config, algorithm)
                                          .correlate(instance.marked,
                                                     instance.downstream);
      const std::string label = "algorithm " + to_string(algorithm) +
                                ", seed " + std::to_string(seed);

      // Interleaving 1: standalone, one packet per ingest() call.
      OnlineCorrelator per_packet(instance.marked, config, algorithm,
                                  no_exit);
      for (const PacketRecord& packet : instance.downstream.packets()) {
        per_packet.ingest(packet);
      }
      per_packet.finish();
      expect_identical_result(per_packet.result(), batch,
                              label + ", per-packet");

      // Interleaving 2: shared buffer, ingest_appended() every 3 packets
      // (the streaming engine's batched cadence).
      const auto upstream =
          std::make_shared<OnlineUpstream>(instance.marked);
      const auto chunk_buffer = std::make_shared<AppendOnlyFlow>();
      OnlineCorrelator chunked(upstream, chunk_buffer, config, algorithm,
                               no_exit);
      std::size_t pending = 0;
      for (const PacketRecord& packet : instance.downstream.packets()) {
        chunk_buffer->append(packet);
        if (++pending == 3) {
          chunked.ingest_appended();
          pending = 0;
        }
      }
      chunked.ingest_appended();
      chunked.finish();
      expect_identical_result(chunked.result(), batch, label + ", chunked");

      // Interleaving 3: the whole capture lands in one append burst.
      const auto bulk_buffer = std::make_shared<AppendOnlyFlow>();
      OnlineCorrelator bulk(upstream, bulk_buffer, config, algorithm,
                            no_exit);
      for (const PacketRecord& packet : instance.downstream.packets()) {
        bulk_buffer->append(packet);
      }
      bulk.ingest_appended();
      bulk.finish();
      expect_identical_result(bulk.result(), batch, label + ", bulk");
    }
  }
}

// With early exits enabled the online verdict must still agree with batch
// on the decision, and a caller that stops feeding once ingest() returns
// false gets the same verdict as one that replays the full stream.
TEST(OnlineCorrelator, EarlyExitVerdictAgreesWithBatch) {
  for (const std::uint64_t seed : {21u, 22u, 23u, 24u}) {
    // Mismatched pair: watermarked flow from one instance, downstream from
    // another — the typical candidate for a finality-proof rejection.
    const SmallInstance a =
        make_small_instance(seed, 2.0, seconds(std::int64_t{1}));
    const SmallInstance b =
        make_small_instance(seed + 100, 2.0, seconds(std::int64_t{1}));
    CorrelatorConfig config;
    config.max_delay = seconds(std::int64_t{2});
    const Algorithm algorithm = Algorithm::kGreedyPlus;
    const CorrelationResult batch =
        Correlator(config, algorithm).correlate(a.marked, b.downstream);

    OnlineCorrelator online(a.marked, config, algorithm);
    bool undecided = true;
    std::size_t fed = 0;
    for (const PacketRecord& packet : b.downstream.packets()) {
      if (!undecided) break;  // stop-feeding-once-decided interleaving
      undecided = online.ingest(packet);
      ++fed;
    }
    online.finish();
    const CorrelationResult result = online.result();
    EXPECT_EQ(result.correlated, batch.correlated) << "seed " << seed;
    if (online.early_rejected()) {
      // Early rejection freezes the cost at the packets actually seen.
      EXPECT_FALSE(result.correlated);
      EXPECT_EQ(result.cost, fed);
      EXPECT_FALSE(result.matching_complete);
    } else {
      expect_identical_result(result, batch,
                              "undecided pair, seed " + std::to_string(seed));
    }
  }
}

TEST(AlgorithmNames, ToString) {
  EXPECT_EQ(to_string(Algorithm::kBruteForce), "BruteForce");
  EXPECT_EQ(to_string(Algorithm::kGreedy), "Greedy");
  EXPECT_EQ(to_string(Algorithm::kGreedyPlus), "Greedy+");
  EXPECT_EQ(to_string(Algorithm::kGreedyStar), "Greedy*");
}

}  // namespace
}  // namespace sscor
