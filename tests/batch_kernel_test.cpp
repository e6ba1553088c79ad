// Parity tests for the batched SoA decode kernel (batch::BatchDecoder).
//
// The load-bearing property: for every algorithm, a BatchDecoder decode over
// a shared MatchContext returns a CorrelationResult identical *in every
// field, including the paper's cost metric and the interruption fields* to
// the cold scalar run_* reference — and Correlator::correlate returns that
// same result whether or not it is handed a context.  The batched engine is
// pure plumbing: SoA layout and context reuse must never change a number.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "small_instance.hpp"
#include "sscor/traffic/loss_model.hpp"
#include "sscor/util/error.hpp"
#include "sscor/util/journal.hpp"
#include "sscor/watermark/quantization.hpp"

namespace sscor {
namespace {

TEST(BatchKernelParity, AllAlgorithmsOnSmallInstances) {
  for (const std::uint64_t seed : {110u, 111u, 112u, 113u, 114u, 115u}) {
    SCOPED_TRACE(seed);
    const auto instance =
        make_small_instance(seed, 0.5, seconds(std::int64_t{1}));
    check_batch_parity(instance.marked, instance.downstream, small_config());
  }
}

TEST(BatchKernelParity, HeavyChaff) {
  for (const std::uint64_t seed : {120u, 121u, 122u}) {
    SCOPED_TRACE(seed);
    const auto instance =
        make_small_instance(seed, 3.0, seconds(std::int64_t{1}));
    check_batch_parity(instance.marked, instance.downstream, small_config());
  }
}

TEST(BatchKernelParity, SizeConstraint) {
  for (const std::uint64_t seed : {131u, 132u, 133u}) {
    SCOPED_TRACE(seed);
    const auto instance =
        make_small_instance(seed, 0.5, seconds(std::int64_t{1}));
    auto config = small_config();
    config.size_constraint = SizeConstraint{16};
    check_batch_parity(instance.marked, instance.downstream, config);
  }
}

TEST(BatchKernelParity, UncorrelatedPairsRejectIdentically) {
  // Upstream of one instance against the downstream of another: the
  // incomplete-matching reject path must replay with identical cost too.
  const auto a = make_small_instance(141, 1.0, seconds(std::int64_t{1}));
  const auto b = make_small_instance(142, 1.0, seconds(std::int64_t{1}));
  check_batch_parity(a.marked, b.downstream, small_config());
}

TEST(BatchKernelParity, TightCostBound) {
  // A bound small enough that the replayed matching cost alone exhausts the
  // meter; bound-hit and interruption reporting must stay identical.
  const auto instance =
      make_small_instance(151, 2.0, seconds(std::int64_t{1}));
  auto config = small_config();
  config.cost_bound = 50;
  check_batch_parity(instance.marked, instance.downstream, config);
}

TEST(BatchKernelParity, LossAndRepacketization) {
  // Downstream loses packets (violates the paper's assumption 2): the
  // robust variant's gap-aware path and the strict algorithms' reject path
  // must both replay exactly.
  for (const std::uint64_t seed : {161u, 162u, 163u}) {
    SCOPED_TRACE(seed);
    auto instance = make_small_instance(seed, 1.0, seconds(std::int64_t{1}));
    const traffic::LossRepacketizationModel loss(0.15, 0, mix_seeds(seed, 9));
    instance.downstream = loss.apply(instance.downstream);
    check_batch_parity(instance.marked, instance.downstream, small_config());
  }
}

TEST(BatchKernelParity, DegenerateDownstreams) {
  const auto instance =
      make_small_instance(171, 0.5, seconds(std::int64_t{1}));
  const auto config = small_config();
  // Empty downstream.
  check_batch_parity(instance.marked, Flow{}, config);
  // One-packet downstream.
  const TimeUs first = instance.downstream.timestamp(0);
  check_batch_parity(instance.marked,
                     Flow::from_timestamps(std::vector<TimeUs>{first}), config);
}

TEST(BatchKernelParity, WrongKeyHypotheses) {
  // One context serves every (schedule, watermark) hypothesis; the batch
  // engine must agree with the cold scalar runners on each, matches or not.
  const auto instance =
      make_small_instance(181, 0.5, seconds(std::int64_t{1}));
  const auto config = small_config();
  const MatchContext context =
      MatchContext::build(instance.marked.flow, instance.downstream,
                          config.max_delay, config.size_constraint);
  batch::BatchDecoder decoder(config);
  Rng rng(182);
  for (std::uint64_t key = 1900; key < 1906; ++key) {
    SCOPED_TRACE(key);
    const auto schedule = KeySchedule::create(
        small_params(), instance.marked.flow.size(), key);
    const Watermark target = Watermark::random(small_params().bits, rng);
    const batch::DecodeHypothesis hyp{&schedule, &target};
    expect_same_result(
        run_greedy_plus(schedule, target, instance.marked.flow,
                        instance.downstream, config),
        decoder.decode_one(Algorithm::kGreedyPlus, context, hyp));
    expect_same_result(
        run_greedy_star(schedule, target, instance.marked.flow,
                        instance.downstream, config),
        decoder.decode_one(Algorithm::kGreedyStar, context, hyp));
  }
}

TEST(BatchKernelParity, BatchDecodeEqualsHypothesisLoop) {
  // decode() over a hypothesis span is the plan-rebuilding fast path; it
  // must return exactly what a fresh decode_one per hypothesis returns.
  const auto instance =
      make_small_instance(191, 1.0, seconds(std::int64_t{1}));
  const auto config = small_config();
  const MatchContext context =
      MatchContext::build(instance.marked.flow, instance.downstream,
                          config.max_delay, config.size_constraint);

  std::vector<KeySchedule> schedules;
  std::vector<Watermark> targets;
  Rng rng(192);
  schedules.push_back(instance.marked.schedule);
  targets.push_back(instance.marked.watermark);
  for (std::uint64_t key = 2900; key < 2907; ++key) {
    schedules.push_back(KeySchedule::create(
        small_params(), instance.marked.flow.size(), key));
    targets.push_back(Watermark::random(small_params().bits, rng));
  }
  std::vector<batch::DecodeHypothesis> hypotheses;
  for (std::size_t i = 0; i < schedules.size(); ++i) {
    hypotheses.push_back({&schedules[i], &targets[i]});
  }

  for (const Algorithm algorithm :
       {Algorithm::kGreedy, Algorithm::kGreedyPlus, Algorithm::kGreedyStar,
        Algorithm::kBruteForce}) {
    SCOPED_TRACE(to_string(algorithm));
    batch::BatchDecoder batched(config);
    const auto results = batched.decode(algorithm, context, hypotheses);
    ASSERT_EQ(results.size(), hypotheses.size());
    for (std::size_t i = 0; i < hypotheses.size(); ++i) {
      SCOPED_TRACE(i);
      batch::DecodeWorkspace fresh;
      batch::BatchDecoder one(config, &fresh);
      expect_same_result(one.decode_one(algorithm, context, hypotheses[i]),
                         results[i]);
    }
  }
}

TEST(BatchKernelParity, WorkspaceReuseAcrossPairs) {
  // One explicit workspace carried across different pairs, constraints,
  // and algorithms: stale scratch must never leak into a later decode.
  batch::DecodeWorkspace workspace;
  for (const std::uint64_t seed : {201u, 202u}) {
    SCOPED_TRACE(seed);
    const auto instance =
        make_small_instance(seed, 1.5, seconds(std::int64_t{1}));
    for (const bool sized : {false, true}) {
      auto config = small_config();
      if (sized) config.size_constraint = SizeConstraint{16};
      const MatchContext context =
          MatchContext::build(instance.marked.flow, instance.downstream,
                              config.max_delay, config.size_constraint);
      batch::BatchDecoder decoder(config, &workspace);
      const batch::DecodeHypothesis hyp{&instance.marked.schedule,
                                        &instance.marked.watermark};
      for (const Algorithm algorithm :
           {Algorithm::kBruteForce, Algorithm::kGreedyStar,
            Algorithm::kGreedyPlus, Algorithm::kGreedy}) {
        SCOPED_TRACE(to_string(algorithm));
        batch::DecodeWorkspace fresh;
        batch::BatchDecoder reference(config, &fresh);
        expect_same_result(
            reference.decode_one(algorithm, context, hyp),
            decoder.decode_one(algorithm, context, hyp));
      }
    }
  }
}

TEST(BatchKernelParity, TcplibPaperScale) {
  // Paper-scale parameters over the tcplib-style generator (brute force
  // excluded: exponential).
  const traffic::TcplibTelnetModel model;
  const Flow flow = model.generate(400, 0, 271);
  Rng rng(272);
  const Embedder embedder(WatermarkParams{}, 273);
  const WatermarkedFlow marked =
      embedder.embed(flow, Watermark::random(24, rng));
  const traffic::UniformPerturber perturber(seconds(std::int64_t{7}), 274);
  const traffic::PoissonChaffInjector chaff(5.0, 275);
  const Flow downstream = chaff.apply(perturber.apply(marked.flow));

  CorrelatorConfig config;  // defaults: Delta=7s, h=7, bound=10^6
  check_batch_parity(marked, downstream, config, /*include_brute=*/false);
}

/// One result rendered field by field, `cost` included, for the golden pin.
std::string render_result(const CorrelationResult& r) {
  std::string out = std::to_string(static_cast<int>(r.algorithm)) + ',' +
                    std::to_string(r.correlated) + ',' +
                    std::to_string(r.hamming) + ',' +
                    r.best_watermark.to_string() + ',' +
                    std::to_string(r.cost) + ',' +
                    std::to_string(r.matching_complete) + ',' +
                    std::to_string(r.cost_bound_hit) + ',' +
                    std::to_string(r.interrupted) + ',' +
                    std::to_string(static_cast<int>(r.stop_reason)) + ',' +
                    std::to_string(r.degraded) + ';';
  return out;
}

struct GoldenCase {
  std::string name;
  WatermarkedFlow marked;
  Flow downstream;
  CorrelatorConfig config;
  bool include_brute = true;
};

/// The parity suite's instances, rebuilt with the same seeds.
std::vector<GoldenCase> golden_cases() {
  std::vector<GoldenCase> cases;
  const DurationUs delta = seconds(std::int64_t{1});
  const auto add = [&](std::string name, const SmallInstance& instance,
                       const CorrelatorConfig& config) {
    cases.push_back({std::move(name), instance.marked, instance.downstream,
                     config, true});
  };
  for (const std::uint64_t seed : {110u, 111u, 112u, 113u, 114u, 115u}) {
    add("small-" + std::to_string(seed),
        make_small_instance(seed, 0.5, delta), small_config());
  }
  for (const std::uint64_t seed : {120u, 121u, 122u}) {
    add("chaff-" + std::to_string(seed),
        make_small_instance(seed, 3.0, delta), small_config());
  }
  for (const std::uint64_t seed : {131u, 132u, 133u}) {
    auto config = small_config();
    config.size_constraint = SizeConstraint{16};
    add("sized-" + std::to_string(seed),
        make_small_instance(seed, 0.5, delta), config);
  }
  {
    auto mixed = make_small_instance(141, 1.0, delta);
    mixed.downstream = make_small_instance(142, 1.0, delta).downstream;
    add("uncorrelated", mixed, small_config());
  }
  {
    auto config = small_config();
    config.cost_bound = 50;
    add("tight-bound", make_small_instance(151, 2.0, delta), config);
  }
  for (const std::uint64_t seed : {161u, 162u, 163u}) {
    auto instance = make_small_instance(seed, 1.0, delta);
    const traffic::LossRepacketizationModel loss(0.15, 0, mix_seeds(seed, 9));
    instance.downstream = loss.apply(instance.downstream);
    add("loss-" + std::to_string(seed), instance, small_config());
  }
  {
    auto instance = make_small_instance(171, 0.5, delta);
    const TimeUs first = instance.downstream.timestamp(0);
    instance.downstream = Flow{};
    add("empty-down", instance, small_config());
    instance.downstream = Flow::from_timestamps(std::vector<TimeUs>{first});
    add("one-packet-down", instance, small_config());
  }
  {
    const traffic::TcplibTelnetModel model;
    const Flow flow = model.generate(400, 0, 271);
    Rng rng(272);
    const Embedder embedder(WatermarkParams{}, 273);
    GoldenCase paper{"tcplib-paper-scale",
                     embedder.embed(flow, Watermark::random(24, rng)), Flow{},
                     CorrelatorConfig{}, false};
    const traffic::UniformPerturber perturber(seconds(std::int64_t{7}), 274);
    const traffic::PoissonChaffInjector chaff(5.0, 275);
    paper.downstream = chaff.apply(perturber.apply(paper.marked.flow));
    cases.push_back(std::move(paper));
  }
  return cases;
}

TEST(BatchKernelGolden, ResultsMatchPinnedHashes) {
  // Parity tests compare two engines in one tree, so a change that moves
  // both together passes them.  This pins the absolute results instead:
  // every CorrelationResult field, cost included, hashed per instance over
  // Correlator::correlate (all four algorithms, with and without a matching
  // context) and the loss-robust runner.  The constants were recorded
  // before the scalar cached-context path was removed and must never be
  // re-pinned to absorb a behaviour change.
  const std::vector<std::pair<std::string, std::uint64_t>> pinned = {
      {"small-110", 0x50c9957d2c818321ull},
      {"small-111", 0x82e23e4fcf304f53ull},
      {"small-112", 0x3ea277a57e5b7ac1ull},
      {"small-113", 0x224b5c6326d45259ull},
      {"small-114", 0x5891b10ed7dd6531ull},
      {"small-115", 0x3627b599a30c645dull},
      {"chaff-120", 0x549fa35c1158b0d3ull},
      {"chaff-121", 0xed4e0d6bb3a45585ull},
      {"chaff-122", 0x14428cd3ffb3dc97ull},
      {"sized-131", 0x21058f5858b603e7ull},
      {"sized-132", 0xdff446efe9c58595ull},
      {"sized-133", 0x20ef091afaf8d9ebull},
      {"uncorrelated", 0x134aeb2927005d5eull},
      {"tight-bound", 0x27740df7ace6fb15ull},
      {"loss-161", 0x978af7ddb1e594dcull},
      {"loss-162", 0x34d71b9fa0844b1ull},
      {"loss-163", 0x70ba1d9412afe664ull},
      {"empty-down", 0xbe51387343241063ull},
      {"one-packet-down", 0x738fab44839e3f9full},
      {"tcplib-paper-scale", 0x39154ee6b965179ull},
  };
  const auto cases = golden_cases();
  ASSERT_EQ(cases.size(), pinned.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const GoldenCase& c = cases[i];
    SCOPED_TRACE(c.name);
    const MatchContext context =
        MatchContext::build(c.marked.flow, c.downstream, c.config.max_delay,
                            c.config.size_constraint);
    std::string rendered;
    for (const Algorithm algorithm :
         {Algorithm::kGreedy, Algorithm::kGreedyPlus, Algorithm::kGreedyStar,
          Algorithm::kBruteForce}) {
      if (algorithm == Algorithm::kBruteForce && !c.include_brute) continue;
      const Correlator correlator(c.config, algorithm);
      rendered += render_result(correlator.correlate(c.marked, c.downstream));
      rendered += render_result(
          correlator.correlate(c.marked, c.downstream, &context));
    }
    for (const double fraction : {0.05, 0.3}) {
      RobustOptions options;
      options.max_unmatched_fraction = fraction;
      rendered += render_result(
          run_greedy_plus_robust(c.marked.schedule, c.marked.watermark,
                                 c.marked.flow, c.downstream, c.config,
                                 options));
    }
    EXPECT_EQ(pinned[i].first, c.name);
    EXPECT_EQ(pinned[i].second, journal::fnv1a64(rendered))
        << "{\"" << c.name << "\", 0x" << std::hex << journal::fnv1a64(rendered)
        << "ull},";
  }
}

TEST(BatchKernelApi, RejectsMismatchedContextAndBadHypotheses) {
  const auto a = make_small_instance(221, 0.5, seconds(std::int64_t{1}));
  const auto config = small_config();
  const MatchContext context =
      MatchContext::build(a.marked.flow, a.downstream, config.max_delay,
                          config.size_constraint);
  batch::BatchDecoder decoder(config);

  // A context built under a different key is a precondition violation.
  auto other = config;
  other.max_delay = seconds(std::int64_t{2});
  batch::BatchDecoder mismatched(other);
  const batch::DecodeHypothesis hyp{&a.marked.schedule, &a.marked.watermark};
  EXPECT_THROW(mismatched.decode_one(Algorithm::kGreedyPlus, context, hyp),
               InvalidArgument);

  // Null schedule / target pointers are rejected, not dereferenced.
  EXPECT_THROW(decoder.decode_one(Algorithm::kGreedyPlus, context,
                                  batch::DecodeHypothesis{}),
               InvalidArgument);
  const batch::DecodeHypothesis no_target{&a.marked.schedule, nullptr};
  EXPECT_THROW(decoder.decode_one(Algorithm::kGreedyPlus, context, no_target),
               InvalidArgument);

  // A target of the wrong length cannot build a plan.
  Rng rng(222);
  const Watermark wrong_length = Watermark::random(7, rng);
  const batch::DecodeHypothesis bad{&a.marked.schedule, &wrong_length};
  EXPECT_THROW(decoder.decode_one(Algorithm::kGreedyPlus, context, bad),
               InvalidArgument);

  // Config preconditions mirror the Correlator's.
  auto negative = config;
  negative.max_delay = -1;
  EXPECT_THROW(batch::BatchDecoder{negative}, InvalidArgument);
  auto zero_bound = config;
  zero_bound.cost_bound = 0;
  EXPECT_THROW(batch::BatchDecoder{zero_bound}, InvalidArgument);
}

/// One pair scanned under several key hypotheses: results[i] of
/// correlate_hypotheses must equal the scalar reference run_* on hypothesis
/// i, and so must a per-detect correlate() that builds its own context.
/// Both Correlator entry points decode on BatchDecoder, so only the scalar
/// reference catches a divergence in the shared engine's multi-schedule
/// replay.
void expect_hypotheses_match_reference(
    const Flow& upstream, const std::vector<KeySchedule>& schedules,
    const std::vector<Watermark>& targets, const Flow& downstream,
    const CorrelatorConfig& config) {
  std::vector<batch::DecodeHypothesis> hypotheses;
  for (std::size_t i = 0; i < schedules.size(); ++i) {
    hypotheses.push_back({&schedules[i], &targets[i]});
  }
  for (const Algorithm algorithm :
       {Algorithm::kGreedy, Algorithm::kGreedyPlus, Algorithm::kGreedyStar}) {
    SCOPED_TRACE(to_string(algorithm));
    const Correlator correlator(config, algorithm);
    const auto batched =
        correlator.correlate_hypotheses(upstream, hypotheses, downstream);
    ASSERT_EQ(batched.size(), hypotheses.size());
    for (std::size_t i = 0; i < hypotheses.size(); ++i) {
      SCOPED_TRACE(i);
      const KeySchedule& schedule = schedules[i];
      const Watermark& target = targets[i];
      const CorrelationResult reference =
          algorithm == Algorithm::kGreedy
              ? run_greedy(DecodePlan(schedule, target), upstream, downstream,
                           config)
          : algorithm == Algorithm::kGreedyPlus
              ? run_greedy_plus(schedule, target, upstream, downstream, config)
              : run_greedy_star(schedule, target, upstream, downstream,
                                config);
      expect_same_result(reference, batched[i]);
      expect_same_result(
          reference, correlator.correlate({upstream, schedule, target},
                                          downstream));
    }
  }
}

TEST(BatchKernelIntegration, CorrelateHypothesesMatchesPerHypothesisRuns) {
  {
    SCOPED_TRACE("small instance");
    const auto instance =
        make_small_instance(251, 1.0, seconds(std::int64_t{1}));
    std::vector<KeySchedule> schedules{instance.marked.schedule};
    std::vector<Watermark> targets{instance.marked.watermark};
    Rng rng(252);
    for (std::uint64_t key = 3900; key < 3905; ++key) {
      schedules.push_back(KeySchedule::create(
          small_params(), instance.marked.flow.size(), key));
      targets.push_back(Watermark::random(small_params().bits, rng));
    }
    expect_hypotheses_match_reference(instance.marked.flow, schedules,
                                      targets, instance.downstream,
                                      small_config());
  }

  // A key scan at the default parameters (24-bit watermark, Delta = 7 s,
  // h = 7): two 400-packet pairs, each decoded under its true key and three
  // wrong ones, plus the first upstream against the second pair's
  // downstream so the matching-reject path replays too.
  const auto pair_indices = [](const KeySchedule& schedule) {
    std::vector<std::uint32_t> indices;
    for (const BitPlan& plan : schedule.bit_plans()) {
      for (const auto* group : {&plan.group1, &plan.group2}) {
        for (const PacketPair& pair : *group) {
          indices.push_back(pair.first);
          indices.push_back(pair.second);
        }
      }
    }
    return indices;
  };
  const traffic::InteractiveSessionModel model;
  const Embedder embedder(WatermarkParams{}, 0xfeed);
  Rng rng(0x7272);
  std::vector<WatermarkedFlow> marked;
  std::vector<Flow> downstream;
  std::vector<std::vector<KeySchedule>> schedules(2);
  std::vector<std::vector<Watermark>> targets(2);
  for (std::size_t p = 0; p < 2; ++p) {
    const std::uint64_t seed = 7000 + p;
    marked.push_back(embedder.embed(model.generate(400, 0, seed),
                                    Watermark::random(24, rng)));
    const traffic::UniformPerturber perturber(seconds(std::int64_t{7}),
                                              seed + 17);
    const traffic::PoissonChaffInjector chaff(5.0, seed + 29);
    downstream.push_back(chaff.apply(perturber.apply(marked[p].flow)));
    schedules[p].push_back(marked[p].schedule);
    targets[p].push_back(marked[p].watermark);
    for (std::uint64_t h = 1; h < 4; ++h) {
      schedules[p].push_back(KeySchedule::create(
          WatermarkParams{}, marked[p].flow.size(), seed * 131 + h));
      targets[p].push_back(Watermark::random(24, rng));
    }
    for (std::size_t i = 0; i < schedules[p].size(); ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        ASSERT_NE(pair_indices(schedules[p][i]),
                  pair_indices(schedules[p][j]));
      }
    }
  }
  const CorrelatorConfig config;
  for (std::size_t p = 0; p < 2; ++p) {
    SCOPED_TRACE("pair " + std::to_string(p));
    EXPECT_TRUE(Correlator(config, Algorithm::kGreedyPlus)
                    .correlate(marked[p], downstream[p])
                    .correlated);
    expect_hypotheses_match_reference(marked[p].flow, schedules[p],
                                      targets[p], downstream[p], config);
  }
  SCOPED_TRACE("upstream 0 vs downstream 1");
  expect_hypotheses_match_reference(marked[0].flow, schedules[0], targets[0],
                                    downstream[1], config);
}

TEST(BatchKernelIntegration, QimBatchDecodeMatchesScalar) {
  // The flat parity sweep over many key hypotheses, including a schedule
  // the flow is too short for (nullopt must round-trip).
  const traffic::PoissonFlowModel model(0.5);
  const Flow flow = model.generate(120, 0, 261);
  QimParams params;
  params.bits = 8;
  params.redundancy = 2;
  Rng rng(262);
  const Watermark wm = Watermark::random(params.bits, rng);
  const QimEmbedder embedder(params, 263);
  const QimWatermarkedFlow marked = embedder.embed(flow, wm);

  std::vector<KeySchedule> schedules;
  schedules.push_back(marked.schedule);
  for (std::uint64_t key = 4900; key < 4906; ++key) {
    schedules.push_back(
        KeySchedule::create(params.schedule_params(), flow.size(), key));
  }
  // A schedule requiring more packets than the flow has.
  schedules.push_back(KeySchedule::create(params.schedule_params(),
                                          flow.size() + 40, 4999));
  std::vector<const KeySchedule*> pointers;
  for (const auto& schedule : schedules) pointers.push_back(&schedule);

  const auto batched =
      decode_qim_positional_batch(pointers, params.step, marked.flow);
  ASSERT_EQ(batched.size(), schedules.size());
  for (std::size_t i = 0; i < schedules.size(); ++i) {
    SCOPED_TRACE(i);
    const auto scalar =
        decode_qim_positional(schedules[i], params.step, marked.flow);
    ASSERT_EQ(scalar.has_value(), batched[i].has_value());
    if (scalar) {
      EXPECT_EQ(*scalar, *batched[i]);
    }
  }
  // The embedded schedule decodes its own watermark exactly.
  ASSERT_TRUE(batched[0].has_value());
  EXPECT_EQ(*batched[0], wm);
}

TEST(BatchKernelScan, BatchedWindowScanMatchesReference) {
  // scan_match_windows_batched must reproduce the counting reference's
  // windows *and* recorded cost over adversarial shapes: disjoint ranges,
  // empty sides, heavy overlap, duplicate timestamps.
  Rng rng(231);
  for (int round = 0; round < 40; ++round) {
    SCOPED_TRACE(round);
    const std::size_t n_up = rng.uniform_i64(0, 24);
    const std::size_t n_down = rng.uniform_i64(0, 48);
    std::vector<TimeUs> up;
    std::vector<TimeUs> down;
    TimeUs t = 0;
    for (std::size_t i = 0; i < n_up; ++i) {
      t += rng.uniform_i64(0, 2'000'000);
      up.push_back(t);
    }
    t = rng.uniform_i64(0, 1'000'000);
    for (std::size_t j = 0; j < n_down; ++j) {
      t += rng.uniform_i64(0, 2'000'000);
      down.push_back(t);
    }
    const DurationUs delta = rng.uniform_i64(1, 3'000'000);

    CostMeter reference_meter;
    const auto reference =
        scan_match_windows(up, down, delta, reference_meter);
    CostMeter batched_meter;
    std::vector<MatchWindow> batched;
    scan_match_windows_batched(up, down, delta, batched_meter, batched);

    ASSERT_EQ(reference.size(), batched.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(reference[i], batched[i]) << "window " << i;
    }
    EXPECT_EQ(reference_meter.accesses(), batched_meter.accesses());
  }
}

}  // namespace
}  // namespace sscor
