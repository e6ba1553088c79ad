// Tests for the shared MatchContext and its cost-replay invariant.
//
// The load-bearing property: a decode over a precomputed MatchContext
// (Correlator::correlate's batched route) returns a CorrelationResult
// identical *in every field, including the paper's cost metric* to a cold
// run for every algorithm.  The fig07-fig10 cost CSVs therefore cannot
// drift depending on whether the evaluation pipeline shared contexts.

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "small_instance.hpp"
#include "sscor/flow/flow_extractor.hpp"
#include "sscor/flow/pcap_synth.hpp"
#include "sscor/traffic/size_model.hpp"

namespace sscor {
namespace {

void expect_same_sets(const CandidateSets& a, const CandidateSets& b) {
  ASSERT_EQ(a.upstream_size(), b.upstream_size());
  for (std::size_t i = 0; i < a.upstream_size(); ++i) {
    const auto sa = a.set(i);
    const auto sb = b.set(i);
    ASSERT_EQ(sa.size(), sb.size()) << "set " << i;
    for (std::size_t k = 0; k < sa.size(); ++k) {
      EXPECT_EQ(sa[k], sb[k]) << "set " << i << " candidate " << k;
    }
  }
}

TEST(MatchContextParity, AllAlgorithmsOnSmallInstances) {
  for (const std::uint64_t seed : {10u, 11u, 12u, 13u, 14u, 15u}) {
    SCOPED_TRACE(seed);
    const auto instance =
        make_small_instance(seed, 0.5, seconds(std::int64_t{1}));
    const auto config = small_config();
    check_batch_parity(instance.marked, instance.downstream, config);
  }
}

TEST(MatchContextParity, UncorrelatedPairsRejectIdentically) {
  // Upstream of one instance against the downstream of another: the
  // incomplete-matching reject path must replay with identical cost too.
  const auto a = make_small_instance(21, 1.0, seconds(std::int64_t{1}));
  const auto b = make_small_instance(22, 1.0, seconds(std::int64_t{1}));
  const auto config = small_config();
  check_batch_parity(a.marked, b.downstream, config);
}

TEST(MatchContextParity, SizeConstraint) {
  for (const std::uint64_t seed : {31u, 32u, 33u}) {
    SCOPED_TRACE(seed);
    const auto instance =
        make_small_instance(seed, 0.5, seconds(std::int64_t{1}));
    auto config = small_config();
    config.size_constraint = SizeConstraint{16};
    check_batch_parity(instance.marked, instance.downstream, config);
  }
}

TEST(MatchContextParity, TightCostBound) {
  // A bound small enough that the replayed matching cost alone exhausts
  // the meter; bound-hit reporting must stay identical.
  const auto instance = make_small_instance(41, 2.0, seconds(std::int64_t{1}));
  auto config = small_config();
  config.cost_bound = 50;
  check_batch_parity(instance.marked, instance.downstream, config);
}

TEST(MatchContextParity, TcplibFlows) {
  // Paper-scale parameters over the tcplib-style generator (brute force
  // excluded: exponential).
  const traffic::TcplibTelnetModel model;
  const Flow flow = model.generate(400, 0, 71);
  Rng rng(72);
  const Embedder embedder(WatermarkParams{}, 73);
  const WatermarkedFlow marked =
      embedder.embed(flow, Watermark::random(24, rng));
  const traffic::UniformPerturber perturber(seconds(std::int64_t{7}), 74);
  const traffic::PoissonChaffInjector chaff(5.0, 75);
  const Flow downstream = chaff.apply(perturber.apply(marked.flow));

  CorrelatorConfig config;  // defaults: Delta=7s, h=7, bound=10^6
  check_batch_parity(marked, downstream, config, /*include_brute=*/false);
}

TEST(MatchContextParity, RecordedTraceRoundTrip) {
  // "Recorded" fixture: synthesize the pair into a pcap capture, extract
  // the flows back (keeping zero-payload packets so nothing is dropped),
  // and run parity on the extracted flows — timestamps that survived the
  // usec-resolution pcap round trip.
  const auto instance = make_small_instance(51, 1.0, seconds(std::int64_t{1}));
  const net::FiveTuple up_tuple{net::Ipv4Address::parse("10.1.0.1"),
                                net::Ipv4Address::parse("10.2.0.1"), 40001,
                                22, net::IpProtocol::kTcp};
  const net::FiveTuple down_tuple{net::Ipv4Address::parse("10.2.0.1"),
                                  net::Ipv4Address::parse("10.3.0.1"), 40002,
                                  22, net::IpProtocol::kTcp};
  const auto records =
      synthesize_capture({SynthesisInput{up_tuple, &instance.marked.flow},
                          SynthesisInput{down_tuple, &instance.downstream}});
  ExtractorOptions options;
  options.payload_only = false;
  const auto flows =
      extract_flows(records, pcap::LinkType::kRawIp, options);
  ASSERT_EQ(flows.size(), 2u);
  const Flow& up = flows[0].tuple == up_tuple ? flows[0].flow : flows[1].flow;
  const Flow& down =
      flows[0].tuple == up_tuple ? flows[1].flow : flows[0].flow;
  ASSERT_EQ(up.size(), instance.marked.flow.size());
  ASSERT_EQ(down.size(), instance.downstream.size());

  const WatermarkedFlow extracted{up, instance.marked.schedule,
                                  instance.marked.watermark};
  const auto config = small_config();
  check_batch_parity(extracted, down, config);
}

TEST(MatchContextReuse, AcrossWatermarkHypotheses) {
  // The matching phase is watermark-independent: one context serves every
  // (schedule, watermark) hypothesis a defender scans over the same pair.
  const auto instance = make_small_instance(61, 0.5, seconds(std::int64_t{1}));
  const auto config = small_config();
  const MatchContext context =
      MatchContext::build(instance.marked.flow, instance.downstream,
                          config.max_delay, config.size_constraint);
  batch::BatchDecoder decoder(config);
  Rng rng(62);
  for (std::uint64_t key = 900; key < 904; ++key) {
    SCOPED_TRACE(key);
    const auto schedule = KeySchedule::create(
        small_params(), instance.marked.flow.size(), key);
    const Watermark hypothesis = Watermark::random(small_params().bits, rng);
    const batch::DecodeHypothesis hyp{&schedule, &hypothesis};
    expect_same_result(
        run_greedy_plus(schedule, hypothesis, instance.marked.flow,
                        instance.downstream, config),
        decoder.decode_one(Algorithm::kGreedyPlus, context, hyp));
    expect_same_result(
        run_greedy_star(schedule, hypothesis, instance.marked.flow,
                        instance.downstream, config),
        decoder.decode_one(Algorithm::kGreedyStar, context, hyp));
  }
}

TEST(MatchContextRecording, CostsMatchManualMeters) {
  const auto instance = make_small_instance(81, 1.5, seconds(std::int64_t{1}));
  const Flow& up = instance.marked.flow;
  const Flow& down = instance.downstream;
  const DurationUs delta = seconds(std::int64_t{1});

  const MatchContext context =
      MatchContext::build(up, down, delta, std::nullopt);

  CostMeter build_meter;
  auto sets = CandidateSets::build(up, down, delta, std::nullopt,
                                   build_meter);
  EXPECT_EQ(context.build_cost(), build_meter.accesses());
  expect_same_sets(context.built_sets(), sets);
  EXPECT_EQ(context.complete(), sets.complete());

  ASSERT_TRUE(sets.complete());
  CostMeter prune_meter;
  const bool ok = sets.prune(prune_meter);
  EXPECT_EQ(context.prune_ok(), ok);
  EXPECT_EQ(context.prune_cost(), prune_meter.accesses());
  expect_same_sets(context.pruned_sets(), sets);
}

TEST(MatchContextRecording, QuantizedSizeHoistIsEquivalent) {
  const auto instance = make_small_instance(82, 1.0, seconds(std::int64_t{1}));
  const Flow& up = instance.marked.flow;
  const Flow& down = instance.downstream;
  const DurationUs delta = seconds(std::int64_t{1});
  const SizeConstraint size{16};

  CostMeter scan_meter;
  const auto windows = scan_match_windows(up.timestamps(), down.timestamps(),
                                          delta, scan_meter);

  CostMeter inline_meter;
  const auto built_inline = CandidateSets::build_from_windows(
      windows, up, down, size, {}, inline_meter);

  std::vector<std::uint32_t> quantized;
  for (std::size_t i = 0; i < up.size(); ++i) {
    quantized.push_back(
        traffic::quantize_size(up.packet(i).size, size.block_bytes));
  }
  CostMeter hoisted_meter;
  const auto built_hoisted = CandidateSets::build_from_windows(
      windows, up, down, size, quantized, hoisted_meter);

  expect_same_sets(built_inline, built_hoisted);
  EXPECT_EQ(inline_meter.accesses(), hoisted_meter.accesses());

  // The context hoists exactly these values.
  const MatchContext context = MatchContext::build(up, down, delta, size);
  ASSERT_EQ(context.upstream_quantized_sizes().size(), up.size());
  for (std::size_t i = 0; i < up.size(); ++i) {
    EXPECT_EQ(context.upstream_quantized_sizes()[i], quantized[i]);
  }
}

TEST(MatchContextApi, MatchesChecksPairIdentityAndKey) {
  const auto a = make_small_instance(91, 0.5, seconds(std::int64_t{1}));
  const auto b = make_small_instance(92, 0.5, seconds(std::int64_t{1}));
  const DurationUs delta = seconds(std::int64_t{1});
  const MatchContext context =
      MatchContext::build(a.marked.flow, a.downstream, delta, std::nullopt);

  EXPECT_TRUE(
      context.matches(a.marked.flow, a.downstream, delta, std::nullopt));
  EXPECT_FALSE(
      context.matches(b.marked.flow, a.downstream, delta, std::nullopt));
  EXPECT_FALSE(
      context.matches(a.marked.flow, b.downstream, delta, std::nullopt));
  EXPECT_FALSE(context.matches(a.marked.flow, a.downstream,
                               seconds(std::int64_t{2}), std::nullopt));
  EXPECT_FALSE(context.matches(a.marked.flow, a.downstream, delta,
                               SizeConstraint{16}));
}

TEST(MatchContextApi, CorrelatorFallsBackOnMismatchedContext) {
  // A context for the wrong pair is silently dropped by the high-level
  // Correlator, prebuilt plan and all: the result equals a cold run on the
  // actual pair.
  const auto a = make_small_instance(93, 0.5, seconds(std::int64_t{1}));
  const auto b = make_small_instance(94, 0.5, seconds(std::int64_t{1}));
  const auto config = small_config();
  const MatchContext wrong =
      MatchContext::build(a.marked.flow, a.downstream, config.max_delay,
                          config.size_constraint);
  batch::SoaPlan plan;
  plan.build(a.marked.schedule, a.marked.watermark);
  for (const Algorithm algorithm :
       {Algorithm::kGreedy, Algorithm::kGreedyPlus, Algorithm::kGreedyStar,
        Algorithm::kBruteForce}) {
    SCOPED_TRACE(to_string(algorithm));
    const Correlator correlator(config, algorithm);
    const auto cold = correlator.correlate(a.marked, b.downstream);
    expect_same_result(cold,
                       correlator.correlate(a.marked, b.downstream, &wrong));
    expect_same_result(
        cold, correlator.correlate(a.marked, b.downstream, &wrong, &plan));
  }
}

}  // namespace
}  // namespace sscor
