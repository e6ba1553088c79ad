// The incremental-vs-batch parity suite for the streaming engine.
//
// Property under test (the design invariant of src/sscor/stream/): for a
// randomized capture — watermarked flows under perturbation and chaff,
// decoys, adversarial flows from the fuzz generators, and packet loss —
// StreamEngine's verdicts equal the batch pipeline's, for any shard count
// and any thread count.  With early exits disabled every CorrelationResult
// byte matches; with them enabled the decisions still agree.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "sscor/correlation/correlator.hpp"
#include "sscor/experiment/stream_corpus.hpp"
#include "sscor/fuzz/generators.hpp"
#include "sscor/stream/packet_source.hpp"
#include "sscor/stream/stream_engine.hpp"
#include "sscor/util/error.hpp"
#include "sscor/util/journal.hpp"

namespace sscor::stream {
namespace {

/// One randomized capture with its per-pair batch reference results.
struct ParityCase {
  std::vector<WatermarkedFlow> upstreams;
  std::vector<net::FiveTuple> tuples;
  std::vector<Flow> flows;  ///< suspicious flows, post-loss, per tuple
  std::vector<StreamPacket> packets;  ///< merged arrival stream
};

WatermarkParams parity_watermark() {
  WatermarkParams params;
  params.bits = 8;
  params.redundancy = 2;  // 32 pairs -> 64 relevant packets
  return params;
}

CorrelatorConfig parity_config() {
  CorrelatorConfig config;
  config.max_delay = seconds(std::int64_t{4});
  config.hamming_threshold = 2;
  return config;
}

ParityCase make_parity_case(std::uint64_t seed) {
  experiment::StreamCorpusConfig corpus_config;
  corpus_config.watermarked_flows = 2;
  corpus_config.decoy_flows = 3;
  corpus_config.packets_per_flow = 150;
  corpus_config.chaff_rate = 2.0;
  corpus_config.seed = seed;
  corpus_config.watermark = parity_watermark();
  const experiment::StreamCorpus corpus =
      experiment::make_stream_corpus(corpus_config);

  ParityCase parity;
  parity.upstreams = corpus.upstreams;
  parity.tuples = corpus.tuples;

  // Packet loss: drop a deterministic ~11% of each suspicious flow.  The
  // batch reference is computed on the SAME lossy flows, so parity is
  // unaffected — the point is that the engine sees realistic gaps.
  for (std::size_t k = 0; k < corpus.downstream.size(); ++k) {
    std::vector<PacketRecord> kept;
    const auto packets = corpus.downstream[k].packets();
    for (std::size_t i = 0; i < packets.size(); ++i) {
      if ((i + k) % 9 != 7) kept.push_back(packets[i]);
    }
    parity.flows.emplace_back(std::move(kept), corpus.tuples[k].to_string());
  }

  // Two adversarial flows from the fuzz generators: duplicate-timestamp
  // runs and micro-bursts, the shapes most likely to disturb incremental
  // window maintenance.
  Rng rng(mix_seeds(seed, 0xadf10e5ULL));
  for (std::size_t j = 0; j < 2; ++j) {
    fuzz::AdversarialFlowOptions options;
    options.min_packets = 64;
    options.max_packets = 96;
    options.duplicate_prob = 0.15;
    options.burst_prob = 0.15;
    Flow flow = fuzz::generate_adversarial_flow(rng, options);
    const net::FiveTuple tuple = experiment::stream_corpus_tuple(30 + j);
    flow.set_id(tuple.to_string());
    parity.tuples.push_back(tuple);
    parity.flows.push_back(std::move(flow));
  }

  for (std::size_t k = 0; k < parity.flows.size(); ++k) {
    for (const PacketRecord& packet : parity.flows[k].packets()) {
      parity.packets.push_back(StreamPacket{parity.tuples[k], packet});
    }
  }
  std::stable_sort(parity.packets.begin(), parity.packets.end(),
                   [](const StreamPacket& a, const StreamPacket& b) {
                     return a.packet.timestamp < b.packet.timestamp;
                   });
  return parity;
}

/// Batch reference: results[flow][upstream].
std::vector<std::vector<CorrelationResult>> batch_results(
    const ParityCase& parity, Algorithm algorithm) {
  const Correlator correlator(parity_config(), algorithm);
  std::vector<std::vector<CorrelationResult>> results(parity.flows.size());
  for (std::size_t k = 0; k < parity.flows.size(); ++k) {
    for (const WatermarkedFlow& upstream : parity.upstreams) {
      results[k].push_back(correlator.correlate(upstream, parity.flows[k]));
    }
  }
  return results;
}

std::vector<StreamVerdict> run_engine(
    const std::vector<WatermarkedFlow>& upstreams,
    const std::vector<StreamPacket>& packets, const CorrelatorConfig& config,
    StreamOptions options) {
  StreamEngine engine(upstreams, config, std::move(options));
  for (const StreamPacket& packet : packets) engine.ingest(packet);
  engine.finish();
  return engine.drain_verdicts();
}

std::vector<StreamVerdict> run_engine(const ParityCase& parity,
                                      StreamOptions options) {
  return run_engine(parity.upstreams, parity.packets, parity_config(),
                    std::move(options));
}

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

std::map<net::FiveTuple, std::size_t> flow_index_of(const ParityCase& parity) {
  std::map<net::FiveTuple, std::size_t> index;
  for (std::size_t k = 0; k < parity.tuples.size(); ++k) {
    index[parity.tuples[k]] = k;
  }
  return index;
}

// With early exits off, every verdict's CorrelationResult must match the
// batch pipeline byte for byte — at shard counts 1, 2, and 8.
TEST(StreamParity, ByteIdenticalToBatchAcrossShardCounts) {
  for (const std::uint64_t seed : {1u, 2u}) {
    const ParityCase parity = make_parity_case(seed);
    const auto batch = batch_results(parity, Algorithm::kGreedyPlus);
    const auto index = flow_index_of(parity);

    std::vector<StreamVerdict> reference;  // the shards=1 run
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                     std::size_t{8}}) {
      StreamOptions options;
      options.early_exit = false;
      options.table.shards = shards;
      options.batch_size = 97;  // deliberately not a divisor of anything
      const std::vector<StreamVerdict> verdicts = run_engine(parity, options);

      ASSERT_EQ(verdicts.size(),
                parity.flows.size() * parity.upstreams.size())
          << "seed " << seed << ", shards " << shards;
      for (const StreamVerdict& v : verdicts) {
        const std::string label = "seed " + std::to_string(seed) +
                                  ", shards " + std::to_string(shards) +
                                  ", flow " + v.tuple.to_string() +
                                  ", upstream " + std::to_string(v.upstream);
        const auto it = index.find(v.tuple);
        ASSERT_NE(it, index.end()) << label;
        const CorrelationResult& want = batch[it->second][v.upstream];
        expect_identical_result(v.result, want, label);
        EXPECT_EQ(v.kind, want.correlated ? VerdictKind::kPositive
                                          : VerdictKind::kNegative)
            << label;
        EXPECT_FALSE(v.early) << label;
        EXPECT_EQ(v.packets_seen, parity.flows[it->second].size()) << label;
      }

      // Verdict order — (flow first-arrival, upstream) — is also
      // shard-count invariant.
      if (reference.empty()) {
        reference = verdicts;
      } else {
        for (std::size_t i = 0; i < verdicts.size(); ++i) {
          EXPECT_EQ(verdicts[i].tuple, reference[i].tuple);
          EXPECT_EQ(verdicts[i].flow_seq, reference[i].flow_seq);
          EXPECT_EQ(verdicts[i].upstream, reference[i].upstream);
        }
      }
    }
  }
}

// At least one corpus pair must actually correlate, or the suite proves
// parity on rejections only.
TEST(StreamParity, CorpusContainsPositives) {
  const ParityCase parity = make_parity_case(1);
  const auto batch = batch_results(parity, Algorithm::kGreedyPlus);
  std::size_t positives = 0;
  for (std::size_t k = 0; k < parity.flows.size(); ++k) {
    for (const CorrelationResult& result : batch[k]) {
      if (result.correlated) ++positives;
    }
  }
  EXPECT_GE(positives, 2u) << "watermarked carriers should decode";
}

// With early exits on (the deployment default), decisions still agree
// with batch for every pair, and early rejections freeze their cost at
// the prefix inspected.
TEST(StreamParity, EarlyExitDecisionsAgreeWithBatch) {
  for (const std::uint64_t seed : {1u, 2u}) {
    const ParityCase parity = make_parity_case(seed);
    const auto batch = batch_results(parity, Algorithm::kGreedyPlus);
    const auto index = flow_index_of(parity);

    for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
      StreamOptions options;
      options.early_exit = true;
      options.table.shards = shards;
      const std::vector<StreamVerdict> verdicts = run_engine(parity, options);

      ASSERT_EQ(verdicts.size(),
                parity.flows.size() * parity.upstreams.size());
      std::size_t early = 0;
      for (const StreamVerdict& v : verdicts) {
        const std::string label = "seed " + std::to_string(seed) +
                                  ", shards " + std::to_string(shards) +
                                  ", flow " + v.tuple.to_string() +
                                  ", upstream " + std::to_string(v.upstream);
        const CorrelationResult& want = batch[index.at(v.tuple)][v.upstream];
        EXPECT_EQ(v.result.correlated, want.correlated) << label;
        EXPECT_EQ(v.kind, want.correlated ? VerdictKind::kPositive
                                          : VerdictKind::kNegative)
            << label;
        if (v.early) {
          ++early;
          EXPECT_FALSE(v.result.correlated) << label;
          EXPECT_EQ(v.result.cost, v.packets_seen) << label;
        } else {
          expect_identical_result(v.result, want, label);
        }
      }
      EXPECT_GT(early, 0u)
          << "no pair rejected early; the corpus should contain some";
    }
  }
}

void expect_identical_verdicts(const std::vector<StreamVerdict>& got,
                               const std::vector<StreamVerdict>& want,
                               const std::string& run) {
  ASSERT_EQ(got.size(), want.size()) << run;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const std::string label = run + ", verdict " + std::to_string(i);
    EXPECT_EQ(got[i].tuple, want[i].tuple) << label;
    EXPECT_EQ(got[i].flow_seq, want[i].flow_seq) << label;
    EXPECT_EQ(got[i].upstream, want[i].upstream) << label;
    EXPECT_EQ(got[i].kind, want[i].kind) << label;
    EXPECT_EQ(got[i].early, want[i].early) << label;
    EXPECT_EQ(got[i].packets_seen, want[i].packets_seen) << label;
    expect_identical_result(got[i].result, want[i].result, label);
  }
}

// Worker-thread and shard counts must never affect verdicts — every field,
// byte for byte, with early exits on.  Two corpora: the randomized parity
// case, and 2 carriers + 6 decoys at 600 packets/flow under the default
// 24-bit watermark, run at shards {1, 2, 4, 8} serially and at 8 shards on
// the pooled default.
TEST(StreamParity, ThreadCountNeverAffectsVerdicts) {
  const ParityCase parity = make_parity_case(3);

  StreamOptions serial;
  serial.table.shards = 8;
  serial.threads = 1;
  StreamOptions threaded = serial;
  threaded.threads = 4;
  expect_identical_verdicts(run_engine(parity, threaded),
                            run_engine(parity, serial), "parity case");

  experiment::StreamCorpusConfig corpus_config;
  corpus_config.watermarked_flows = 2;
  corpus_config.decoy_flows = 6;
  corpus_config.packets_per_flow = 600;
  corpus_config.seed = 5;
  const experiment::StreamCorpus corpus =
      experiment::make_stream_corpus(corpus_config);
  CorrelatorConfig config;
  config.max_delay = seconds(std::int64_t{4});
  const auto run = [&](std::size_t shards, unsigned threads) {
    StreamOptions options;
    options.table.shards = shards;
    options.threads = threads;
    return run_engine(corpus.upstreams, corpus.packets, config, options);
  };

  const std::vector<StreamVerdict> reference = run(1, 1);
  ASSERT_EQ(reference.size(),
            corpus.downstream.size() * corpus.upstreams.size());
  const auto count = [&](auto predicate) {
    return std::count_if(reference.begin(), reference.end(), predicate);
  };
  EXPECT_EQ(count([](const StreamVerdict& v) {
              return v.kind == VerdictKind::kPositive;
            }),
            2);
  EXPECT_GT(count([](const StreamVerdict& v) { return v.early; }), 0);
  for (const std::size_t shards : {std::size_t{2}, std::size_t{4},
                                   std::size_t{8}}) {
    expect_identical_verdicts(run(shards, 1), reference,
                              "shards " + std::to_string(shards));
  }
  expect_identical_verdicts(run(8, 0), reference, "shards 8, pooled");
}

/// One verdict rendered field by field — the full CorrelationResult, cost
/// included — for the golden pin.
std::string render_verdict(const StreamVerdict& v) {
  const CorrelationResult& r = v.result;
  return v.tuple.to_string() + ',' + std::to_string(v.flow_seq) + ',' +
         std::to_string(v.upstream) + ',' + to_string(v.kind) + ',' +
         std::to_string(v.early) + ',' + std::to_string(v.packets_seen) +
         ',' + std::to_string(static_cast<int>(r.algorithm)) + ',' +
         std::to_string(r.correlated) + ',' + std::to_string(r.hamming) +
         ',' + r.best_watermark.to_string() + ',' + std::to_string(r.cost) +
         ',' + std::to_string(r.matching_complete) + ',' +
         std::to_string(r.cost_bound_hit) + ',' +
         std::to_string(r.interrupted) + ',' +
         std::to_string(static_cast<int>(r.stop_reason)) + ',' +
         std::to_string(r.degraded) + ';';
}

// The parity tests above compare the engine with the batch pipeline, and
// early rejections only on their decision and cost == packets_seen — a
// rejection that moved to a different packet would pass them.  This pins
// every verdict field with early exits on, for four algorithms x shards
// {1, 4}, both unbounded and under a buffered-packet cap that evicts flows
// mid-stream (so kEvicted packets_seen is pinned too).  The constants were
// recorded before the online decoder dropped its per-pair window arrays
// and must never be re-pinned to absorb a behaviour change.
TEST(StreamGolden, EarlyExitVerdictsMatchPinnedHashes) {
  const std::vector<std::pair<std::string, std::uint64_t>> pinned = {
      {"seed1/Greedy/shards1/cap0", 0xedd84a2b86e5e73aull},
      {"seed1/Greedy/shards1/cap400", 0xe555962c3adc81afull},
      {"seed1/Greedy/shards4/cap0", 0xedd84a2b86e5e73aull},
      {"seed1/Greedy/shards4/cap400", 0x5aacec5aad0643b1ull},
      {"seed1/Greedy+/shards1/cap0", 0xe50459ec301ef48bull},
      {"seed1/Greedy+/shards1/cap400", 0x6519be27168db11bull},
      {"seed1/Greedy+/shards4/cap0", 0xe50459ec301ef48bull},
      {"seed1/Greedy+/shards4/cap400", 0x970812811b429448ull},
      {"seed1/Greedy*/shards1/cap0", 0x546238e4983d2b4eull},
      {"seed1/Greedy*/shards1/cap400", 0x7b245700eabbecfeull},
      {"seed1/Greedy*/shards4/cap0", 0x546238e4983d2b4eull},
      {"seed1/Greedy*/shards4/cap400", 0xaf38cec78023ca62ull},
      {"seed1/BruteForce/shards1/cap0", 0x878968276046269cull},
      {"seed1/BruteForce/shards1/cap400", 0x87c7340c4bf56b5dull},
      {"seed1/BruteForce/shards4/cap0", 0x878968276046269cull},
      {"seed1/BruteForce/shards4/cap400", 0xbe92abcb5c1b7914ull},
      {"seed2/Greedy/shards1/cap0", 0x73a7dbf5829c1524ull},
      {"seed2/Greedy/shards1/cap400", 0xd693b0ea794a11d8ull},
      {"seed2/Greedy/shards4/cap0", 0x73a7dbf5829c1524ull},
      {"seed2/Greedy/shards4/cap400", 0x22e9fe78d174d8cfull},
      {"seed2/Greedy+/shards1/cap0", 0xc2be9f3d466fc26aull},
      {"seed2/Greedy+/shards1/cap400", 0x9fddc1bd43e18461ull},
      {"seed2/Greedy+/shards4/cap0", 0xc2be9f3d466fc26aull},
      {"seed2/Greedy+/shards4/cap400", 0xd53edfd8acf2dc8bull},
      {"seed2/Greedy*/shards1/cap0", 0xf1702c51ff70b564ull},
      {"seed2/Greedy*/shards1/cap400", 0xd3baf4ba90fbda9bull},
      {"seed2/Greedy*/shards4/cap0", 0xf1702c51ff70b564ull},
      {"seed2/Greedy*/shards4/cap400", 0x8b107e481d1c1e5bull},
      {"seed2/BruteForce/shards1/cap0", 0xab95336257ac05eull},
      {"seed2/BruteForce/shards1/cap400", 0xbd7ac48bee585445ull},
      {"seed2/BruteForce/shards4/cap0", 0xab95336257ac05eull},
      {"seed2/BruteForce/shards4/cap400", 0xe49ed2b825d81017ull},
  };
  std::vector<std::pair<std::string, std::uint64_t>> got;
  for (const std::uint64_t seed : {1u, 2u}) {
    const ParityCase parity = make_parity_case(seed);
    for (const Algorithm algorithm :
         {Algorithm::kGreedy, Algorithm::kGreedyPlus, Algorithm::kGreedyStar,
          Algorithm::kBruteForce}) {
      for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
        for (const std::size_t cap : {std::size_t{0}, std::size_t{400}}) {
          StreamOptions options;
          options.algorithm = algorithm;
          options.early_exit = true;
          options.table.shards = shards;
          options.table.max_buffered_packets = cap;
          std::string rendered;
          for (const StreamVerdict& v : run_engine(parity, options)) {
            rendered += render_verdict(v);
          }
          got.emplace_back("seed" + std::to_string(seed) + '/' +
                               to_string(algorithm) + "/shards" +
                               std::to_string(shards) + "/cap" +
                               std::to_string(cap),
                           journal::fnv1a64(rendered));
        }
      }
    }
  }
  ASSERT_EQ(got.size(), pinned.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(pinned[i].first, got[i].first);
    EXPECT_EQ(pinned[i].second, got[i].second)
        << "{\"" << got[i].first << "\", 0x" << std::hex << got[i].second
        << "ull},";
  }
}

// ---------------------------------------------------------------------------
// The per-packet deadline pass, against a standalone decoder per pair.

Flow shifted(const Flow& flow, DurationUs offset) {
  std::vector<PacketRecord> packets(flow.packets().begin(),
                                    flow.packets().end());
  for (PacketRecord& packet : packets) packet.timestamp += offset;
  return Flow(std::move(packets), flow.id());
}

/// Three watermarked upstreams starting 0, 25 and 50 s apart, each carrier
/// shifted with its upstream, plus two decoys.  Every flow's upstream
/// deadlines interleave, and the later upstreams' deadlines lie far beyond
/// an early flow's packets, so the engine's pass skips those pairs for a
/// long stretch.
struct FanOutCase {
  std::vector<WatermarkedFlow> upstreams;
  std::vector<StreamPacket> packets;
};

FanOutCase make_fan_out_case(std::uint64_t seed) {
  experiment::StreamCorpusConfig config;
  config.watermarked_flows = 3;
  config.decoy_flows = 2;
  config.packets_per_flow = 120;
  config.seed = seed;
  config.watermark = parity_watermark();
  const experiment::StreamCorpus corpus = experiment::make_stream_corpus(config);

  FanOutCase fan_out;
  for (std::size_t k = 0; k < corpus.downstream.size(); ++k) {
    const DurationUs offset = seconds(static_cast<std::int64_t>(25 * (k % 3)));
    if (k < corpus.upstreams.size()) {
      WatermarkedFlow upstream = corpus.upstreams[k];
      upstream.flow = shifted(upstream.flow, offset);
      fan_out.upstreams.push_back(std::move(upstream));
    }
    for (const PacketRecord& packet :
         shifted(corpus.downstream[k], offset).packets()) {
      fan_out.packets.push_back(StreamPacket{corpus.tuples[k], packet});
    }
  }
  std::stable_sort(fan_out.packets.begin(), fan_out.packets.end(),
                   [](const StreamPacket& a, const StreamPacket& b) {
                     return a.packet.timestamp < b.packet.timestamp;
                   });
  return fan_out;
}

/// Checks every verdict against a standalone OnlineCorrelator fed its flow
/// instance packet by packet through ingest().  With min_packets = 1 every
/// instance yields verdicts, so an instance's packets are its tuple's
/// packets from its flow_seq up to the next instance of that tuple.
/// Returns how many kEvicted verdicts belong to pairs the engine's pass
/// never called (no instance packet crossed the pair's first deadline).
std::size_t expect_verdicts_match_standalone(
    const FanOutCase& fan_out, const std::vector<StreamVerdict>& verdicts,
    Algorithm algorithm, const std::string& label) {
  std::map<net::FiveTuple, std::vector<std::uint64_t>> starts;
  for (const StreamVerdict& v : verdicts) starts[v.tuple].push_back(v.flow_seq);
  for (auto& [tuple, seqs] : starts) {
    std::sort(seqs.begin(), seqs.end());
    seqs.erase(std::unique(seqs.begin(), seqs.end()), seqs.end());
  }

  std::size_t skipped_evictions = 0;
  for (const StreamVerdict& v : verdicts) {
    const std::string where = label + ", flow " + std::to_string(v.flow_seq) +
                              ", upstream " + std::to_string(v.upstream);
    const auto& seqs = starts.at(v.tuple);
    const auto next = std::upper_bound(seqs.begin(), seqs.end(), v.flow_seq);
    const std::uint64_t end =
        next == seqs.end() ? fan_out.packets.size() : *next;
    std::vector<PacketRecord> instance;
    for (std::uint64_t s = v.flow_seq; s < end; ++s) {
      if (fan_out.packets[s].tuple == v.tuple) {
        instance.push_back(fan_out.packets[s].packet);
      }
    }

    OnlineCorrelator reference(fan_out.upstreams[v.upstream], parity_config(),
                               algorithm);
    for (const PacketRecord& packet : instance) {
      if (!reference.ingest(packet)) break;
    }
    if (v.kind == VerdictKind::kEvicted) {
      EXPECT_FALSE(reference.decided()) << where;
      EXPECT_EQ(v.packets_seen, instance.size()) << where;
      EXPECT_EQ(v.result.cost, instance.size()) << where;
      EXPECT_FALSE(v.result.correlated) << where;
      EXPECT_FALSE(v.early) << where;
      const TimeUs first_deadline =
          fan_out.upstreams[v.upstream].flow.timestamp(0) +
          parity_config().max_delay;
      if (!instance.empty() && instance.back().timestamp <= first_deadline) {
        ++skipped_evictions;
      }
      continue;
    }
    reference.finish();
    EXPECT_EQ(v.early, reference.early_rejected()) << where;
    EXPECT_EQ(v.packets_seen, reference.packets_seen()) << where;
    expect_identical_result(v.result, reference.result(), where);
    EXPECT_EQ(v.kind, v.result.correlated ? VerdictKind::kPositive
                                          : VerdictKind::kNegative)
        << where;
  }
  return skipped_evictions;
}

// A flow-count bound evicts flows mid-stream, including pairs the deadline
// pass skipped on every packet: their kEvicted verdicts must still count
// every packet the flow buffered, and every other verdict must equal the
// standalone decoder's, packets_seen included.
TEST(StreamFanOut, EvictionMidStreamMatchesStandaloneDecoders) {
  for (const std::uint64_t seed : {5u, 6u}) {
    const FanOutCase fan_out = make_fan_out_case(seed);
    for (const Algorithm algorithm :
         {Algorithm::kGreedyPlus, Algorithm::kGreedy}) {
      for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
        StreamOptions options;
        options.algorithm = algorithm;
        options.min_packets = 1;
        options.table.shards = shards;
        options.table.max_flows = 3;
        StreamEngine engine(fan_out.upstreams, parity_config(), options);
        for (const StreamPacket& packet : fan_out.packets) {
          engine.ingest(packet);
        }
        engine.finish();
        const std::vector<StreamVerdict> verdicts = engine.drain_verdicts();
        const std::string label = "seed " + std::to_string(seed) + ", " +
                                  to_string(algorithm) + ", shards " +
                                  std::to_string(shards);
        std::size_t evicted = 0;
        for (const StreamVerdict& v : verdicts) {
          evicted += v.kind == VerdictKind::kEvicted;
        }
        EXPECT_GT(evicted, 0u) << label;
        EXPECT_GT(expect_verdicts_match_standalone(fan_out, verdicts,
                                                   algorithm, label),
                  0u)
            << label << ": no eviction hit a pair the pass had skipped";
      }
    }
  }
}

// snapshot() -> restore() mid-stream: the resumed engine replays each
// buffer through the deadline pass and must continue exactly as the
// uninterrupted run does, and as the standalone decoders do.
TEST(StreamFanOut, SnapshotRestoreMidStreamMatchesStandaloneDecoders) {
  for (const std::uint64_t seed : {5u, 7u}) {
    const FanOutCase fan_out = make_fan_out_case(seed);
    StreamOptions options;
    options.min_packets = 1;
    options.table.shards = 2;
    options.table.max_flows = 8;
    options.batch_size = 64;

    StreamEngine uninterrupted(fan_out.upstreams, parity_config(), options);
    for (const StreamPacket& packet : fan_out.packets) {
      uninterrupted.ingest(packet);
    }
    uninterrupted.finish();
    const std::vector<StreamVerdict> want = uninterrupted.drain_verdicts();

    const std::size_t cut = fan_out.packets.size() / 2;
    std::vector<StreamVerdict> got;
    EngineSnapshot snapshot;
    {
      StreamEngine first(fan_out.upstreams, parity_config(), options);
      for (std::size_t s = 0; s < cut; ++s) first.ingest(fan_out.packets[s]);
      first.flush();
      got = first.drain_verdicts();
      snapshot = first.snapshot();
    }
    StreamEngine resumed(fan_out.upstreams, parity_config(), options);
    resumed.restore(snapshot);
    for (std::size_t s = cut; s < fan_out.packets.size(); ++s) {
      resumed.ingest(fan_out.packets[s]);
    }
    resumed.finish();
    for (StreamVerdict& v : resumed.drain_verdicts()) {
      got.push_back(std::move(v));
    }

    const std::string label = "seed " + std::to_string(seed);
    std::sort(got.begin(), got.end(),
              [](const StreamVerdict& a, const StreamVerdict& b) {
                if (a.flow_seq != b.flow_seq) return a.flow_seq < b.flow_seq;
                return a.upstream < b.upstream;
              });
    ASSERT_EQ(got.size(), want.size()) << label;
    std::string got_rendered;
    std::string want_rendered;
    for (std::size_t i = 0; i < got.size(); ++i) {
      got_rendered += render_verdict(got[i]);
      want_rendered += render_verdict(want[i]);
    }
    EXPECT_EQ(got_rendered, want_rendered) << label;
    expect_verdicts_match_standalone(fan_out, got, options.algorithm, label);
  }
}

// ---------------------------------------------------------------------------
// The text feed source.

TEST(FlowTextSource, ParsesFeedAndMapsTokensDeterministically) {
  std::istringstream in(
      "# sscor-stream v1\n"
      "\n"
      "alpha 1000 64 0\n"
      "# a comment between packets\n"
      "beta 1500 128 1\n"
      "alpha 2000 64 0\n");
  FlowTextStreamSource source(in);

  const auto p1 = source.next();
  ASSERT_TRUE(p1.has_value());
  EXPECT_EQ(p1->tuple, FlowTextStreamSource::tuple_for_token("alpha"));
  EXPECT_EQ(p1->packet.timestamp, 1000);
  EXPECT_EQ(p1->packet.size, 64u);
  EXPECT_FALSE(p1->packet.is_chaff);

  const auto p2 = source.next();
  ASSERT_TRUE(p2.has_value());
  EXPECT_EQ(p2->tuple, FlowTextStreamSource::tuple_for_token("beta"));
  EXPECT_NE(p2->tuple, p1->tuple);
  EXPECT_TRUE(p2->packet.is_chaff);

  const auto p3 = source.next();
  ASSERT_TRUE(p3.has_value());
  EXPECT_EQ(p3->tuple, p1->tuple) << "equal tokens must map to one tuple";
  EXPECT_FALSE(source.next().has_value());
}

TEST(FlowTextSource, RejectsBadHeaderAndMalformedLines) {
  std::istringstream bad_header("not a header\nalpha 1 64 0\n");
  EXPECT_THROW(FlowTextStreamSource{bad_header}, IoError);

  std::istringstream bad_line("# sscor-stream v1\nalpha not-a-number 64 0\n");
  FlowTextStreamSource source(bad_line);
  EXPECT_THROW(source.next(), IoError);
}

// Round-trip: serialise a parity case as a text feed, stream it back in,
// and check the engine reaches the same decisions as direct ingestion
// (tuples differ — they derive from tokens — but per-flow results match).
TEST(FlowTextSource, FeedRoundTripMatchesDirectIngestion) {
  const ParityCase parity = make_parity_case(1);

  StreamOptions options;
  options.early_exit = false;
  const std::vector<StreamVerdict> direct = run_engine(parity, options);

  // Token = flow index in the parity case, so token order is tuple order.
  const auto index = flow_index_of(parity);
  std::ostringstream feed;
  feed << "# sscor-stream v1\n";
  for (const StreamPacket& packet : parity.packets) {
    feed << "f" << index.at(packet.tuple) << ' ' << packet.packet.timestamp
         << ' ' << packet.packet.size << ' ' << (packet.packet.is_chaff ? 1 : 0)
         << '\n';
  }

  std::istringstream in(feed.str());
  FlowTextStreamSource source(in);
  StreamEngine engine(parity.upstreams, parity_config(), options);
  while (const auto packet = source.next()) engine.ingest(*packet);
  engine.finish();
  const std::vector<StreamVerdict> replayed = engine.drain_verdicts();

  ASSERT_EQ(replayed.size(), direct.size());
  std::map<std::pair<std::size_t, std::size_t>, const StreamVerdict*>
      direct_by_pair;
  for (const StreamVerdict& v : direct) {
    direct_by_pair[{index.at(v.tuple), v.upstream}] = &v;
  }
  for (const StreamVerdict& v : replayed) {
    // Recover the flow index from the token-derived tuple.
    std::size_t flow = parity.tuples.size();
    for (std::size_t k = 0; k < parity.tuples.size(); ++k) {
      if (FlowTextStreamSource::tuple_for_token("f" + std::to_string(k)) ==
          v.tuple) {
        flow = k;
        break;
      }
    }
    ASSERT_LT(flow, parity.tuples.size());
    const StreamVerdict* want = direct_by_pair.at({flow, v.upstream});
    EXPECT_EQ(v.kind, want->kind);
    EXPECT_EQ(v.flow_seq, want->flow_seq);
    expect_identical_result(v.result, want->result,
                            "flow " + std::to_string(flow));
  }
}

}  // namespace
}  // namespace sscor::stream
