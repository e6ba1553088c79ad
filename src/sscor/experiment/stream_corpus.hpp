// Deterministic multi-flow streaming corpora.
//
// The streaming parity suite, the flow-table stress tests, and the
// telemetry tests all need the same thing: a set of watermarked
// upstream flows, a mixed population of downstream flows (the watermark
// carriers, adversarially perturbed and chaffed, plus unwatermarked
// decoys), and that population flattened into one time-ordered packet
// stream a StreamEngine can ingest.  Everything is a pure function of the
// seed, built on the experiment Dataset so the adversary model matches the
// paper's evaluation.

#pragma once

#include <vector>

#include "sscor/experiment/config.hpp"
#include "sscor/stream/packet_source.hpp"
#include "sscor/watermark/embedder.hpp"

namespace sscor::experiment {

struct StreamCorpusConfig {
  /// Watermarked upstreams; downstream flow i < watermarked_flows carries
  /// upstream i's watermark.
  std::size_t watermarked_flows = 2;
  /// Additional unwatermarked flows mixed into the stream.
  std::size_t decoy_flows = 4;
  std::size_t packets_per_flow = 400;
  /// Adversary model applied to the watermark carriers (paper §4).
  DurationUs max_perturbation = seconds(std::int64_t{3});
  double chaff_rate = 2.0;
  std::uint64_t seed = 1;
  Corpus corpus = Corpus::kInteractive;
  WatermarkParams watermark;
};

struct StreamCorpus {
  /// One per watermarked flow, index-aligned with the engine's verdicts.
  std::vector<WatermarkedFlow> upstreams;
  /// Tuple of downstream flow k (carriers first, then decoys).
  std::vector<net::FiveTuple> tuples;
  /// Downstream flow k exactly as the batch extractor would group it.
  std::vector<Flow> downstream;
  /// Every downstream packet, globally time-ordered (stable by flow then
  /// packet index on ties) — the stream the engine ingests.
  std::vector<stream::StreamPacket> packets;
};

/// The tuple assigned to downstream flow `index` (deterministic, unique
/// for any realistic corpus size).
net::FiveTuple stream_corpus_tuple(std::size_t index);

StreamCorpus make_stream_corpus(const StreamCorpusConfig& config);

}  // namespace sscor::experiment
