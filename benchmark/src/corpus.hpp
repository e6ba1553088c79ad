// Seeded capture corpora for the stream workloads, written the way a
// `sscor_tool generate | embed | perturb` user would produce them: one
// watermark secret shared by every upstream, an upstream capture holding
// the watermarked flows, and a downstream capture holding the carriers
// (perturbed and chaffed as in paper §4) mixed with unwatermarked decoys.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sscor/correlation/correlator.hpp"
#include "sscor/flow/flow_extractor.hpp"
#include "sscor/watermark/key_file.hpp"

namespace sscor::perf {

struct CaptureCorpusConfig {
  std::size_t carriers = 64;
  std::size_t decoys = 192;
  std::size_t carrier_packets = 1000;
  std::size_t decoy_packets = 1000;
  /// Decoys start uniformly in [0, decoy_start_spread) of capture time.
  DurationUs decoy_start_spread = millis(900);
  DurationUs max_perturbation = seconds(std::int64_t{7});
  double chaff_rate = 3.0;
  std::uint64_t seed = 1;
};

struct CaptureCorpus {
  WatermarkSecret secret;
  std::string upstream_path;
  std::string downstream_path;
  /// Downstream tuple of the carrier of each upstream, keyed by the
  /// upstream's tuple string: the true pairs.
  std::map<std::string, std::string> carrier_of;
  std::size_t downstream_flows = 0;
};

/// Generates the corpus and writes both captures under `dir`.
CaptureCorpus write_capture_corpus(const CaptureCorpusConfig& config,
                                   const std::string& dir);

/// The watch start-up step: extract the upstream capture and derive each
/// flow's key schedule from the secret (as cmd_watch does).  `tuples`
/// receives the upstream tuples in engine index order when non-null.
std::vector<WatermarkedFlow> load_upstreams(
    const std::string& path, const WatermarkSecret& secret,
    std::vector<net::FiveTuple>* tuples = nullptr);

/// The correlator settings of `sscor_tool watch` defaults.
CorrelatorConfig watch_correlator_config();

}  // namespace sscor::perf
