// The public entry point of the correlation engine.
//
// Typical use (see examples/quickstart.cpp):
//
//   Embedder embedder(WatermarkParams{}, secret_key);
//   WatermarkedFlow wm = embedder.embed(upstream_flow, watermark);
//   ... the flow traverses stepping stones, is perturbed and chaffed ...
//   Correlator correlator(config, Algorithm::kGreedyPlus);
//   CorrelationResult r = correlator.correlate(wm, suspicious_flow);
//   if (r.correlated) { /* suspicious_flow is downstream of upstream_flow */ }

#pragma once

#include <span>
#include <vector>

#include "sscor/correlation/result.hpp"
#include "sscor/flow/flow.hpp"
#include "sscor/matching/batch_kernel.hpp"
#include "sscor/matching/match_context.hpp"
#include "sscor/watermark/embedder.hpp"

namespace sscor {

class Correlator {
 public:
  Correlator(CorrelatorConfig config, Algorithm algorithm);

  /// Decides whether `suspicious` is a downstream flow of the watermarked
  /// flow, by decoding the best watermark achievable over matching-packet
  /// subsequences and comparing it to the embedded one.
  ///
  /// Two decode paths, field-identical in every result (cost included):
  ///  * no `context`: the scalar run_* correlator matches and decodes cold;
  ///  * `context`, a precomputed MatchContext for the (watermarked.flow,
  ///    suspicious, config) triple: the matching phase is replayed from the
  ///    cache with its recorded cost and the decode runs on the batched SoA
  ///    engine (batch::BatchDecoder) over the calling thread's workspace.
  ///    `plan`, when non-null, is the hypothesis's prebuilt SoaPlan (the
  ///    streaming engine builds it once per upstream); it must describe
  ///    (watermarked.schedule, watermarked.watermark).
  /// A context built for a different pair or key is silently dropped
  /// (counted under `match_context.misses`) and the cold path runs, so
  /// callers can pass whatever context they have on hand.
  CorrelationResult correlate(const WatermarkedFlow& watermarked,
                              const Flow& suspicious,
                              const MatchContext* context = nullptr,
                              const batch::SoaPlan* plan = nullptr) const;

  /// Decodes many (schedule, watermark) hypotheses against one suspicious
  /// flow with the matching phase shared across the whole batch: the
  /// context is built once (or replayed from `context` when it matches) and
  /// every hypothesis decodes on the batched engine from the same candidate
  /// sets.  results[i] is field-identical to correlate() with hypothesis
  /// i's WatermarkedFlow.  Per-run metrics (pair cost, interruptions,
  /// decode traces) are recorded per hypothesis; the latency sample covers
  /// the batch.
  std::vector<CorrelationResult> correlate_hypotheses(
      const Flow& upstream, std::span<const batch::DecodeHypothesis> hypotheses,
      const Flow& suspicious, const MatchContext* context = nullptr) const;

  const CorrelatorConfig& config() const { return config_; }
  Algorithm algorithm() const { return algorithm_; }

 private:
  CorrelatorConfig config_;
  Algorithm algorithm_;
};

}  // namespace sscor
