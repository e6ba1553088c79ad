#include "sscor/correlation/correlator.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <optional>

#include "sscor/correlation/brute_force.hpp"
#include "sscor/correlation/greedy.hpp"
#include "sscor/correlation/greedy_plus.hpp"
#include "sscor/correlation/greedy_star.hpp"
#include "sscor/util/error.hpp"
#include "sscor/util/metrics.hpp"
#include "sscor/util/trace.hpp"

namespace sscor {
namespace {

/// One decode-introspection row for a finished run: per-bit outcome from
/// the best watermark vs the embedded one, plus the pair's matching-window
/// shape.  Only called when decode tracing is on; the extra window scan
/// uses a throwaway meter, so the reported cost metric is untouched.
void record_decode_trace(const Flow& upstream, const Watermark& target,
                         const Flow& suspicious,
                         const CorrelatorConfig& config,
                         const MatchContext* context,
                         const CorrelationResult& result) {
  trace::DecodeRecord record;
  record.algorithm = to_string(result.algorithm);
  record.correlated = result.correlated;
  record.hamming = result.hamming;
  record.cost = result.cost;
  record.matching_complete = result.matching_complete;
  record.cost_bound_hit = result.cost_bound_hit;

  if (result.best_watermark.size() == target.size()) {
    record.bit_outcomes.reserve(target.size());
    for (std::size_t bit = 0; bit < target.size(); ++bit) {
      record.bit_outcomes +=
          result.best_watermark.bit(bit) == target.bit(bit) ? '1' : '0';
    }
  } else {
    record.bit_outcomes.assign(target.size(), '-');
  }

  record.upstream_packets = upstream.size();
  record.downstream_packets = suspicious.size();
  record.excess_packets = static_cast<std::int64_t>(suspicious.size()) -
                          static_cast<std::int64_t>(upstream.size());

  std::vector<MatchWindow> scanned;
  std::span<const MatchWindow> windows;
  if (context != nullptr) {
    windows = context->windows();
  } else {
    CostMeter scratch;  // diagnostic scan: never charged to the run
    scanned = scan_match_windows(upstream.timestamps(),
                                 suspicious.timestamps(), config.max_delay,
                                 scratch);
    windows = scanned;
  }
  for (const MatchWindow& window : windows) {
    const std::uint64_t width = window.size();
    record.matched_upstream += width > 0;
    record.window_total += width;
    record.window_max = std::max(record.window_max, width);
  }
  trace::record_decode(std::move(record));
}

/// The per-run distributional metrics shared by every correlate entry
/// point: where a detect's packet accesses actually land, plus the
/// interruption tallies (heavy tails are invisible in process-wide totals).
void record_run_metrics(const CorrelationResult& result) {
  static metrics::Histogram& pair_cost =
      metrics::histogram("correlate.pair_cost");
  pair_cost.record(result.cost);
  if (result.interrupted) {
    static metrics::Counter& interrupted =
        metrics::counter("correlate.interrupted");
    static metrics::Counter& cancelled =
        metrics::counter("correlate.cancelled");
    interrupted.add();
    if (result.stop_reason == StopReason::kCancelled) cancelled.add();
  }
}

}  // namespace

std::string to_string(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kBruteForce:
      return "BruteForce";
    case Algorithm::kGreedy:
      return "Greedy";
    case Algorithm::kGreedyPlus:
      return "Greedy+";
    case Algorithm::kGreedyStar:
      return "Greedy*";
  }
  return "unknown";
}

Correlator::Correlator(CorrelatorConfig config, Algorithm algorithm)
    : config_(config), algorithm_(algorithm) {
  require(config.max_delay >= 0, "max delay must be non-negative");
  require(config.cost_bound > 0, "cost bound must be positive");
}

namespace {

/// Flushes the per-run latency sample on scope exit — including exceptional
/// unwind (chaos-injected allocation failure, a throwing flow accessor), so
/// a decode that dies after 900ms still lands in the latency tail instead
/// of vanishing from the histogram.  Aborted runs are counted separately.
class LatencyFlusher {
 public:
  LatencyFlusher() noexcept
      : entry_exceptions_(std::uncaught_exceptions()),
        start_(std::chrono::steady_clock::now()) {}
  ~LatencyFlusher() noexcept {
    const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
                             std::chrono::steady_clock::now() - start_)
                             .count();
    static metrics::Histogram& latency =
        metrics::histogram("correlate.latency_us");
    latency.record(static_cast<std::uint64_t>(elapsed));
    if (std::uncaught_exceptions() > entry_exceptions_) {
      static metrics::Counter& aborted = metrics::counter("correlate.aborted");
      aborted.add();
    }
  }
  LatencyFlusher(const LatencyFlusher&) = delete;
  LatencyFlusher& operator=(const LatencyFlusher&) = delete;

 private:
  int entry_exceptions_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

CorrelationResult Correlator::correlate(const WatermarkedFlow& watermarked,
                                        const Flow& suspicious,
                                        const MatchContext* context,
                                        const batch::SoaPlan* plan) const {
  TRACE_SPAN("correlate");
  const LatencyFlusher latency_guard;
  if (context != nullptr) {
    // Drop a context built for another pair or key rather than throwing:
    // the caller may hold one context while scanning many suspects.
    static metrics::Counter& hits = metrics::counter("match_context.hits");
    static metrics::Counter& misses = metrics::counter("match_context.misses");
    if (context->matches(watermarked.flow, suspicious, config_.max_delay,
                         config_.size_constraint)) {
      hits.add();
    } else {
      misses.add();
      context = nullptr;
    }
  }
  const auto run_cold = [&]() -> CorrelationResult {
    switch (algorithm_) {
      case Algorithm::kBruteForce:
        return run_brute_force(watermarked.schedule, watermarked.watermark,
                               watermarked.flow, suspicious, config_);
      case Algorithm::kGreedy:
        return run_greedy(
            DecodePlan(watermarked.schedule, watermarked.watermark),
            watermarked.flow, suspicious, config_);
      case Algorithm::kGreedyPlus:
        return run_greedy_plus(watermarked.schedule, watermarked.watermark,
                               watermarked.flow, suspicious, config_);
      case Algorithm::kGreedyStar:
        return run_greedy_star(watermarked.schedule, watermarked.watermark,
                               watermarked.flow, suspicious, config_);
    }
    throw InternalError("unhandled algorithm");
  };
  const auto run_batched = [&]() -> CorrelationResult {
    batch::BatchDecoder decoder(config_);
    if (plan != nullptr) return decoder.decode_one(algorithm_, *context, *plan);
    return decoder.decode_one(
        algorithm_, *context,
        batch::DecodeHypothesis{&watermarked.schedule,
                                &watermarked.watermark});
  };
  const CorrelationResult result =
      context != nullptr ? run_batched() : run_cold();

  // Latency flushes via latency_guard so aborted runs are measured too.
  record_run_metrics(result);
  if (trace::decode_enabled()) {
    record_decode_trace(watermarked.flow, watermarked.watermark, suspicious,
                        config_, context, result);
  }
  return result;
}

std::vector<CorrelationResult> Correlator::correlate_hypotheses(
    const Flow& upstream, std::span<const batch::DecodeHypothesis> hypotheses,
    const Flow& suspicious, const MatchContext* context) const {
  TRACE_SPAN("correlate.batch");
  const LatencyFlusher latency_guard;  // one sample covers the batch
  static metrics::Counter& hits = metrics::counter("match_context.hits");
  static metrics::Counter& misses = metrics::counter("match_context.misses");
  std::optional<MatchContext> local;
  if (context != nullptr &&
      context->matches(upstream, suspicious, config_.max_delay,
                       config_.size_constraint)) {
    hits.add();
  } else {
    if (context != nullptr) misses.add();
    local.emplace(MatchContext::build(upstream, suspicious, config_.max_delay,
                                      config_.size_constraint));
    context = &*local;
  }

  batch::BatchDecoder decoder(config_);
  std::vector<CorrelationResult> results;
  results.reserve(hypotheses.size());
  for (const batch::DecodeHypothesis& hypothesis : hypotheses) {
    const CorrelationResult result =
        decoder.decode_one(algorithm_, *context, hypothesis);
    record_run_metrics(result);
    if (trace::decode_enabled()) {
      record_decode_trace(upstream, *hypothesis.target, suspicious, config_,
                          context, result);
    }
    results.push_back(result);
  }
  return results;
}

}  // namespace sscor
