#include "sscor/matching/match_context.hpp"

#include "sscor/matching/batch_kernels.hpp"
#include "sscor/traffic/size_model.hpp"
#include "sscor/util/metrics.hpp"
#include "sscor/util/trace.hpp"

namespace sscor {

MatchContext MatchContext::build(const Flow& upstream, const Flow& downstream,
                                 DurationUs max_delay,
                                 const std::optional<SizeConstraint>& size) {
  TRACE_SPAN("match_context.build");
  MatchContext ctx;
  ctx.upstream_ = &upstream;
  ctx.downstream_ = &downstream;
  ctx.key_ = MatchContextKey{max_delay, size};

  // The build meter records exactly what a cold run of CandidateSets::build
  // would have counted: the window scan plus the size-filter reads.
  CostMeter build_meter;
  // Tight-loop scan: identical windows and access counts to
  // scan_match_windows (a tested property), minus the per-element counting.
  scan_match_windows_batched(upstream.timestamps(), downstream.timestamps(),
                             max_delay, build_meter, ctx.windows_);
  if (size) {
    ctx.up_quantized_.reserve(upstream.size());
    for (std::size_t i = 0; i < upstream.size(); ++i) {
      // Quantizing the defender's own upstream sizes is not a suspicious-
      // flow packet access, so it never counted toward the metric; hoisting
      // it here therefore cannot change any reported cost.
      ctx.up_quantized_.push_back(traffic::quantize_size(
          upstream.packet(i).size, size->block_bytes));
    }
    // One flat sweep over the suspicious flow's sizes.  Each *examined*
    // candidate below still counts one access, so the pre-quantization only
    // removes the repeated divisions, never a counted read.
    std::vector<std::uint32_t> down_sizes;
    down_sizes.reserve(downstream.size());
    for (std::size_t j = 0; j < downstream.size(); ++j) {
      down_sizes.push_back(downstream.packet(j).size);
    }
    ctx.down_quantized_.resize(down_sizes.size());
    batch::kernels::quantize_sizes(down_sizes.data(), size->block_bytes,
                                   ctx.down_quantized_.data(),
                                   down_sizes.size());
  }
  ctx.built_sets_ = CandidateSets::build_from_windows(
      ctx.windows_, upstream, downstream, size, ctx.up_quantized_,
      build_meter, ctx.down_quantized_);
  ctx.build_cost_ = build_meter.accesses();
  ctx.complete_ = ctx.built_sets_.complete();

  // A cold run only prunes when the built sets are complete (incomplete
  // matching rejects first), so the recorded prune cost mirrors that.
  if (ctx.complete_) {
    CostMeter prune_meter;
    ctx.pruned_sets_ = ctx.built_sets_;
    ctx.prune_ok_ = ctx.pruned_sets_.prune(prune_meter);
    ctx.prune_cost_ = prune_meter.accesses();
  }

  // Distribution of candidate-set sizes and window widths across upstream
  // packets, plus the pruning yield — sampled at every kStride-th packet,
  // accumulated locally, and flushed as one bucket-wise merge so the loop
  // costs no atomics.  Builds run per flow pair on the detection hot path
  // (BM_MatchContextBuild and the paper_eval benchmark guard the budget),
  // so the whole observability pass is a few hundred iterations, not
  // O(packets): a deterministic stride keeps the distribution shape, and
  // the pruning yield compares built vs pruned sizes over the same sample,
  // which also keeps every recorded value schedule-independent.
  constexpr std::size_t kStride = 8;
  metrics::HistogramData set_sizes;
  metrics::HistogramData window_widths;
  std::uint64_t sampled_built = 0;
  std::uint64_t sampled_pruned = 0;
  for (std::size_t i = 0; i < ctx.built_sets_.upstream_size();
       i += kStride) {
    const std::uint64_t size = ctx.built_sets_.set(i).size();
    set_sizes.record(size);
    sampled_built += size;
    if (ctx.complete_) sampled_pruned += ctx.pruned_sets_.set(i).size();
  }
  for (std::size_t i = 0; i < ctx.windows_.size(); i += kStride) {
    window_widths.record(ctx.windows_[i].size());
  }
  static metrics::Histogram& set_size_hist =
      metrics::histogram("match.candidate_set_size");
  static metrics::Histogram& window_width_hist =
      metrics::histogram("match.window_width");
  set_size_hist.merge(set_sizes);
  window_width_hist.merge(window_widths);
  if (ctx.complete_ && sampled_built > 0) {
    static metrics::Histogram& prune_kept_pct =
        metrics::histogram("match.prune_kept_pct");
    prune_kept_pct.record(sampled_pruned * 100 / sampled_built);
  }
  return ctx;
}

}  // namespace sscor
