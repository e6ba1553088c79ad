#include "sscor/correlation/online.hpp"

#include <algorithm>

#include "sscor/util/error.hpp"
#include "sscor/watermark/decoder.hpp"

namespace sscor {
namespace {

/// The configured algorithm rejects on any unmatched upstream packet.
bool requires_complete_matching(Algorithm algorithm) {
  return algorithm != Algorithm::kGreedy;
}

}  // namespace

OnlineUpstream::OnlineUpstream(WatermarkedFlow watermarked)
    : watermarked_(std::move(watermarked)),
      plan_(watermarked_.schedule, watermarked_.watermark) {
  bit_completed_by_.assign(watermarked_.flow.size(), kNoBit);
  for (std::uint32_t bit = 0; bit < plan_.bit_count(); ++bit) {
    const auto slots = plan_.bit_slots(bit);
    if (slots.empty()) continue;
    // bit_slots() is in increasing upstream order: the last one closes last.
    bit_completed_by_[plan_.slots()[slots.back()].up_index] = bit;
  }
  soa_plan_.build(watermarked_.schedule, watermarked_.watermark);
}

OnlineCorrelator::OnlineCorrelator(WatermarkedFlow watermarked,
                                   CorrelatorConfig config,
                                   Algorithm algorithm, OnlineOptions options)
    : OnlineCorrelator(
          std::make_shared<const OnlineUpstream>(std::move(watermarked)),
          nullptr, config, algorithm, options) {
  owned_downstream_ = std::make_shared<AppendOnlyFlow>();
  downstream_ = owned_downstream_;
}

OnlineCorrelator::OnlineCorrelator(
    std::shared_ptr<const OnlineUpstream> upstream,
    std::shared_ptr<const AppendOnlyFlow> downstream, CorrelatorConfig config,
    Algorithm algorithm, OnlineOptions options)
    : upstream_(std::move(upstream)),
      downstream_(std::move(downstream)),
      config_(config),
      algorithm_(algorithm),
      options_(options),
      up_ts_(upstream_->timestamps()) {
  require(config.max_delay >= 0, "max delay must be non-negative");
}

bool OnlineCorrelator::ingest(const PacketRecord& packet) {
  require(!finished_, "ingest after finish()");
  require(owned_downstream_ != nullptr,
          "ingest() on a shared-buffer correlator; append to the shared "
          "buffer and call ingest_appended()");
  if (decided()) return false;
  owned_downstream_->append(packet);  // enforces timestamp ordering
  return ingest_appended();
}

bool OnlineCorrelator::ingest_appended() {
  require(!finished_, "ingest after finish()");
  if (decided()) return false;
  const auto packets = downstream_->packets();
  while (next_index_ < packets.size()) {
    // Packets at or before the deadline close no window: jump past them.
    const TimeUs deadline = next_deadline();
    const auto crossing = std::partition_point(
        packets.begin() + next_index_, packets.end(),
        [deadline](const PacketRecord& p) { return p.timestamp <= deadline; });
    next_index_ = static_cast<std::uint32_t>(crossing - packets.begin());
    if (crossing == packets.end()) break;
    ++next_index_;
    close_windows(next_index_ - 1, crossing->timestamp);
    if (decided()) return false;
  }
  return true;
}

TimeUs OnlineCorrelator::next_deadline() const {
  if (decided() || hi_cursor_ >= up_ts_.size()) return kNoDeadline;
  return up_ts_[hi_cursor_] + config_.max_delay;
}

void OnlineCorrelator::close_windows(std::uint32_t j, TimeUs timestamp) {
  while (hi_cursor_ < up_ts_.size() &&
         timestamp > up_ts_[hi_cursor_] + config_.max_delay) {
    finalize_window(hi_cursor_, j);
    ++hi_cursor_;
    if (decided()) return;
  }
}

void OnlineCorrelator::finish() {
  if (finished_) return;
  // Catch up on anything appended to a shared buffer since the last
  // ingest_appended() so the end-of-stream finalisation below sees every
  // packet (a no-op for standalone buffers and decided pairs).
  if (!decided()) ingest_appended();
  finished_ = true;
  while (hi_cursor_ < up_ts_.size()) {
    finalize_window(hi_cursor_, next_index_);
    ++hi_cursor_;
    if (early_rejected_) break;
  }
}

bool OnlineCorrelator::decided() const {
  return early_rejected_ || finished_;
}

double OnlineCorrelator::finalized_fraction() const {
  if (up_ts_.empty()) return 1.0;
  return static_cast<double>(hi_cursor_) /
         static_cast<double>(up_ts_.size());
}

void OnlineCorrelator::finalize_window(std::uint32_t index,
                                       std::uint32_t closed_by) {
  if (!options_.early_exit) return;
  // The window closed by packet `closed_by` is empty iff no earlier packet
  // reached t_i (packets are timestamp-ordered).
  if (requires_complete_matching(algorithm_) &&
      (closed_by == 0 ||
       downstream_->packets()[closed_by - 1].timestamp < up_ts_[index])) {
    early_rejected_ = true;
    return;
  }
  const std::uint32_t bit = upstream_->bit_completed_by()[index];
  if (bit != OnlineUpstream::kNoBit) check_bit(bit);
}

MatchWindow OnlineCorrelator::window_of(std::uint32_t index) const {
  const auto seen = downstream_->packets().first(next_index_);
  const TimeUs t = up_ts_[index];
  const auto hi = std::partition_point(
      seen.begin(), seen.end(), [bound = t + config_.max_delay](
                                    const PacketRecord& p) {
        return p.timestamp <= bound;
      });
  const auto lo = std::partition_point(
      seen.begin(), hi,
      [t](const PacketRecord& p) { return p.timestamp < t; });
  return MatchWindow{static_cast<std::uint32_t>(lo - seen.begin()),
                     static_cast<std::uint32_t>(hi - seen.begin())};
}

void OnlineCorrelator::check_bit(std::uint32_t bit) {
  // Greedy bound over the (now final) windows of the bit: if even the
  // per-pair extremes cannot decode it as its target value, no selection
  // ever will.
  const DecodePlan& plan = upstream_->plan();
  const auto seen = downstream_->packets();
  DurationUs extreme = 0;
  bool any_pair = false;
  for (std::uint32_t pair = 0; pair < plan.pairs_per_bit(); ++pair) {
    const PairSlots& ps = plan.pair_slots(bit, pair);
    const SlotInfo& first = plan.slots()[ps.first_slot];
    const SlotInfo& second = plan.slots()[ps.second_slot];
    const MatchWindow wf = window_of(first.up_index);
    const MatchWindow ws = window_of(second.up_index);
    if (wf.empty() || ws.empty()) continue;
    const TimeUs t_first =
        seen[first.prefer_earliest ? wf.lo : wf.hi - 1].timestamp;
    const TimeUs t_second =
        seen[second.prefer_earliest ? ws.lo : ws.hi - 1].timestamp;
    const DurationUs ipd = t_second - t_first;
    extreme += ps.group1 ? ipd : -ipd;
    any_pair = true;
  }
  const std::uint8_t target = plan.target().bit(bit);
  const bool matchable = any_pair && decode_bit(extreme) == target;
  if (!matchable) {
    ++doomed_bits_;
    if (doomed_bits_ > config_.hamming_threshold) {
      early_rejected_ = true;
    }
  }
}

CorrelationResult OnlineCorrelator::result() {
  require(decided(), "result() before the stream is decided");
  if (cached_result_) return *cached_result_;

  if (early_rejected_) {
    CorrelationResult result;
    result.algorithm = algorithm_;
    result.correlated = false;
    result.matching_complete = false;
    result.hamming = doomed_bits_;
    result.cost = next_index_;  // one pass over the stream so far
    cached_result_ = result;
    return result;
  }

  const Flow downstream = downstream_->to_flow();
  const Correlator offline(config_, algorithm_);
  // Batched path with the upstream's prebuilt SoA plan; field-identical to
  // the cold path by the batch parity suite, but the per-verdict
  // plan build and selection allocations are gone — with thousands of
  // concurrent pairs per shard, verdicts dominate the stream's tail cost.
  const MatchContext context =
      MatchContext::build(upstream_->watermarked().flow, downstream,
                          config_.max_delay, config_.size_constraint);
  cached_result_ = offline.correlate(upstream_->watermarked(), downstream,
                                     &context, &upstream_->soa_plan());
  return *cached_result_;
}

}  // namespace sscor
