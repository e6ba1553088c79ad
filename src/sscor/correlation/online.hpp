// Online (streaming) correlation.
//
// A deployed tracer watches live traffic: downstream packets arrive one at
// a time, and waiting for the whole capture before deciding wastes both
// memory bandwidth and reaction time.  OnlineCorrelator ingests packets in
// arrival order and closes the matching window of every upstream packet as
// soon as it is final: window i, M(p_i) = [t_i, t_i + Delta], is final once
// a packet later than its upper bound has arrived — nothing later can
// enter it.  Windows close in upstream order, so one cursor (the next
// window to close) and its deadline t_i + Delta are all the per-pair
// progress there is; a packet at or before the deadline changes nothing
// but the packet count, and ingest_appended() jumps over such packets in
// one search.  Finality enables two sound early exits, long before the
// stream ends:
//
//  * an upstream packet whose window closes empty can never be matched —
//    under the paper's assumptions the pair is immediately negative;
//  * per watermark bit, once all of its windows are final, the greedy
//    extreme over those windows lower-bounds every order-consistent
//    decoding of that bit (the paper's Greedy bound); if the number of
//    provably-unmatchable bits exceeds the Hamming threshold, no future
//    packet can save the pair.
//
// No window is stored.  Both exits read the windows they need from the
// downstream buffer at the moment they fire: window i closed by packet j is
// empty iff j == 0 or ts[j-1] < t_i, and a final window's extremes are the
// first packet at or after t_i and the last at or before t_i + Delta (two
// binary searches).  Per-pair state is a handful of counters, independent
// of both flow lengths.
//
// The final verdict (when neither early exit fired) is produced by the
// configured offline algorithm over the buffered flow and is bit-identical
// to running it offline — a property pinned by the golden interleaving test
// in tests/correlation_test.cpp and the streaming parity suite.
//
// Two ownership modes:
//
//  * Standalone (the original API): the correlator copies the watermarked
//    flow and owns its downstream buffer; feed it with ingest().
//  * Shared (the streaming engine's mode): the upstream side lives in one
//    immutable OnlineUpstream shared by every pair tracking that
//    watermarked flow, and the downstream packets live in one
//    AppendOnlyFlow shared by every pair tracking that suspicious flow.
//    The engine appends to the buffer once and calls ingest_appended() only
//    on the pairs whose next_deadline() the new packet crosses — N
//    upstreams x M flows cost one packet copy, not N copies, and one
//    comparison per pair for a packet that closes none of its windows.

#pragma once

#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "sscor/correlation/correlator.hpp"
#include "sscor/correlation/decode_plan.hpp"
#include "sscor/flow/flow.hpp"
#include "sscor/matching/batch_kernel.hpp"
#include "sscor/matching/match_windows.hpp"
#include "sscor/watermark/embedder.hpp"

namespace sscor {

/// The immutable per-upstream half of an online decode, shared by every
/// pair tracking the same watermarked flow: the flow itself, its decode
/// plans, and the upstream-index -> completed-bit mapping.  Building these
/// once per upstream (instead of once per pair) is what the streaming flow
/// table relies on.
class OnlineUpstream {
 public:
  explicit OnlineUpstream(WatermarkedFlow watermarked);

  const WatermarkedFlow& watermarked() const { return watermarked_; }
  const DecodePlan& plan() const { return plan_; }
  std::span<const TimeUs> timestamps() const {
    return watermarked_.flow.timestamps();
  }
  /// The watermark bit whose last slot is upstream packet i, or kNoBit:
  /// once window i is final, every window of that bit is (windows close in
  /// upstream order).
  std::span<const std::uint32_t> bit_completed_by() const {
    return bit_completed_by_;
  }

  /// The SoA plan for the batched decode engine, built once per upstream
  /// and reused by every pair's final verdict (result() feeds it to
  /// Correlator::correlate with the pair's MatchContext).
  const batch::SoaPlan& soa_plan() const { return soa_plan_; }

  static constexpr std::uint32_t kNoBit = 0xffffffffu;

 private:
  WatermarkedFlow watermarked_;
  DecodePlan plan_;
  std::vector<std::uint32_t> bit_completed_by_;
  batch::SoaPlan soa_plan_;
};

struct OnlineOptions {
  /// When false the two early exits never fire: the correlator only
  /// maintains windows and buffers, and the verdict is always the offline
  /// algorithm over the full stream — byte-identical to the batch pipeline
  /// even for pairs the exits would have rejected.  The streaming parity
  /// suite runs both modes.
  bool early_exit = true;
};

class OnlineCorrelator {
 public:
  /// Standalone mode: `watermarked` is copied (the upstream side is fully
  /// known up front — the defender produced it) and the correlator owns
  /// its downstream buffer.
  OnlineCorrelator(WatermarkedFlow watermarked, CorrelatorConfig config,
                   Algorithm algorithm = Algorithm::kGreedyPlus,
                   OnlineOptions options = {});

  /// Shared mode: upstream state and the downstream buffer are owned by
  /// the caller (the streaming engine) and shared across pairs.  Feed with
  /// ingest_appended() after appending to `downstream`.
  OnlineCorrelator(std::shared_ptr<const OnlineUpstream> upstream,
                   std::shared_ptr<const AppendOnlyFlow> downstream,
                   CorrelatorConfig config,
                   Algorithm algorithm = Algorithm::kGreedyPlus,
                   OnlineOptions options = {});

  /// Standalone mode only: appends the next downstream packet (timestamps
  /// must be non-decreasing) and processes it.  Returns true while the
  /// pair is still undecided (callers may stop feeding once it returns
  /// false).
  bool ingest(const PacketRecord& packet);

  /// Processes every packet appended to the shared downstream buffer since
  /// the last call.  Returns true while the pair is still undecided.
  bool ingest_appended();

  /// The latest downstream timestamp that closes none of the pair's
  /// windows (kNoDeadline once decided or once every window is closed).  A
  /// packet at or before it changes no decision state, so a caller fanning
  /// one buffer out to many pairs may skip ingest_appended() until a packet
  /// exceeds it; the next call counts the skipped packets.
  TimeUs next_deadline() const;

  static constexpr TimeUs kNoDeadline = std::numeric_limits<TimeUs>::max();

  /// Declares the stream over: every window still open is finalised at
  /// the current end of stream.
  void finish();

  /// True once an early exit fired or finish() was called.
  bool decided() const;

  /// True when the pair was rejected before the stream ended.
  bool early_rejected() const { return early_rejected_; }

  /// Fraction of upstream packets whose matching window is final (as of
  /// the last ingest call).
  double finalized_fraction() const;

  /// Watermark bits already provably unmatchable (greedy bound over final
  /// windows).  Monotically non-decreasing; the pair is rejected when it
  /// exceeds the Hamming threshold.
  std::uint32_t provably_mismatched_bits() const { return doomed_bits_; }

  /// Packets processed so far (equals the buffer length as of the last
  /// ingest call until the pair decides, then freezes).
  std::size_t packets_seen() const { return next_index_; }

  /// The verdict.  Available after decided(); early rejections synthesise
  /// a negative result, otherwise the configured offline algorithm runs
  /// over the buffered flow.
  CorrelationResult result();

 private:
  void close_windows(std::uint32_t j, TimeUs timestamp);
  void finalize_window(std::uint32_t index, std::uint32_t closed_by);
  void check_bit(std::uint32_t bit);
  /// The final window of upstream packet `index` over the packets seen.
  MatchWindow window_of(std::uint32_t index) const;

  std::shared_ptr<const OnlineUpstream> upstream_;
  std::shared_ptr<const AppendOnlyFlow> downstream_;
  /// Standalone mode appends into the same buffer downstream_ views.
  std::shared_ptr<AppendOnlyFlow> owned_downstream_;
  CorrelatorConfig config_;
  Algorithm algorithm_;
  OnlineOptions options_;

  /// View into the upstream flow's timestamp cache (owned by upstream_,
  /// which this object keeps alive).
  std::span<const TimeUs> up_ts_;

  std::uint32_t next_index_ = 0;  ///< next downstream index to process
  std::uint32_t hi_cursor_ = 0;   ///< next upstream window to close
  std::uint32_t doomed_bits_ = 0;
  bool early_rejected_ = false;
  bool finished_ = false;
  std::optional<CorrelationResult> cached_result_;
};

}  // namespace sscor
