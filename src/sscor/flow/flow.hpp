// A unidirectional packet flow: the unit every algorithm in this library
// consumes and produces.

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sscor/flow/packet.hpp"
#include "sscor/util/time.hpp"

namespace sscor {

/// Summary statistics of a flow's timing behaviour.
struct FlowStats {
  std::size_t packets = 0;
  DurationUs duration = 0;
  double mean_rate_pps = 0.0;    ///< packets per second over the duration
  double mean_ipd_seconds = 0.0;
  double median_ipd_seconds = 0.0;
  double max_ipd_seconds = 0.0;
};

/// An ordered sequence of packets.  Class invariant: timestamps are
/// non-decreasing (the paper's order constraint presumes FIFO links).
class Flow {
 public:
  Flow() = default;

  /// Builds a flow from packets; sorts them (stably) by timestamp.
  explicit Flow(std::vector<PacketRecord> packets, std::string id = {});

  /// Builds a flow with the given timestamps and zero-size packets.
  static Flow from_timestamps(std::span<const TimeUs> timestamps,
                              std::string id = {});

  const std::string& id() const { return id_; }
  void set_id(std::string id) { id_ = std::move(id); }

  std::size_t size() const { return packets_.size(); }
  bool empty() const { return packets_.empty(); }

  const PacketRecord& packet(std::size_t i) const { return packets_.at(i); }
  TimeUs timestamp(std::size_t i) const { return packets_.at(i).timestamp; }
  std::span<const PacketRecord> packets() const { return packets_; }

  TimeUs start_time() const;
  TimeUs end_time() const;
  DurationUs duration() const;

  /// All timestamps as one contiguous array, kept in sync with the packet
  /// list.  Zero-copy: the reference stays valid for the Flow's lifetime,
  /// so matching and decoding hold `std::span<const TimeUs>` views into it
  /// instead of materialising per-call copies.
  const std::vector<TimeUs>& timestamps() const { return timestamps_; }

  /// Inter-packet delay between consecutive packets i and i+1.
  DurationUs ipd(std::size_t i) const;

  FlowStats stats() const;

  /// Number of packets flagged as chaff (ground truth; evaluation only).
  std::size_t chaff_count() const;

  /// Returns a copy whose timestamps are shifted by `delta`.
  Flow shifted(DurationUs delta) const;

  /// Appends a packet; it must not precede the current last packet.
  void append(PacketRecord packet);

 private:
  void rebuild_timestamp_cache();

  std::vector<PacketRecord> packets_;
  /// Parallel array of packets_[i].timestamp (class invariant), so the hot
  /// decode paths read timestamps from a dense array without copying.
  std::vector<TimeUs> timestamps_;
  std::string id_;
};

/// Merges two flows into one time-ordered flow (used for chaff injection
/// and for building multi-connection captures).
Flow merge_flows(const Flow& a, const Flow& b, std::string id = {});

/// An append-only view of one growing (streaming) flow.
///
/// The streaming engine tracks one downstream buffer per live flow and any
/// number of incremental decoders against it (one OnlineCorrelator per
/// watermarked upstream).  Sharing the buffer instead of copying it into
/// every decoder is what makes tens of thousands of concurrent pairs fit in
/// memory; consumers address packets by index (indices are stable — packets
/// are only ever appended) and hold a packets() span only until the next
/// append, since the underlying storage may reallocate as the flow grows.
class AppendOnlyFlow {
 public:
  /// Appends a packet; its timestamp must not precede the current last
  /// packet (the same FIFO invariant as Flow).
  void append(PacketRecord packet);

  std::size_t size() const { return packets_.size(); }
  bool empty() const { return packets_.empty(); }
  const PacketRecord& packet(std::size_t i) const { return packets_.at(i); }
  TimeUs timestamp(std::size_t i) const { return packets_.at(i).timestamp; }
  /// Every buffered packet; invalidated by the next append() or release().
  std::span<const PacketRecord> packets() const { return packets_; }
  TimeUs last_timestamp() const;

  /// Materializes the buffered packets as an immutable Flow (the form the
  /// batch correlators consume).  Byte-identical to building a Flow from
  /// the same packets directly: the buffer is already timestamp-ordered, so
  /// the Flow constructor's stable sort is the identity permutation.
  Flow to_flow(std::string id = {}) const;

  /// Drops the buffered packets and releases their storage.  Used once
  /// every decoder of the flow has reached a decision: the flow table keeps
  /// the (now cheap) entry as a tombstone while the packet memory returns
  /// to the allocator.  Indices handed out earlier become invalid.
  void release();

 private:
  std::vector<PacketRecord> packets_;
};

}  // namespace sscor
