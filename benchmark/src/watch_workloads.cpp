// watch_replay and live_wal: the `sscor_tool watch` daemon loop
// (tools/sscor_tool.cpp cmd_watch) driven from outside.
//
//   source.next() -> StreamEngine::ingest -> on batch boundaries
//   drain_verdicts (-> DurableSession::commit, maybe_snapshot) -> at the
//   end finish() + a last drain.
//
// watch_replay is a closed loop over a capture file (watch --feed pcap).
// live_wal is an open loop: a feeder thread sends `sscor-stream v1` frames
// over one loopback TCP connection on a fixed schedule, and the daemon
// commits every verdict through a DurableSession (watch --connect
// --state-dir).

#include <arpa/inet.h>
#include <poll.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>

#include "corpus.hpp"
#include "sscor/net/io.hpp"
#include "sscor/stream/durability.hpp"
#include "sscor/stream/frame.hpp"
#include "sscor/stream/packet_source.hpp"
#include "sscor/stream/socket_source.hpp"
#include "sscor/stream/stream_engine.hpp"
#include "sscor/util/error.hpp"
#include "sscor/util/journal.hpp"
#include "sscor/util/metrics.hpp"
#include "sscor/util/rng.hpp"
#include "workloads.hpp"

namespace sscor::perf {
namespace {

using stream::StreamVerdict;
using stream::VerdictKind;

/// `sscor_tool watch` defaults: shards 4, batch 256, Greedy+, early exits
/// on, single-threaded, no table bounds.
stream::StreamOptions watch_stream_options() {
  stream::StreamOptions options;
  options.algorithm = Algorithm::kGreedyPlus;
  options.early_exit = true;
  options.min_packets = 2;
  options.batch_size = 256;
  options.threads = 1;
  options.table.shards = 4;
  return options;
}

std::string verdict_digest(const std::vector<StreamVerdict>& verdicts) {
  std::uint64_t h = journal::fnv1a64("sscor-perf verdicts");
  for (const auto& v : verdicts) {
    h = journal::fnv1a64(journal::hex64(h) + stream::encode_verdict(v));
  }
  return journal::hex64(h);
}

/// Deterministic tallies of one verdict stream.
struct VerdictTally {
  std::uint64_t verdicts = 0;
  std::uint64_t early = 0;
  std::uint64_t positive = 0;
  std::uint64_t negative = 0;
  std::uint64_t evicted = 0;
  std::uint64_t degraded = 0;
  std::uint64_t packets_accessed = 0;
  std::uint64_t pair_updates = 0;  // sum of packets_seen
};

VerdictTally tally(const std::vector<StreamVerdict>& verdicts) {
  VerdictTally t;
  for (const auto& v : verdicts) {
    ++t.verdicts;
    t.early += v.early ? 1 : 0;
    t.positive += v.kind == VerdictKind::kPositive ? 1 : 0;
    t.negative += v.kind == VerdictKind::kNegative ? 1 : 0;
    t.evicted += v.kind == VerdictKind::kEvicted ? 1 : 0;
    t.degraded += v.kind == VerdictKind::kDegraded ? 1 : 0;
    t.packets_accessed += v.result.cost;
    t.pair_updates += v.packets_seen;
  }
  return t;
}

void record_tally(RunResult& out, int rep, const VerdictTally& t,
                  std::uint64_t packets, const std::string& digest) {
  record_exact(out, rep, "packets_ingested", std::to_string(packets));
  record_exact(out, rep, "verdicts", std::to_string(t.verdicts));
  record_exact(out, rep, "verdicts.early", std::to_string(t.early));
  record_exact(out, rep, "verdicts.positive", std::to_string(t.positive));
  record_exact(out, rep, "verdicts.negative", std::to_string(t.negative));
  record_exact(out, rep, "verdicts.evicted", std::to_string(t.evicted));
  record_exact(out, rep, "verdicts.degraded", std::to_string(t.degraded));
  record_exact(out, rep, "packets_accessed",
               std::to_string(t.packets_accessed));
  record_exact(out, rep, "pair_updates", std::to_string(t.pair_updates));
  record_exact(out, rep, "verdict_digest", digest);
}

/// Checks a verdict stream pair by pair: every (downstream flow, upstream)
/// pair has exactly one verdict, none evicted or degraded, and for every
/// true pair plus a seeded sample of the others the verdict kind equals
/// batch Correlator::correlate on the extracted flows.  Fills attempted /
/// failed and returns the detection-rate / true-negative-rate inputs.
struct PairCheck {
  std::uint64_t true_pairs = 0;
  std::uint64_t true_positive = 0;
  std::uint64_t other_pairs = 0;
  std::uint64_t other_negative = 0;
};

PairCheck check_against_batch(const CaptureCorpus& corpus,
                              const std::vector<WatermarkedFlow>& upstreams,
                              const std::vector<net::FiveTuple>& up_tuples,
                              const std::vector<StreamVerdict>& verdicts,
                              std::uint64_t seed, std::size_t sample,
                              RunResult& out) {
  const auto downstream = extract_flows_from_file(corpus.downstream_path);
  std::map<std::pair<std::string, std::size_t>, const StreamVerdict*> index;
  for (const auto& v : verdicts) {
    const auto key = std::make_pair(v.tuple.to_string(), v.upstream);
    if (!index.emplace(key, &v).second) {
      out.fail(1, "duplicate verdict for " + key.first + " x up" +
                      std::to_string(key.second));
    }
  }
  const Correlator reference(watch_correlator_config(),
                             Algorithm::kGreedyPlus);
  Rng rng(mix_seeds(seed, 0x5a3b1e));
  const std::size_t others =
      downstream.size() * upstreams.size() - upstreams.size();
  PairCheck check;
  std::size_t sampled = 0;
  std::size_t seen_others = 0;
  for (const auto& down : downstream) {
    const std::string down_name = down.tuple.to_string();
    for (std::size_t u = 0; u < upstreams.size(); ++u) {
      ++out.attempted;
      const auto it = index.find({down_name, u});
      const auto carrier = corpus.carrier_of.find(up_tuples[u].to_string());
      const bool is_true = carrier != corpus.carrier_of.end() &&
                           carrier->second == down_name;
      const std::string pair = down_name + " x up" + std::to_string(u);
      if (it == index.end()) {
        out.fail(1, "missing verdict for " + pair);
        continue;
      }
      const StreamVerdict& v = *it->second;
      if (v.kind == VerdictKind::kEvicted || v.kind == VerdictKind::kDegraded) {
        out.fail(1, std::string(stream::to_string(v.kind)) + " verdict for " +
                        pair);
        continue;
      }
      const bool positive = v.kind == VerdictKind::kPositive;
      if (is_true) {
        ++check.true_pairs;
        check.true_positive += positive ? 1 : 0;
      } else {
        ++check.other_pairs;
        check.other_negative += positive ? 0 : 1;
        ++seen_others;
      }
      // Selection sampling: exactly `sample` of the non-true pairs.
      bool verify = is_true;
      if (!is_true && sampled < sample) {
        const std::size_t remaining = others - (seen_others - 1);
        if (rng.uniform_u64(remaining) < sample - sampled) {
          verify = true;
          ++sampled;
        }
      }
      if (!verify) continue;
      const CorrelationResult r = reference.correlate(upstreams[u], down.flow);
      if (r.correlated != positive) {
        out.fail(1, "stream says " + std::string(stream::to_string(v.kind)) +
                        ", batch says " +
                        (r.correlated ? "positive" : "negative") + " for " +
                        pair);
      }
    }
  }
  if (index.size() != out.attempted) {
    out.fail(index.size() > out.attempted ? index.size() - out.attempted : 0,
             "verdicts for pairs that do not exist");
  }
  return check;
}

void report_rates(RunResult& out, const PairCheck& check) {
  out.e2e("detection_rate",
          check.true_pairs == 0
              ? 0.0
              : static_cast<double>(check.true_positive) /
                    static_cast<double>(check.true_pairs),
          "share");
  out.e2e("true_negative_rate",
          check.other_pairs == 0
              ? 0.0
              : static_cast<double>(check.other_negative) /
                    static_cast<double>(check.other_pairs),
          "share");
  record_exact(out, 0, "check.true_positive",
               std::to_string(check.true_positive));
  record_exact(out, 0, "check.other_negative",
               std::to_string(check.other_negative));
}

std::uint64_t late_packets() {
  for (const auto& c : metrics::snapshot().counters) {
    if (c.name == "stream.packets.late") return c.value;
  }
  return 0;
}

/// Per-layer accumulators of one traced repetition of the daemon loop.
///
/// Per-packet calls are timed on the monotonic clock: a thread-CPU clock
/// read costs about 0.3 us here, as much as a routing call.  Everything
/// but the source runs without blocking, so its wall time is its CPU time;
/// the source's CPU is the loop's thread CPU minus every other timed part,
/// and its wait is its wall time minus that.
struct LoopTrace {
  CallTimer next;
  CallTimer route;   // ingest calls that stayed inside a batch
  CallTimer flush;   // ingest calls that crossed a batch boundary
  CallTimer drain;   // drain_verdicts calls
  CallTimer finish;
  double durability_s = 0.0;  // commit and maybe_snapshot calls
  std::uint64_t peak_buffered = 0;
  std::uint64_t peak_live_flows = 0;
};

template <typename Fn>
auto timed(CallTimer& timer, Fn&& fn) {
  const double w0 = wall_s();
  auto result = fn();
  timer.wall_s += wall_s() - w0;
  ++timer.calls;
  return result;
}

void report_loop_trace(RunResult& out, const LoopTrace& t, double loop_cpu_s) {
  const double next_cpu =
      std::max(0.0, loop_cpu_s - t.route.wall_s - t.flush.wall_s -
                        t.drain.wall_s - t.finish.wall_s - t.durability_s);
  out.layer("stream.source.next_cpu_s", next_cpu, "s");
  out.layer("stream.source.next_wait_s",
            std::max(0.0, t.next.wall_s - next_cpu), "s");
  out.layer("stream.engine.route_cpu_s", t.route.wall_s, "s");
  out.layer("stream.engine.flush_cpu_s", t.flush.wall_s, "s");
  out.layer("stream.engine.flushes", static_cast<double>(t.flush.calls),
            "count");
  out.layer("stream.engine.drain_cpu_s", t.drain.wall_s, "s");
  out.layer("stream.engine.finish_cpu_s", t.finish.wall_s, "s");
  out.layer("stream.engine.peak_buffered_packets",
            static_cast<double>(t.peak_buffered), "count");
  out.layer("stream.engine.peak_live_flows",
            static_cast<double>(t.peak_live_flows), "count");
}

void report_verdict_layers(RunResult& out, const VerdictTally& t,
                           std::uint64_t packets, std::uint64_t late) {
  const double n = static_cast<double>(std::max<std::uint64_t>(packets, 1));
  out.layer("stream.engine.pair_updates_per_packet",
            static_cast<double>(t.pair_updates) / n, "count");
  out.layer("stream.engine.early_verdict_share",
            t.verdicts == 0 ? 0.0
                            : static_cast<double>(t.early) /
                                  static_cast<double>(t.verdicts),
            "share");
  out.layer("stream.engine.late_packet_share", static_cast<double>(late) / n,
            "share");
  out.layer("stream.engine.offline_decodes",
            static_cast<double>(t.verdicts - t.early - t.evicted), "count");
}

/// Feed position of every flow's k-th packet, computed before the run so
/// latencies are looked up after it rather than inside the timed loop.
struct ArrivalOrder {
  std::size_t total = 0;
  std::unordered_map<net::FiveTuple, std::vector<std::uint32_t>,
                     net::FiveTupleHash>
      positions;

  explicit ArrivalOrder(const std::vector<stream::StreamPacket>& packets) {
    total = packets.size();
    for (std::size_t i = 0; i < packets.size(); ++i) {
      positions[packets[i].tuple].push_back(static_cast<std::uint32_t>(i));
    }
  }

  /// Position of the packet that released `v`: the flow's packets_seen-th
  /// packet, or its min_packets-th when the engine held the verdict until
  /// the flow was long enough to report.
  std::size_t deciding(const StreamVerdict& v, std::size_t min_packets) const {
    const auto it = positions.find(v.tuple);
    const std::uint64_t nth =
        std::max<std::uint64_t>(v.packets_seen, min_packets);
    require(it != positions.end() && nth >= 1 && nth <= it->second.size(),
            "verdict names a packet the feed never carried");
    return it->second[nth - 1];
  }
};

std::vector<stream::StreamPacket> read_replay(const std::string& path) {
  stream::CaptureReplaySource source(path);
  std::vector<stream::StreamPacket> packets;
  packets.reserve(source.total_packets());
  while (auto packet = source.next()) packets.push_back(*packet);
  return packets;
}

// ---------------------------------------------------------------------------
// watch_replay

struct ReplayRep {
  double setup_s = 0.0;
  double extract_s = 0.0;
  double construct_s = 0.0;
  double replay_load_s = 0.0;
  double loop_cpu_s = 0.0;
  double drain_s = 0.0;
  double peak_rss_mb = 0.0;
  std::uint64_t packets = 0;
  std::uint64_t late = 0;
  std::vector<double> latency_ms;
  std::vector<StreamVerdict> verdicts;
  LoopTrace trace;
};

/// Start-up samples behind each setup_s median.
constexpr std::size_t kMinSetupSamples = 9;

/// The start-up path of `watch --feed pcap`: upstream extraction and key
/// schedules, the engine, and the capture load.
struct ReplaySetup {
  std::unique_ptr<stream::StreamEngine> engine;
  std::unique_ptr<stream::CaptureReplaySource> source;
  double extract_s = 0.0;
  double construct_s = 0.0;
  double replay_load_s = 0.0;
  double total_s() const { return extract_s + construct_s + replay_load_s; }
};

ReplaySetup setup_replay(const CaptureCorpus& corpus, SpanRecorder& spans,
                         std::uint64_t parent) {
  ReplaySetup setup;
  const double t0 = wall_s();
  std::vector<WatermarkedFlow> upstreams;
  {
    const ScopedSpan span(spans, "flow.extract_upstreams", "flow", parent);
    upstreams = load_upstreams(corpus.upstream_path, corpus.secret);
  }
  const double t1 = wall_s();
  {
    const ScopedSpan span(spans, "stream.engine.construct", "stream", parent);
    setup.engine = std::make_unique<stream::StreamEngine>(
        std::move(upstreams), watch_correlator_config(),
        watch_stream_options());
  }
  const double t2 = wall_s();
  {
    const ScopedSpan span(spans, "pcap.replay_load", "pcap", parent);
    setup.source = std::make_unique<stream::CaptureReplaySource>(
        corpus.downstream_path);
  }
  setup.extract_s = t1 - t0;
  setup.construct_s = t2 - t1;
  setup.replay_load_s = wall_s() - t2;
  return setup;
}

/// One closed-loop `watch --feed pcap` run.  The whole capture is there
/// when the replay starts, so a verdict's latency is the time from the
/// start of the loop to the return of the drain that surfaced it.  The
/// loop never waits, so its times are read on the thread CPU clock, which
/// leaves out spells when the thread was not running.
ReplayRep replay_once(const CaptureCorpus& corpus, SpanRecorder& spans,
                      bool traced) {
  ReplayRep rep;
  const bool rss_ok = reset_peak_rss();
  metrics::reset();
  const std::uint64_t root = spans.begin("watch_replay.rep", "bench");
  ReplaySetup setup = setup_replay(corpus, spans, root);
  rep.extract_s = setup.extract_s;
  rep.construct_s = setup.construct_s;
  rep.replay_load_s = setup.replay_load_s;
  rep.setup_s = setup.total_s();
  stream::StreamEngine* engine = setup.engine.get();
  stream::CaptureReplaySource* source = setup.source.get();
  const stream::StreamOptions& options = engine->options();

  double loop_start = 0.0;
  const auto drain = [&] {
    std::vector<StreamVerdict> batch =
        traced ? timed(rep.trace.drain, [&] { return engine->drain_verdicts(); })
               : engine->drain_verdicts();
    const double now = thread_cpu_s();
    for (auto& v : batch) {
      rep.latency_ms.push_back((now - loop_start) * 1e3);
      rep.verdicts.push_back(std::move(v));
    }
  };

  loop_start = thread_cpu_s();
  const std::uint64_t loop_span = spans.begin("stream.loop", "stream", root);
  std::uint64_t ingested = 0;
  while (true) {
    const std::optional<stream::StreamPacket> packet =
        traced ? timed(rep.trace.next, [&] { return source->next(); })
               : source->next();
    if (!packet) break;
    ++ingested;
    const bool boundary = ingested % options.batch_size == 0;
    if (traced) {
      const std::uint64_t span =
          boundary ? spans.begin("stream.flush", "stream", loop_span) : 0;
      timed(boundary ? rep.trace.flush : rep.trace.route, [&] {
        engine->ingest(*packet);
        return 0;
      });
      spans.end(span);
    } else {
      engine->ingest(*packet);
    }
    if (boundary) {
      drain();
      if (traced) {
        rep.trace.peak_buffered =
            std::max(rep.trace.peak_buffered, engine->buffered_packets());
        rep.trace.peak_live_flows = std::max<std::uint64_t>(
            rep.trace.peak_live_flows, engine->live_flows());
      }
    }
  }
  const double input_end = thread_cpu_s();
  {
    const ScopedSpan span(spans, "stream.finish", "stream", loop_span);
    if (traced) {
      timed(rep.trace.finish, [&] {
        engine->finish();
        return 0;
      });
    } else {
      engine->finish();
    }
  }
  drain();
  const double last = thread_cpu_s();
  rep.loop_cpu_s = last - loop_start;
  spans.end(loop_span);
  spans.end(root);
  rep.drain_s = last - input_end;
  rep.packets = engine->packets_ingested();
  rep.late = late_packets();
  rep.peak_rss_mb = rss_ok ? peak_rss_mb() : 0.0;
  require(rep.packets == ingested, "engine ingest count drifted");
  return rep;
}


// ---------------------------------------------------------------------------
// live_wal

/// Offered load of the open loop, well below the daemon's capacity on this
/// corpus, so the backlog stays flat and latency measures the daemon, not
/// a queue that grows for as long as the run lasts.
constexpr double kOfferedRate = 40000.0;  // packets per second
/// Lead between accepting the connection and the first packet's due time.
constexpr double kFeederLeadS = 0.005;

/// The feed's bytes: hello, then one frame per packet (`offsets[i]` is
/// where packet i's frame starts; offsets.back() is the end).
std::string encode_feed(const std::vector<stream::StreamPacket>& packets,
                        std::vector<std::size_t>& offsets) {
  std::string wire = stream::encode_hello();
  offsets.clear();
  offsets.reserve(packets.size() + 1);
  for (const auto& p : packets) {
    offsets.push_back(wire.size());
    wire += stream::encode_packet_frame(p);
  }
  offsets.push_back(wire.size());
  return wire;
}

/// The open-loop load generator: serves the feed as `sscor-stream v1`
/// frames to one client on 127.0.0.1, sending packet i at its due time
/// start + i / rate whether or not the daemon keeps up, then kEnd at
/// start + n / rate.  Members other than sent() are read after join().
class ScheduledFeeder {
 public:
  ScheduledFeeder(const std::vector<stream::StreamPacket>& packets,
                  double rate)
      : rate_(rate),
        count_(packets.size()),
        wire_(encode_feed(packets, offsets_)),
        end_frame_(stream::encode_end()) {
    lag_ms_.reserve(packets.size());
  }
  ~ScheduledFeeder() {
    join();
    if (listen_fd_ >= 0) ::close(listen_fd_);
  }
  ScheduledFeeder(const ScheduledFeeder&) = delete;
  ScheduledFeeder& operator=(const ScheduledFeeder&) = delete;

  /// Binds an ephemeral loopback port and starts the serve thread.
  void start() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    require(listen_fd_ >= 0, "feeder: socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    socklen_t len = sizeof(addr);
    require(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)) == 0 &&
                ::listen(listen_fd_, 1) == 0 &&
                ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                              &len) == 0,
            "feeder: cannot listen on 127.0.0.1");
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { serve(); });
  }

  void join() {
    if (thread_.joinable()) thread_.join();
  }

  std::uint16_t port() const { return port_; }
  std::uint64_t sent() const { return sent_.load(std::memory_order_relaxed); }
  double accept_wall() const { return accept_wall_; }
  double due(std::size_t i) const {
    return start_wall_ + static_cast<double>(i) / rate_;
  }
  double end_due() const { return due(count_); }
  const std::vector<double>& lag_ms() const { return lag_ms_; }
  const std::string& error() const { return error_; }

 private:
  void serve() {
    int fd = -1;
    try {
      pollfd pfd{listen_fd_, POLLIN, 0};
      require(::poll(&pfd, 1, 30000) == 1, "feeder: no client connected");
      fd = ::accept(listen_fd_, nullptr, nullptr);
      require(fd >= 0, "feeder: accept() failed");
      accept_wall_ = wall_s();
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      start_wall_ = accept_wall_ + kFeederLeadS;
      require(net::send_all(fd, wire_.data(), offsets_[0]),
              "feeder: hello not delivered");
      std::size_t next = 0;
      while (next < count_) {
        const double now = wall_s();
        const double due_next = due(next);
        if (now < due_next) {
          std::this_thread::sleep_for(
              std::chrono::duration<double>(due_next - now));
          continue;
        }
        std::size_t upto = next + 1;
        while (upto < count_ && due(upto) <= now) ++upto;
        require(net::send_all(fd, wire_.data() + offsets_[next],
                              offsets_[upto] - offsets_[next]),
                "feeder: daemon hung up");
        const double sent_at = wall_s();
        for (std::size_t i = next; i < upto; ++i) {
          lag_ms_.push_back((sent_at - due(i)) * 1e3);
        }
        next = upto;
        sent_.store(next, std::memory_order_relaxed);
      }
      const double now = wall_s();
      if (now < end_due()) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(end_due() - now));
      }
      // The daemon never writes back, so closing after kEnd sends a clean
      // FIN behind the queued frames.
      require(net::send_all(fd, end_frame_.data(), end_frame_.size()),
              "feeder: end frame not delivered");
    } catch (const std::exception& e) {
      error_ = e.what();
    }
    if (fd >= 0) ::close(fd);
  }

  double rate_;
  std::size_t count_;
  std::vector<std::size_t> offsets_;
  std::string wire_;
  std::string end_frame_;
  std::vector<double> lag_ms_;
  std::string error_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  double accept_wall_ = 0.0;
  double start_wall_ = 0.0;
  std::atomic<std::uint64_t> sent_{0};
  std::thread thread_;  // last: joined before the members it uses go
};

std::uint64_t live_fingerprint(const CaptureCorpus& corpus) {
  return journal::fnv1a64("sscor-perf live_wal|key=" +
                          journal::hex64(corpus.secret.key) +
                          "|wm=" + corpus.secret.watermark.to_string());
}

stream::DurabilityOptions live_durability(const std::string& state_dir) {
  stream::DurabilityOptions durability;
  durability.state_dir = state_dir;
  durability.snapshot_interval = 4096;  // watch default
  durability.fsync = false;
  return durability;
}

struct LiveRep {
  double setup_s = 0.0;
  double extract_s = 0.0;
  double construct_s = 0.0;
  double begin_fresh_s = 0.0;
  double loop_cpu_s = 0.0;
  double drain_s = 0.0;
  double resume_s = 0.0;
  double restore_s = 0.0;
  double peak_rss_mb = 0.0;
  std::uint64_t packets = 0;
  std::uint64_t late = 0;
  std::uint64_t commits = 0;
  std::uint64_t snapshots = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t backlog_max = 0;
  std::vector<StreamVerdict> committed;
  std::vector<StreamVerdict> recovered;
  /// Per early verdict: wall time from the deciding packet's due time to
  /// the return of its commit, and that latency's two parts: the feed's
  /// schedule (deciding packet's due time -> due time of the packet that
  /// closed its batch) and the daemon's response (receipt of the closing
  /// packet -> return of the commit) on the loop thread's CPU clock.
  std::vector<double> latency_ms;
  std::vector<double> schedule_ms;
  std::vector<double> response_cpu_ms;
  std::vector<double> lag_ms;
  stream::SocketSourceStats source;
  LoopTrace trace;
  std::vector<double> commit_us;
  std::vector<double> snapshot_ms;
};

/// One `watch --connect --state-dir` run against the scheduled feeder,
/// followed by a timed recovery from the state dir it leaves behind.
LiveRep live_once(const CaptureCorpus& corpus,
                  const std::vector<stream::StreamPacket>& packets,
                  const ArrivalOrder& order, const std::string& state_dir,
                  SpanRecorder& spans, bool traced) {
  LiveRep rep;
  std::filesystem::remove_all(state_dir);
  ScheduledFeeder feeder(packets, kOfferedRate);
  feeder.start();
  const bool rss_ok = reset_peak_rss();
  metrics::reset();
  const std::uint64_t root = spans.begin("live_wal.rep", "bench");

  const double t0 = wall_s();
  std::vector<WatermarkedFlow> upstreams;
  {
    const ScopedSpan span(spans, "flow.extract_upstreams", "flow", root);
    upstreams = load_upstreams(corpus.upstream_path, corpus.secret);
  }
  const double t1 = wall_s();
  stream::SocketSourceOptions socket_options;
  socket_options.endpoint = "127.0.0.1:" + std::to_string(feeder.port());
  stream::SocketPacketSource source(socket_options);
  stream::DurableSession session(live_durability(state_dir),
                                 live_fingerprint(corpus));
  const stream::StreamOptions options = watch_stream_options();
  std::unique_ptr<stream::StreamEngine> engine;
  {
    const ScopedSpan span(spans, "stream.engine.construct", "stream", root);
    engine = std::make_unique<stream::StreamEngine>(
        std::move(upstreams), watch_correlator_config(), options);
  }
  const double t2 = wall_s();
  {
    const ScopedSpan span(spans, "stream.durability.begin_fresh", "stream",
                          root);
    session.begin_fresh();
  }
  const double t3 = wall_s();
  rep.extract_s = t1 - t0;
  rep.construct_s = t2 - t1;
  rep.begin_fresh_s = t3 - t2;

  // Per committed verdict: wall and loop-CPU time its commit returned, the
  // packets ingested at its drain, and the loop CPU when the packet that
  // closed that batch was received.
  std::vector<double> commit_at, commit_cpu, closed_cpu;
  std::vector<std::uint64_t> closed_at;
  std::uint64_t ingested = 0;
  double boundary_cpu = 0.0;
  const std::uint64_t loop_span = spans.begin("stream.loop", "stream", root);
  const auto drain = [&] {
    std::vector<StreamVerdict> batch =
        traced ? timed(rep.trace.drain, [&] { return engine->drain_verdicts(); })
               : engine->drain_verdicts();
    for (auto& v : batch) {
      bool fresh = false;
      if (traced) {
        const ScopedSpan span(spans, "stream.durability.commit", "stream",
                              loop_span);
        const double w0 = wall_s();
        fresh = session.commit(v);
        rep.commit_us.push_back((wall_s() - w0) * 1e6);
        rep.trace.durability_s += rep.commit_us.back() * 1e-6;
      } else {
        fresh = session.commit(v);
      }
      if (!fresh) continue;
      rep.committed.push_back(std::move(v));
      commit_at.push_back(wall_s());
      commit_cpu.push_back(thread_cpu_s());
      closed_at.push_back(ingested);
      closed_cpu.push_back(boundary_cpu);
    }
  };
  const auto snapshot = [&] {
    if (!traced) {
      session.maybe_snapshot(*engine);
      return;
    }
    const std::uint64_t before = session.snapshots_written();
    const std::uint64_t span =
        spans.begin("stream.durability.snapshot", "stream", loop_span);
    const double w0 = wall_s();
    session.maybe_snapshot(*engine);
    const double ms = (wall_s() - w0) * 1e3;
    spans.end(span);
    rep.trace.durability_s += ms * 1e-3;
    if (session.snapshots_written() != before) rep.snapshot_ms.push_back(ms);
  };

  const double cpu0 = thread_cpu_s();
  while (true) {
    const std::optional<stream::StreamPacket> packet =
        traced ? timed(rep.trace.next, [&] { return source.next(); })
               : source.next();
    if (!packet) break;
    ++ingested;
    const bool boundary = ingested % options.batch_size == 0;
    if (boundary) boundary_cpu = thread_cpu_s();
    if (traced) {
      const std::uint64_t span =
          boundary ? spans.begin("stream.flush", "stream", loop_span) : 0;
      timed(boundary ? rep.trace.flush : rep.trace.route, [&] {
        engine->ingest(*packet);
        return 0;
      });
      spans.end(span);
    } else {
      engine->ingest(*packet);
    }
    if (boundary) {
      drain();
      snapshot();
      const std::uint64_t sent = feeder.sent();
      rep.backlog_max =
          std::max(rep.backlog_max, sent > ingested ? sent - ingested : 0);
      if (traced) {
        rep.trace.peak_buffered =
            std::max(rep.trace.peak_buffered, engine->buffered_packets());
        rep.trace.peak_live_flows = std::max<std::uint64_t>(
            rep.trace.peak_live_flows, engine->live_flows());
      }
    }
  }
  const double input_end_cpu = thread_cpu_s();
  {
    const ScopedSpan span(spans, "stream.finish", "stream", loop_span);
    if (traced) {
      timed(rep.trace.finish, [&] {
        engine->finish();
        return 0;
      });
    } else {
      engine->finish();
    }
  }
  const std::size_t before_finish = rep.committed.size();
  drain();
  const double last_cpu = thread_cpu_s();
  rep.loop_cpu_s = last_cpu - cpu0;
  spans.end(loop_span);
  feeder.join();
  require(feeder.error().empty(), feeder.error());
  rep.peak_rss_mb = rss_ok ? peak_rss_mb() : 0.0;
  rep.setup_s = feeder.accept_wall() - t0;
  rep.drain_s = last_cpu - input_end_cpu;
  rep.packets = engine->packets_ingested();
  rep.late = late_packets();
  rep.source = source.stats();
  rep.commits = session.commits();
  rep.snapshots = session.snapshots_written();
  rep.wal_bytes = std::filesystem::file_size(session.wal_path());
  if (std::filesystem::exists(session.snapshot_path())) {
    rep.snapshot_bytes = std::filesystem::file_size(session.snapshot_path());
  }
  rep.lag_ms = feeder.lag_ms();
  for (std::size_t k = 0; k < before_finish; ++k) {
    const StreamVerdict& v = rep.committed[k];
    if (!v.early) continue;
    const std::size_t decider = order.deciding(v, options.min_packets);
    require(decider < closed_at[k], "verdict surfaced before its packet");
    const double due = feeder.due(decider);
    rep.latency_ms.push_back((commit_at[k] - due) * 1e3);
    rep.schedule_ms.push_back((feeder.due(closed_at[k] - 1) - due) * 1e3);
    rep.response_cpu_ms.push_back((commit_cpu[k] - closed_cpu[k]) * 1e3);
  }

  // Recovery: what `watch --resume` does first, on this run's state dir.
  {
    std::vector<WatermarkedFlow> again =
        load_upstreams(corpus.upstream_path, corpus.secret);
    stream::StreamEngine restored(std::move(again), watch_correlator_config(),
                                  options);
    stream::DurableSession recovery(live_durability(state_dir),
                                    live_fingerprint(corpus));
    const ScopedSpan span(spans, "stream.durability.recover", "stream", root);
    const double r0 = wall_s();
    stream::ResumeState state = recovery.resume();
    const double r1 = wall_s();
    if (state.have_snapshot) restored.restore(state.snapshot);
    const double r2 = wall_s();
    rep.resume_s = r1 - r0;
    rep.restore_s = r2 - r1;
    rep.recovered = std::move(state.committed);
  }
  spans.end(root);
  return rep;
}

/// The in-memory reference: the same packets through the same loop with
/// no socket and no session.
std::vector<StreamVerdict> replay_in_memory(
    const CaptureCorpus& corpus,
    const std::vector<stream::StreamPacket>& packets) {
  const stream::StreamOptions options = watch_stream_options();
  stream::StreamEngine engine(load_upstreams(corpus.upstream_path,
                                             corpus.secret),
                              watch_correlator_config(), options);
  std::vector<StreamVerdict> verdicts;
  const auto drain = [&] {
    for (auto& v : engine.drain_verdicts()) verdicts.push_back(std::move(v));
  };
  for (const auto& p : packets) {
    engine.ingest(p);
    if (engine.packets_ingested() % options.batch_size == 0) drain();
  }
  engine.finish();
  drain();
  return verdicts;
}

std::uint64_t stream_mismatches(const std::vector<StreamVerdict>& got,
                                const std::vector<StreamVerdict>& want) {
  std::uint64_t bad = got.size() > want.size() ? got.size() - want.size()
                                               : want.size() - got.size();
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    if (stream::encode_verdict(got[i]) != stream::encode_verdict(want[i])) {
      ++bad;
    }
  }
  return bad;
}

}  // namespace

RunResult run_watch_replay(const WorkloadOptions& opt) {
  RunResult out;
  CaptureCorpusConfig config;
  config.seed = opt.seed;
  const CaptureCorpus corpus =
      write_capture_corpus(config, opt.work_dir + "/watch_replay");

  SpanRecorder untraced(false);
  std::vector<double> setup, drain, rss, lat50, lat99, cpu;
  SpeedGauge gauge;
  std::uint64_t packets = 0;  // every rep ingests the same capture
  std::vector<StreamVerdict> first;
  const double start = wall_s();
  for (int rep = 0; rep < 3 || wall_s() - start < opt.seconds; ++rep) {
    gauge.sample();
    ReplayRep r = replay_once(corpus, untraced, false);
    packets = r.packets;
    setup.push_back(r.setup_s);
    cpu.push_back(r.loop_cpu_s);
    drain.push_back(r.drain_s);
    rss.push_back(r.peak_rss_mb);
    lat50.push_back(quantile(r.latency_ms, 0.5));
    lat99.push_back(quantile(r.latency_ms, 0.99));
    const VerdictTally t = tally(r.verdicts);
    record_tally(out, rep, t, r.packets, verdict_digest(r.verdicts));
    std::fprintf(stderr,
                 "watch_replay rep %d: %llu packets, %.3f s cpu, setup %.3f s, "
                 "drain %.3f s, latency p50 %.3f ms p99 %.3f ms (%zu), "
                 "calibration %.3f s\n",
                 rep, static_cast<unsigned long long>(r.packets), r.loop_cpu_s,
                 r.setup_s, r.drain_s, lat50.back(), lat99.back(),
                 r.latency_ms.size(), gauge.kernel_s());
    if (rep == 0) first = std::move(r.verdicts);
  }
  // A repetition takes seconds, the start-up path a fraction of one: time
  // the start-up alone until the median rests on enough samples.
  while (setup.size() < kMinSetupSamples) {
    setup.push_back(setup_replay(corpus, untraced, 0).total_s());
  }

  const VerdictTally t = tally(first);
  std::vector<net::FiveTuple> up_tuples;
  const auto upstreams =
      load_upstreams(corpus.upstream_path, corpus.secret, &up_tuples);
  const PairCheck check =
      check_against_batch(corpus, upstreams, up_tuples, first, opt.seed, 256,
                          out);

  const double scale = gauge.scale();
  out.e2e("packets_per_cpu_s",
          static_cast<double>(packets) / (mean(cpu) * scale), "1/s");
  out.e2e("detections_per_cpu_s",
          static_cast<double>(first.size()) / (mean(cpu) * scale), "1/s");
  out.e2e("verdict_latency_p50_ms", mean(lat50) * scale, "ms");
  out.e2e("verdict_latency_p99_ms", mean(lat99) * scale, "ms");
  out.e2e("drain_s", mean(drain) * scale, "s");
  out.e2e("setup_s", median(setup) * scale, "s");
  out.e2e("peak_rss_mb", median(rss), "MiB");
  out.e2e("packets_accessed", static_cast<double>(t.packets_accessed),
          "count");
  report_rates(out, check);
  out.stamp["corpus"] = std::to_string(config.carriers) + " carriers + " +
                        std::to_string(config.decoys) + " decoys";
  out.stamp["reps"] = std::to_string(cpu.size());
  out.stamp["calibration_s"] = exact(gauge.kernel_s());

  if (opt.trace) {
    SpanRecorder spans(true);
    const ReplayRep r = replay_once(corpus, spans, true);
    spans.write_chrome_json(opt.span_path);
    report_loop_trace(out, r.trace, r.loop_cpu_s);
    report_verdict_layers(out, tally(r.verdicts), r.packets, r.late);
    out.layer("flow.extract_upstreams_s", r.extract_s, "s");
    out.layer("pcap.replay_load_s", r.replay_load_s, "s");
    out.layer("stream.engine.construct_s", r.construct_s, "s");
    out.layer("bench.trace_overhead_share",
              r.loop_cpu_s / mean(cpu) - 1.0, "share");
    out.layer("bench.calibration_ms", gauge.kernel_s() * 1e3, "ms");
    if (verdict_digest(r.verdicts) != out.deterministic["verdict_digest"]) {
      out.errors.push_back("traced repetition changed the verdict stream");
    }
  }
  return out;
}

RunResult run_live_wal(const WorkloadOptions& opt) {
  RunResult out;
  CaptureCorpusConfig config;
  config.seed = opt.seed;
  config.carriers = 2;
  config.decoys = 1500;
  config.decoy_packets = 60;
  config.decoy_start_spread = seconds(std::int64_t{600});
  const std::string dir = opt.work_dir + "/live_wal";
  const CaptureCorpus corpus = write_capture_corpus(config, dir);
  const std::vector<stream::StreamPacket> packets =
      read_replay(corpus.downstream_path);
  const ArrivalOrder order(packets);
  const std::string state_dir = dir + "/state";

  SpanRecorder untraced(false);
  std::vector<double> setup, drain, rss, cpu;
  std::vector<std::vector<double>> schedule, response;  // per rep
  SpeedGauge gauge;
  std::uint64_t ingested = 0;  // every rep ingests the same feed
  std::size_t latency_samples = 0;
  std::vector<double> resume, restore;
  std::vector<StreamVerdict> first;
  const double start = wall_s();
  for (int rep = 0; rep < 3 || wall_s() - start < opt.seconds; ++rep) {
    gauge.sample();
    LiveRep r = live_once(corpus, packets, order, state_dir, untraced, false);
    ingested = r.packets;
    setup.push_back(r.setup_s);
    cpu.push_back(r.loop_cpu_s);
    drain.push_back(r.drain_s);
    rss.push_back(r.peak_rss_mb);
    resume.push_back(r.resume_s);
    restore.push_back(r.restore_s);
    schedule.push_back(r.schedule_ms);
    response.push_back(r.response_cpu_ms);
    latency_samples = std::min(latency_samples == 0 ? r.latency_ms.size()
                                                    : latency_samples,
                               r.latency_ms.size());
    const VerdictTally t = tally(r.committed);
    record_tally(out, rep, t, r.packets, verdict_digest(r.committed));
    record_exact(out, rep, "durability.commits", std::to_string(r.commits));
    record_exact(out, rep, "durability.snapshots",
                 std::to_string(r.snapshots));
    record_exact(out, rep, "durability.wal_bytes",
                 std::to_string(r.wal_bytes));
    out.fail(stream_mismatches(r.recovered, r.committed),
             "recovered WAL differs from the committed verdict stream");
    if (r.source.bytes_quarantined != 0 || r.source.resyncs != 0 ||
        r.source.reconnect_attempts != 0 || r.source.connects != 1 ||
        !r.source.ended_cleanly) {
      out.errors.push_back("feed was not clean: " +
                           std::to_string(r.source.bytes_quarantined) +
                           " bytes quarantined, " +
                           std::to_string(r.source.resyncs) + " resyncs, " +
                           std::to_string(r.source.connects) + " connects");
    }
    std::fprintf(stderr,
                 "live_wal rep %d: %llu packets, %.3f s cpu, setup %.3f s, "
                 "drain %.3f s, resume %.3f+%.3f s, latency p50 %.3f ms "
                 "p99 %.3f ms (%zu), backlog max %llu, lag p99 %.3f ms, "
                 "%llu snapshots, calibration %.3f s\n",
                 rep, static_cast<unsigned long long>(r.packets),
                 r.loop_cpu_s, r.setup_s, r.drain_s, r.resume_s, r.restore_s,
                 quantile(r.latency_ms, 0.5), quantile(r.latency_ms, 0.99),
                 r.latency_ms.size(),
                 static_cast<unsigned long long>(r.backlog_max),
                 quantile(r.lag_ms, 0.99),
                 static_cast<unsigned long long>(r.snapshots),
                 gauge.kernel_s());
    if (rep == 0) first = std::move(r.committed);
  }

  out.fail(stream_mismatches(first, replay_in_memory(corpus, packets)),
           "committed verdict stream differs from the in-memory replay");
  std::vector<net::FiveTuple> up_tuples;
  const auto upstreams =
      load_upstreams(corpus.upstream_path, corpus.secret, &up_tuples);
  const PairCheck check = check_against_batch(corpus, upstreams, up_tuples,
                                              first, opt.seed, 256, out);
  if (latency_samples < 1000) {
    out.errors.push_back("a repetition had fewer than 1000 latency samples: " +
                         std::to_string(latency_samples));
  }

  const VerdictTally t = tally(first);
  // A verdict waits for its batch to fill (up to 6.4 ms at the offered
  // rate), then for the daemon's response.  The wait is the feed's
  // schedule and stays as sent.  The response, like drain_s and the loop's
  // CPU, is daemon work, read on the loop thread's CPU clock and taken at
  // reference speed: on the wall clock its tail was set by spells in which
  // the host ran neither the feeder nor the daemon on time.  The
  // quantiles are medians over repetitions.
  const double scale = gauge.scale();
  std::vector<double> lat50, lat99;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    std::vector<double> scaled(schedule[i].size());
    for (std::size_t k = 0; k < scaled.size(); ++k) {
      scaled[k] = schedule[i][k] + response[i][k] * scale;
    }
    lat50.push_back(quantile(scaled, 0.5));
    lat99.push_back(quantile(scaled, 0.99));
    std::fprintf(stderr, "live_wal rep %zu at reference speed: latency p50 "
                 "%.3f ms p99 %.3f ms\n", i, lat50.back(), lat99.back());
  }
  out.e2e("packets_per_cpu_s",
          static_cast<double>(ingested) / (mean(cpu) * scale), "1/s");
  out.e2e("detections_per_cpu_s",
          static_cast<double>(first.size()) / (mean(cpu) * scale), "1/s");
  out.e2e("verdict_latency_p50_ms", median(lat50), "ms");
  out.e2e("verdict_latency_p99_ms", median(lat99), "ms");
  out.e2e("drain_s", mean(drain) * scale, "s");
  out.e2e("setup_s", median(setup) * scale, "s");
  out.e2e("peak_rss_mb", median(rss), "MiB");
  out.e2e("packets_accessed", static_cast<double>(t.packets_accessed),
          "count");
  report_rates(out, check);
  out.stamp["corpus"] = std::to_string(config.carriers) + " carriers + " +
                        std::to_string(config.decoys) + " decoys";
  out.stamp["offered_rate_pps"] = exact(kOfferedRate);
  out.stamp["reps"] = std::to_string(setup.size());
  out.stamp["calibration_s"] = exact(gauge.kernel_s());
  out.stamp["latency_samples_per_rep"] = std::to_string(latency_samples);

  if (opt.trace) {
    SpanRecorder spans(true);
    const LiveRep r =
        live_once(corpus, packets, order, state_dir, spans, true);
    spans.write_chrome_json(opt.span_path);
    report_loop_trace(out, r.trace, r.loop_cpu_s);
    report_verdict_layers(out, tally(r.committed), r.packets, r.late);
    out.layer("flow.extract_upstreams_s", r.extract_s, "s");
    out.layer("stream.engine.construct_s", r.construct_s, "s");
    out.layer("stream.durability.begin_fresh_s", r.begin_fresh_s, "s");
    out.layer("stream.source.backlog_max_packets",
              static_cast<double>(r.backlog_max), "count");
    out.layer("stream.source.reconnects",
              static_cast<double>(r.source.reconnect_attempts +
                                  r.source.connects - 1),
              "count");
    out.layer("stream.frame.quarantined_bytes",
              static_cast<double>(r.source.bytes_quarantined), "count");
    out.layer("stream.frame.resyncs", static_cast<double>(r.source.resyncs),
              "count");
    out.layer("stream.durability.commit_us_p50", quantile(r.commit_us, 0.5),
              "us");
    out.layer("stream.durability.commit_us_p99", quantile(r.commit_us, 0.99),
              "us");
    out.layer("stream.durability.commits", static_cast<double>(r.commits),
              "count");
    out.layer("stream.durability.wal_bytes", static_cast<double>(r.wal_bytes),
              "count");
    out.layer("stream.durability.snapshot_ms_p50",
              quantile(r.snapshot_ms, 0.5), "ms");
    out.layer("stream.durability.snapshot_ms_max",
              quantile(r.snapshot_ms, 1.0), "ms");
    out.layer("stream.durability.snapshots", static_cast<double>(r.snapshots),
              "count");
    out.layer("stream.durability.snapshot_bytes",
              static_cast<double>(r.snapshot_bytes), "count");
    out.layer("stream.durability.resume_s", r.resume_s, "s");
    out.layer("stream.engine.restore_s", r.restore_s, "s");
    out.layer("bench.feeder.lag_p99_ms", quantile(r.lag_ms, 0.99), "ms");
    out.layer("bench.trace_overhead_share",
              r.loop_cpu_s / mean(cpu) - 1.0, "share");
    out.layer("bench.calibration_ms", gauge.kernel_s() * 1e3, "ms");
    if (verdict_digest(r.committed) != out.deterministic["verdict_digest"]) {
      out.errors.push_back("traced repetition changed the verdict stream");
    }

    // The frame layer, timed alone over the exact bytes the feeder sent,
    // in the socket source's 4096-byte reads.
    std::vector<std::size_t> offsets;
    const std::string wire = encode_feed(packets, offsets) + stream::encode_end();
    stream::FrameParser parser;
    std::uint64_t frames = 0;
    const double c0 = thread_cpu_s();
    for (std::size_t off = 0; off < wire.size(); off += 4096) {
      parser.feed(std::string_view(wire).substr(off, 4096));
      while (parser.next()) ++frames;
    }
    const double parse_cpu = thread_cpu_s() - c0;
    out.layer("stream.frame.parse_mb_per_cpu_s",
              static_cast<double>(wire.size()) / 1e6 / parse_cpu, "MB/s");
    if (frames != packets.size() + 2 || parser.bytes_quarantined() != 0) {
      out.errors.push_back("frame parser did not reproduce the feed");
    }
  }
  return out;
}

}  // namespace sscor::perf
