// paper_eval: experiment::evaluate_point at one operating point of the
// paper (Delta = 7 s, lambda_c = 3 pkt/s, 91 interactive flows x 1000
// packets, 2000 uncorrelated pairs, the five paper_detectors, one thread).
//
// The timed repetitions call evaluate_point itself.  A second pass makes
// the same calls evaluate_point makes, in the same order
// (Dataset::downstream, MatchContext::build, Detector::detect_with_context
// per detector), timing each pair; its outcomes must equal
// evaluate_point's.  A third pass decides every pair again with the
// context-free Detector::detect and must agree pair by pair, cost
// included.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "sscor/experiment/dataset.hpp"
#include "sscor/experiment/evaluation.hpp"
#include "sscor/matching/match_context.hpp"
#include "sscor/util/error.hpp"
#include "sscor/util/metrics.hpp"
#include "workloads.hpp"

namespace sscor::perf {
namespace {

using experiment::Dataset;
using experiment::DetectorMetrics;

/// Metric-name suffixes of paper_detectors() in line-up order ('+' and '*'
/// are not allowed in metric names).
constexpr const char* kDetectorNames[] = {"greedy", "greedy_plus",
                                          "greedy_star", "basic", "zhang"};
constexpr const char* kDetectorLayers[] = {"correlation", "correlation",
                                           "correlation", "baselines",
                                           "baselines"};
constexpr std::size_t kDetectors = 5;

experiment::ExperimentConfig paper_config(std::uint64_t seed) {
  experiment::ExperimentConfig config;  // 91 x 1000, 2000 FP pairs
  config.corpus = experiment::Corpus::kInteractive;
  config.master_seed = seed;
  config.threads = 1;
  return config;
}

experiment::EvaluationRequest paper_request() {
  experiment::EvaluationRequest request;
  request.max_delay = seconds(std::int64_t{7});
  request.chaff_rate = 3.0;
  return request;
}

/// One pair to decide: upstream i against downstream j (i == j: true pair).
struct PairRef {
  std::size_t up = 0;
  std::size_t down = 0;
  bool correlated_truth = false;
};

std::vector<PairRef> evaluation_pairs(const Dataset& dataset) {
  std::vector<PairRef> pairs;
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    pairs.push_back(PairRef{i, i, true});
  }
  for (const auto& [i, j] :
       dataset.sample_fp_pairs(dataset.config().fp_pairs)) {
    pairs.push_back(PairRef{i, j, false});
  }
  return pairs;
}

/// Exact per-detector aggregates, comparable with evaluate_point's.
struct Aggregate {
  std::uint64_t detected = 0;         // true pairs reported correlated
  std::uint64_t false_positives = 0;  // other pairs reported correlated
  std::uint64_t cost_correlated = 0;
  std::uint64_t cost_uncorrelated = 0;

  bool operator==(const Aggregate&) const = default;
  std::string to_string() const {
    return std::to_string(detected) + "/" + std::to_string(false_positives) +
           "/" + std::to_string(cost_correlated) + "/" +
           std::to_string(cost_uncorrelated);
  }
};

Aggregate from_metrics(const DetectorMetrics& m, std::size_t true_pairs,
                       std::size_t other_pairs) {
  Aggregate a;
  a.detected = static_cast<std::uint64_t>(
      std::llround(m.detection_rate * static_cast<double>(true_pairs)));
  a.false_positives = static_cast<std::uint64_t>(
      std::llround(m.false_positive_rate * static_cast<double>(other_pairs)));
  a.cost_correlated =
      static_cast<std::uint64_t>(std::llround(m.cost_correlated.sum()));
  a.cost_uncorrelated =
      static_cast<std::uint64_t>(std::llround(m.cost_uncorrelated.sum()));
  return a;
}

/// What the explicit pair pass observed.
struct PairPass {
  std::vector<std::vector<DetectionOutcome>> outcomes;  // [pair][detector]
  std::vector<double> pair_ms;
  std::uint64_t downstream_packets = 0;  // summed over evaluated pairs
  // Traced ledger.
  double downstream_gen_cpu_s = 0.0;
  double context_build_cpu_s = 0.0;
  std::uint64_t context_builds = 0;
  double detect_cpu_s[kDetectors] = {};
  std::uint64_t detect_cost[kDetectors] = {};
  double cpu_s = 0.0;
};

/// The calls evaluate_point makes, in its order, timed from outside.
PairPass pair_pass(const Dataset& dataset,
                   const std::vector<std::unique_ptr<Detector>>& detectors,
                   const std::vector<PairRef>& pairs, SpanRecorder& spans) {
  const auto request = paper_request();
  PairPass pass;
  const double cpu_start = thread_cpu_s();
  const std::uint64_t root = spans.begin("paper_eval.pair_pass", "bench");
  std::vector<Flow> downstream(dataset.size());
  {
    const ScopedSpan span(spans, "traffic.downstream_gen", "traffic", root);
    const double c0 = thread_cpu_s();
    for (std::size_t i = 0; i < dataset.size(); ++i) {
      downstream[i] =
          dataset.downstream(i, request.max_delay, request.chaff_rate);
    }
    pass.downstream_gen_cpu_s = thread_cpu_s() - c0;
  }
  pass.outcomes.assign(pairs.size(), {});
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    const PairRef& p = pairs[k];
    const WatermarkedFlow& up = dataset.upstream(p.up);
    const Flow& down = downstream[p.down];
    pass.downstream_packets += down.size();
    const std::uint64_t pair_span = spans.begin("experiment.pair", "experiment",
                                                root);
    const double w0 = wall_s();
    std::vector<std::pair<MatchContextKey, MatchContext>> contexts;
    for (std::size_t d = 0; d < detectors.size(); ++d) {
      const auto key = detectors[d]->shared_match_key();
      const MatchContext* context = nullptr;
      if (key) {
        for (const auto& [k2, ctx] : contexts) {
          if (k2 == *key) context = &ctx;
        }
        if (context == nullptr) {
          const ScopedSpan span(spans, "matching.context_build", "matching",
                                pair_span);
          const double c0 = thread_cpu_s();
          contexts.emplace_back(*key,
                                MatchContext::build(up.flow, down,
                                                    key->max_delay, key->size));
          pass.context_build_cpu_s += thread_cpu_s() - c0;
          ++pass.context_builds;
          context = &contexts.back().second;
        }
      }
      const ScopedSpan span(spans, kDetectorNames[d], kDetectorLayers[d],
                            pair_span);
      const double c0 = thread_cpu_s();
      pass.outcomes[k].push_back(
          detectors[d]->detect_with_context(up, down, context));
      pass.detect_cpu_s[d] += thread_cpu_s() - c0;
      pass.detect_cost[d] += pass.outcomes[k].back().cost;
    }
    pass.pair_ms.push_back((wall_s() - w0) * 1e3);
    spans.end(pair_span);
  }
  spans.end(root);
  pass.cpu_s = thread_cpu_s() - cpu_start;
  return pass;
}

std::vector<Aggregate> aggregate(const PairPass& pass,
                                 const std::vector<PairRef>& pairs) {
  std::vector<Aggregate> out(kDetectors);
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    for (std::size_t d = 0; d < kDetectors; ++d) {
      const DetectionOutcome& o = pass.outcomes[k][d];
      if (pairs[k].correlated_truth) {
        out[d].detected += o.correlated ? 1 : 0;
        out[d].cost_correlated += o.cost;
      } else {
        out[d].false_positives += o.correlated ? 1 : 0;
        out[d].cost_uncorrelated += o.cost;
      }
    }
  }
  return out;
}

}  // namespace

RunResult run_paper_eval(const WorkloadOptions& opt) {
  RunResult out;
  const auto config = paper_config(opt.seed);
  const auto request = paper_request();

  std::vector<double> setup, rss, cpu;
  SpeedGauge gauge;
  std::vector<Aggregate> reference_aggregates;
  const std::size_t true_pairs = config.flows;
  const std::size_t other_pairs = config.fp_pairs;
  const double start = wall_s();
  for (int rep = 0; rep < 3 || wall_s() - start < opt.seconds; ++rep) {
    gauge.sample();
    const bool rss_ok = reset_peak_rss();
    metrics::reset();
    const double t0 = wall_s();
    const Dataset dataset = Dataset::build(config);
    const auto detectors = experiment::paper_detectors(config, request.max_delay);
    setup.push_back(wall_s() - t0);
    const double c0 = thread_cpu_s();
    const std::vector<DetectorMetrics> metrics =
        experiment::evaluate_point(dataset, detectors, request);
    cpu.push_back(thread_cpu_s() - c0);
    rss.push_back(rss_ok ? peak_rss_mb() : 0.0);

    if (metrics.size() != kDetectors) {
      out.errors.push_back("paper_detectors() no longer has five detectors");
      return out;
    }
    std::vector<Aggregate> aggregates;
    for (std::size_t d = 0; d < kDetectors; ++d) {
      aggregates.push_back(from_metrics(metrics[d], true_pairs, other_pairs));
      record_exact(out, rep, std::string("eval.") + kDetectorNames[d],
                   aggregates.back().to_string());
    }
    if (rep == 0) reference_aggregates = aggregates;
    std::fprintf(stderr,
                 "paper_eval rep %d: setup %.3f s, evaluate_point %.3f s cpu, "
                 "calibration %.3f s\n",
                 rep, setup.back(), cpu.back(), gauge.kernel_s());
  }

  // Checks (untimed): the explicit pass equals evaluate_point, and the
  // context-free detect agrees with it pair by pair.
  const Dataset dataset = Dataset::build(config);
  const auto detectors = experiment::paper_detectors(config, request.max_delay);
  const auto pairs = evaluation_pairs(dataset);
  require(pairs.size() == true_pairs + other_pairs,
          "evaluate_point's pair count changed");
  SpanRecorder untraced(false);
  const PairPass pass = pair_pass(dataset, detectors, pairs, untraced);
  const std::vector<Aggregate> explicit_aggregates = aggregate(pass, pairs);
  out.attempted = pairs.size() * kDetectors;
  for (std::size_t d = 0; d < kDetectors; ++d) {
    if (!(explicit_aggregates[d] == reference_aggregates[d])) {
      out.fail(pairs.size(), std::string("evaluate_point disagrees with the "
                                         "explicit pass for ") +
                                 kDetectorNames[d] + ": " +
                                 reference_aggregates[d].to_string() + " vs " +
                                 explicit_aggregates[d].to_string());
    }
  }
  std::vector<Flow> downstream = dataset.downstream_all(request.max_delay,
                                                        request.chaff_rate);
  std::uint64_t mismatches = 0;
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    for (std::size_t d = 0; d < kDetectors; ++d) {
      const DetectionOutcome cold = detectors[d]->detect(
          dataset.upstream(pairs[k].up), downstream[pairs[k].down]);
      const DetectionOutcome& warm = pass.outcomes[k][d];
      if (cold.correlated != warm.correlated || cold.cost != warm.cost) {
        ++mismatches;
      }
    }
  }
  out.fail(mismatches, "context-free detect disagrees with the shared-context "
                       "pass");

  std::uint64_t accessed = 0;
  std::uint64_t detected = 0;
  std::uint64_t rejected = 0;
  for (const auto& a : explicit_aggregates) {
    accessed += a.cost_correlated + a.cost_uncorrelated;
    detected += a.detected;
    rejected += other_pairs - a.false_positives;
  }
  record_exact(out, 0, "packets_accessed", std::to_string(accessed));
  // evaluate_point runs on the calling thread (threads = 1) and hands every
  // decision back when it returns, so each decision waits the whole call:
  // the latency quantiles and drain_s are all its CPU time.  The per-pair
  // split is a traced-run layer row.
  const double eval_s = mean(cpu) * gauge.scale();
  out.e2e("packets_per_cpu_s",
          static_cast<double>(pass.downstream_packets) / eval_s, "1/s");
  out.e2e("detections_per_cpu_s",
          static_cast<double>(pairs.size() * kDetectors) / eval_s, "1/s");
  out.e2e("verdict_latency_p50_ms", eval_s * 1e3, "ms");
  out.e2e("verdict_latency_p99_ms", eval_s * 1e3, "ms");
  out.e2e("drain_s", eval_s, "s");
  out.e2e("setup_s", median(setup) * gauge.scale(), "s");
  out.e2e("peak_rss_mb", median(rss), "MiB");
  out.e2e("packets_accessed", static_cast<double>(accessed), "count");
  out.e2e("detection_rate",
          static_cast<double>(detected) /
              static_cast<double>(true_pairs * kDetectors),
          "share");
  out.e2e("true_negative_rate",
          static_cast<double>(rejected) /
              static_cast<double>(other_pairs * kDetectors),
          "share");
  out.stamp["operating_point"] = "delta=7s chaff=3pkt/s flows=91x1000 "
                                 "fp_pairs=2000 threads=1";
  out.stamp["reps"] = std::to_string(setup.size());
  out.stamp["calibration_s"] = exact(gauge.kernel_s());

  if (opt.trace) {
    SpanRecorder spans(true);
    const double t0 = wall_s();
    Dataset traced_dataset = [&] {
      const ScopedSpan span(spans, "experiment.dataset_build", "experiment");
      return Dataset::build(config);
    }();
    out.layer("experiment.dataset_build_s", wall_s() - t0, "s");
    const PairPass traced = pair_pass(traced_dataset, detectors, pairs, spans);
    spans.write_chrome_json(opt.span_path);
    const auto traced_aggregates = aggregate(traced, pairs);
    for (std::size_t d = 0; d < kDetectors; ++d) {
      if (!(traced_aggregates[d] == reference_aggregates[d])) {
        out.errors.push_back(std::string("traced pass disagrees with "
                                         "evaluate_point for ") +
                             kDetectorNames[d]);
      }
      const std::string layer = kDetectorLayers[d];
      out.layer(layer + ".detect_cpu_s." + kDetectorNames[d],
                traced.detect_cpu_s[d], "s");
      out.layer(layer + ".packets_accessed." + kDetectorNames[d],
                static_cast<double>(traced.detect_cost[d]), "count");
    }
    out.layer("experiment.pair_wall_ms_p50", quantile(pass.pair_ms, 0.5),
              "ms");
    out.layer("experiment.pair_wall_ms_p99", quantile(pass.pair_ms, 0.99),
              "ms");
    out.layer("traffic.downstream_gen_cpu_s", traced.downstream_gen_cpu_s, "s");
    out.layer("matching.context_build_cpu_s", traced.context_build_cpu_s, "s");
    out.layer("matching.context_builds",
              static_cast<double>(traced.context_builds), "count");
    out.layer("bench.trace_overhead_share", traced.cpu_s / mean(cpu) - 1.0,
              "share");
    out.layer("bench.calibration_ms", gauge.kernel_s() * 1e3, "ms");
  }
  return out;
}

}  // namespace sscor::perf
