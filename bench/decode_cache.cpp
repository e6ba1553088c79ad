// Decode-cache throughput: cold vs shared MatchContext per-pair detection.
//
// The evaluation pipeline runs several correlators over every flow pair;
// each cold run repeats the watermark-independent matching phase (window
// scan + candidate-set build + pruning).  This bench times the 3-correlator
// loop (Greedy, Greedy+, Greedy*) on the same pairs twice — once cold
// (each correlator matches and decodes on the scalar runners) and once
// sharing a per-pair MatchContext (matching built once, replayed by every
// correlator, each decode on the batched SoA engine) — verifies the
// CorrelationResults are field-identical including the paper's cost
// metric (the cost-replay invariant), and records the per-detect speedup
// as JSON.
//
//   decode_cache [--pairs=N] [--packets=N] [--reps=N] [--json=PATH]
//                                       (default BENCH_decode_cache.json)
//
// Both phases run once untimed as a warm-up, then --reps timed passes
// each; the reported ns/detect is the fastest pass per phase, which
// rejects scheduler noise on a shared machine.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "sscor/correlation/correlator.hpp"
#include "sscor/matching/match_context.hpp"
#include "sscor/traffic/chaff.hpp"
#include "sscor/traffic/interactive_model.hpp"
#include "sscor/traffic/perturbation.hpp"
#include "sscor/util/json.hpp"
#include "sscor/util/metrics.hpp"
#include "sscor/watermark/embedder.hpp"

namespace {

using namespace sscor;

bool same_result(const CorrelationResult& a, const CorrelationResult& b) {
  return a.algorithm == b.algorithm && a.correlated == b.correlated &&
         a.hamming == b.hamming && a.best_watermark == b.best_watermark &&
         a.cost == b.cost && a.matching_complete == b.matching_complete &&
         a.cost_bound_hit == b.cost_bound_hit;
}

double elapsed_s(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t pairs = 24;
  std::size_t packets = 3000;
  std::size_t reps = 5;
  std::string json_path = "BENCH_decode_cache.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--pairs=", 0) == 0) {
      pairs = std::strtoull(arg.c_str() + 8, nullptr, 10);
    } else if (arg.rfind("--packets=", 0) == 0) {
      packets = std::strtoull(arg.c_str() + 10, nullptr, 10);
    } else if (arg.rfind("--reps=", 0) == 0) {
      reps = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--pairs=N] [--packets=N] [--reps=N] "
                   "[--json=PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (reps == 0) reps = 1;

  constexpr DurationUs kDelta = seconds(std::int64_t{7});
  constexpr double kChaffRate = 5.0;

  const traffic::InteractiveSessionModel model;
  const Embedder embedder(WatermarkParams{}, 0xbeef);
  Rng rng(0x5151);

  // Half the pairs are correlated (upstream i vs its own perturbed+chaffed
  // downstream), half mismatched (vs the next trace's downstream), so both
  // the full-decode and the matching-reject paths are on the clock.
  std::vector<WatermarkedFlow> marked;
  std::vector<Flow> downstream;
  for (std::size_t i = 0; i < pairs; ++i) {
    const auto seed = static_cast<std::uint64_t>(5000 + i);
    const Flow flow = model.generate(packets, 0, seed);
    marked.push_back(embedder.embed(flow, Watermark::random(24, rng)));
    const traffic::UniformPerturber perturber(kDelta, seed + 17);
    const traffic::PoissonChaffInjector chaff(kChaffRate, seed + 29);
    downstream.push_back(chaff.apply(perturber.apply(marked.back().flow)));
  }
  auto down_of = [&](std::size_t i) -> const Flow& {
    return downstream[i % 2 == 0 ? i : (i + 1) % pairs];
  };

  const CorrelatorConfig config;  // Delta = 7s, h = 7, bound = 10^6
  const std::vector<Correlator> correlators = {
      Correlator(config, Algorithm::kGreedy),
      Correlator(config, Algorithm::kGreedyPlus),
      Correlator(config, Algorithm::kGreedyStar)};

  std::printf("== decode_cache: cold vs shared MatchContext ==\n");
  std::printf(
      "pairs: %zu | packets/flow: %zu | Delta=7s | lambda_c=%.0f | "
      "reps=%zu\n",
      pairs, packets, kChaffRate, reps);

  const std::size_t detects = pairs * correlators.size();
  std::vector<CorrelationResult> cold(detects);
  std::vector<CorrelationResult> shared(detects);

  auto cold_pass = [&] {
    for (std::size_t i = 0; i < pairs; ++i) {
      for (std::size_t c = 0; c < correlators.size(); ++c) {
        cold[i * correlators.size() + c] =
            correlators[c].correlate(marked[i], down_of(i));
      }
    }
  };
  auto shared_pass = [&] {
    for (std::size_t i = 0; i < pairs; ++i) {
      const MatchContext context =
          MatchContext::build(marked[i].flow, down_of(i), config.max_delay,
                              config.size_constraint);
      for (std::size_t c = 0; c < correlators.size(); ++c) {
        shared[i * correlators.size() + c] =
            correlators[c].correlate(marked[i], down_of(i), &context);
      }
    }
  };

  // Untimed warm-up, then alternating timed passes; keep the fastest of
  // each so transient scheduler noise cannot bias either phase.
  cold_pass();
  shared_pass();
  const std::uint64_t hits0 = metrics::counter("match_context.hits").value();
  const std::uint64_t miss0 = metrics::counter("match_context.misses").value();
  double cold_s = 0.0;
  double shared_s = 0.0;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto cold_start = std::chrono::steady_clock::now();
    cold_pass();
    const double cs = elapsed_s(cold_start);
    const auto shared_start = std::chrono::steady_clock::now();
    shared_pass();
    const double ss = elapsed_s(shared_start);
    if (r == 0 || cs < cold_s) cold_s = cs;
    if (r == 0 || ss < shared_s) shared_s = ss;
  }
  const std::uint64_t hits = metrics::counter("match_context.hits").value() -
                             hits0;
  const std::uint64_t misses =
      metrics::counter("match_context.misses").value() - miss0;

  bool identical = true;
  for (std::size_t k = 0; k < detects; ++k) {
    if (!same_result(cold[k], shared[k])) {
      identical = false;
      std::fprintf(stderr,
                   "MISMATCH pair %zu %s: cold/shared results differ\n",
                   k / correlators.size(),
                   to_string(cold[k].algorithm).c_str());
    }
  }

  const double cold_ns = cold_s * 1e9 / static_cast<double>(detects);
  const double shared_ns = shared_s * 1e9 / static_cast<double>(detects);
  const double speedup = shared_ns > 0.0 ? cold_ns / shared_ns : 0.0;
  const double hit_rate =
      hits + misses > 0
          ? static_cast<double>(hits) / static_cast<double>(hits + misses)
          : 0.0;

  std::printf("cold:   %.3fs/pass (%.0f ns/detect)\n", cold_s, cold_ns);
  std::printf("shared: %.3fs/pass (%.0f ns/detect, context build included)\n",
              shared_s, shared_ns);
  std::printf("speedup: %.2fx | context hit rate: %.2f | identical: %s\n",
              speedup, hit_rate, identical ? "yes" : "NO");

  std::ofstream out(json_path);
  if (!out) {
    std::fprintf(stderr, "error: cannot open %s\n", json_path.c_str());
    return 1;
  }
  out << "{\n"
      << "  \"bench\": " << json::escape("decode_cache") << ",\n"
      << "  \"pairs\": " << pairs << ",\n"
      << "  \"packets_per_flow\": " << packets << ",\n"
      << "  \"detects_per_phase\": " << detects << ",\n"
      << "  \"reps\": " << reps << ",\n"
      << "  \"cold_ns_per_detect\": " << json::number(cold_ns, 1) << ",\n"
      << "  \"shared_ns_per_detect\": " << json::number(shared_ns, 1)
      << ",\n"
      << "  \"speedup\": " << json::number(speedup, 3) << ",\n"
      << "  \"hit_rate\": " << json::number(hit_rate, 3) << ",\n"
      << "  \"results_identical\": " << (identical ? "true" : "false")
      << ",\n"
      << "  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency() << "\n"
      << "}\n";
  std::printf("json written: %s\n", json_path.c_str());
  return identical ? 0 : 1;
}
