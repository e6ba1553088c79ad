// Batched hypothesis-decode throughput: scalar per-hypothesis correlate vs
// the batched SoA engine (Correlator::correlate_hypotheses).
//
// A defender scanning H candidate keys against one suspicious flow decodes
// H (schedule, watermark) hypotheses over the same pair.  The scalar path
// pays the watermark-independent matching phase (window scan + candidate
// build + prune) and a fresh DecodePlan + selection state per hypothesis;
// the batched engine pays the matching once per pair and runs every
// hypothesis over reusable SoA arrays.  This bench times both on the same
// hypothesis sets, verifies every CorrelationResult is field-identical
// including the paper's cost metric (the cost-replay invariant extends to
// the batched engine), and records ns/detect + hypotheses/sec as JSON.
//
//   batch_decode [--pairs=N] [--packets=N] [--hypotheses=N] [--reps=N]
//                [--json=PATH]           (default BENCH_batch_decode.json)
//
// Both phases run once untimed as a warm-up, then --reps timed passes
// each; the reported ns/detect is the fastest pass per phase.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "sscor/correlation/correlator.hpp"
#include "sscor/matching/batch_kernel.hpp"
#include "sscor/traffic/chaff.hpp"
#include "sscor/traffic/interactive_model.hpp"
#include "sscor/traffic/perturbation.hpp"
#include "sscor/util/json.hpp"
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
  std::size_t pairs = 8;
  std::size_t packets = 2000;
  std::size_t hypotheses = 16;
  std::size_t reps = 5;
  std::string json_path = "BENCH_batch_decode.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--pairs=", 0) == 0) {
      pairs = std::strtoull(arg.c_str() + 8, nullptr, 10);
    } else if (arg.rfind("--packets=", 0) == 0) {
      packets = std::strtoull(arg.c_str() + 10, nullptr, 10);
    } else if (arg.rfind("--hypotheses=", 0) == 0) {
      hypotheses = std::strtoull(arg.c_str() + 13, nullptr, 10);
    } else if (arg.rfind("--reps=", 0) == 0) {
      reps = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--pairs=N] [--packets=N] [--hypotheses=N] "
                   "[--reps=N] [--json=PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (reps == 0) reps = 1;
  if (hypotheses == 0) hypotheses = 1;

  constexpr DurationUs kDelta = seconds(std::int64_t{7});
  constexpr double kChaffRate = 5.0;
  constexpr std::uint32_t kBits = 24;

  const traffic::InteractiveSessionModel model;
  const Embedder embedder(WatermarkParams{}, 0xfeed);
  Rng rng(0x7272);

  // Per pair: the true hypothesis (index 0) plus wrong-key hypotheses —
  // the realistic shape of a key scan, where at most one candidate decodes.
  std::vector<WatermarkedFlow> marked;
  std::vector<Flow> downstream;
  std::vector<std::vector<KeySchedule>> schedules(pairs);
  std::vector<std::vector<Watermark>> targets(pairs);
  std::vector<std::vector<batch::DecodeHypothesis>> hyp_sets(pairs);
  std::vector<std::vector<WatermarkedFlow>> scalar_inputs(pairs);
  for (std::size_t i = 0; i < pairs; ++i) {
    const auto seed = static_cast<std::uint64_t>(7000 + i);
    const Flow flow = model.generate(packets, 0, seed);
    marked.push_back(embedder.embed(flow, Watermark::random(kBits, rng)));
    const traffic::UniformPerturber perturber(kDelta, seed + 17);
    const traffic::PoissonChaffInjector chaff(kChaffRate, seed + 29);
    downstream.push_back(chaff.apply(perturber.apply(marked.back().flow)));

    schedules[i].push_back(marked[i].schedule);
    targets[i].push_back(marked[i].watermark);
    for (std::size_t h = 1; h < hypotheses; ++h) {
      schedules[i].push_back(KeySchedule::create(
          WatermarkParams{}, marked[i].flow.size(), seed * 131 + h));
      targets[i].push_back(Watermark::random(kBits, rng));
    }
    for (std::size_t h = 0; h < hypotheses; ++h) {
      hyp_sets[i].push_back({&schedules[i][h], &targets[i][h]});
      // Prebuilt outside the timed region so the scalar pass never pays
      // the flow copy — it times exactly H scalar correlates.
      scalar_inputs[i].push_back(
          WatermarkedFlow{marked[i].flow, schedules[i][h], targets[i][h]});
    }
  }

  const CorrelatorConfig config;  // Delta = 7s, h = 7, bound = 10^6
  const Correlator correlator(config, Algorithm::kGreedyPlus);

  std::printf("== batch_decode: scalar per-hypothesis vs batched SoA ==\n");
  std::printf(
      "pairs: %zu | packets/flow: %zu | hypotheses/pair: %zu | reps: %zu\n",
      pairs, packets, hypotheses, reps);

  const std::size_t detects = pairs * hypotheses;
  std::vector<CorrelationResult> scalar(detects);
  std::vector<CorrelationResult> batched(detects);

  auto scalar_pass = [&] {
    for (std::size_t i = 0; i < pairs; ++i) {
      for (std::size_t h = 0; h < hypotheses; ++h) {
        scalar[i * hypotheses + h] =
            correlator.correlate(scalar_inputs[i][h], downstream[i]);
      }
    }
  };
  auto batched_pass = [&] {
    for (std::size_t i = 0; i < pairs; ++i) {
      const auto results = correlator.correlate_hypotheses(
          marked[i].flow, hyp_sets[i], downstream[i]);
      for (std::size_t h = 0; h < hypotheses; ++h) {
        batched[i * hypotheses + h] = results[h];
      }
    }
  };

  // Untimed warm-up, then alternating timed passes; keep the fastest of
  // each so transient scheduler noise cannot bias either phase.
  scalar_pass();
  batched_pass();
  double scalar_s = 0.0;
  double batched_s = 0.0;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto scalar_start = std::chrono::steady_clock::now();
    scalar_pass();
    const double ss = elapsed_s(scalar_start);
    const auto batched_start = std::chrono::steady_clock::now();
    batched_pass();
    const double bs = elapsed_s(batched_start);
    if (r == 0 || ss < scalar_s) scalar_s = ss;
    if (r == 0 || bs < batched_s) batched_s = bs;
  }

  bool identical = true;
  for (std::size_t k = 0; k < detects; ++k) {
    if (!same_result(scalar[k], batched[k])) {
      identical = false;
      std::fprintf(stderr,
                   "MISMATCH pair %zu hypothesis %zu: scalar/batched "
                   "results differ\n",
                   k / hypotheses, k % hypotheses);
    }
  }

  const double scalar_ns = scalar_s * 1e9 / static_cast<double>(detects);
  const double batched_ns = batched_s * 1e9 / static_cast<double>(detects);
  const double speedup = batched_ns > 0.0 ? scalar_ns / batched_ns : 0.0;
  const double hyps_per_sec =
      batched_s > 0.0 ? static_cast<double>(detects) / batched_s : 0.0;

  std::printf("scalar:  %.3fs/pass (%.0f ns/detect)\n", scalar_s, scalar_ns);
  std::printf("batched: %.3fs/pass (%.0f ns/detect, %.0f hypotheses/s)\n",
              batched_s, batched_ns, hyps_per_sec);
  std::printf("speedup: %.2fx | identical: %s\n", speedup,
              identical ? "yes" : "NO");

  std::ofstream out(json_path);
  if (!out) {
    std::fprintf(stderr, "error: cannot open %s\n", json_path.c_str());
    return 1;
  }
  out << "{\n"
      << "  \"bench\": " << json::escape("batch_decode") << ",\n"
      << "  \"pairs\": " << pairs << ",\n"
      << "  \"packets_per_flow\": " << packets << ",\n"
      << "  \"hypotheses_per_pair\": " << hypotheses << ",\n"
      << "  \"detects_per_phase\": " << detects << ",\n"
      << "  \"reps\": " << reps << ",\n"
      << "  \"scalar_ns_per_detect\": " << json::number(scalar_ns, 1)
      << ",\n"
      << "  \"batched_ns_per_detect\": " << json::number(batched_ns, 1)
      << ",\n"
      << "  \"hypotheses_per_sec\": " << json::number(hyps_per_sec, 1)
      << ",\n"
      << "  \"speedup\": " << json::number(speedup, 3) << ",\n"
      << "  \"results_identical\": " << (identical ? "true" : "false")
      << ",\n"
      << "  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency() << "\n"
      << "}\n";
  std::printf("json written: %s\n", json_path.c_str());
  return identical ? 0 : 1;
}
