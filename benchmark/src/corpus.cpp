#include "corpus.hpp"

#include <filesystem>

#include "sscor/flow/pcap_synth.hpp"
#include "sscor/traffic/chaff.hpp"
#include "sscor/traffic/interactive_model.hpp"
#include "sscor/traffic/perturbation.hpp"
#include "sscor/util/error.hpp"
#include "sscor/util/rng.hpp"
#include "sscor/watermark/embedder.hpp"

namespace sscor::perf {
namespace {

net::FiveTuple upstream_tuple(std::size_t i) {
  return net::FiveTuple{
      net::Ipv4Address::from_octets(10, 2, static_cast<std::uint8_t>(i / 250),
                                    static_cast<std::uint8_t>(i % 250 + 2)),
      net::Ipv4Address::from_octets(10, 98, 0, 1),
      static_cast<std::uint16_t>(40000 + i % 20000), 22,
      net::IpProtocol::kTcp};
}

net::FiveTuple downstream_tuple(std::size_t k) {
  return net::FiveTuple{
      net::Ipv4Address::from_octets(10, 3, static_cast<std::uint8_t>(k / 250),
                                    static_cast<std::uint8_t>(k % 250 + 2)),
      net::Ipv4Address::from_octets(10, 99, 0, 1),
      static_cast<std::uint16_t>(20000 + k % 40000), 22,
      net::IpProtocol::kTcp};
}

}  // namespace

CorrelatorConfig watch_correlator_config() {
  CorrelatorConfig config;
  config.max_delay = seconds(std::int64_t{7});
  config.hamming_threshold = 7;
  return config;
}

CaptureCorpus write_capture_corpus(const CaptureCorpusConfig& config,
                                   const std::string& dir) {
  std::filesystem::create_directories(dir);
  CaptureCorpus corpus;
  corpus.secret.key = mix_seeds(config.seed, 0x6b6579);
  Rng wm_rng(mix_seeds(config.seed, 0x77));
  corpus.secret.watermark =
      Watermark::random(corpus.secret.params.bits, wm_rng);
  const Embedder embedder(corpus.secret.params, corpus.secret.key);
  const traffic::InteractiveSessionModel model;

  std::vector<Flow> upstream;
  std::vector<Flow> downstream;
  for (std::size_t i = 0; i < config.carriers; ++i) {
    const std::uint64_t flow_seed = mix_seeds(config.seed, i);
    Rng jitter(mix_seeds(flow_seed, 0xb00f));
    const Flow raw = model.generate(config.carrier_packets,
                                    jitter.uniform_duration(millis(900)),
                                    flow_seed);
    upstream.push_back(embedder.embed(raw, corpus.secret.watermark).flow);
    const traffic::UniformPerturber perturber(config.max_perturbation,
                                              mix_seeds(flow_seed, 1));
    const traffic::PoissonChaffInjector chaff(config.chaff_rate,
                                              mix_seeds(flow_seed, 2));
    downstream.push_back(chaff.apply(perturber.apply(upstream.back())));
  }
  for (std::size_t d = 0; d < config.decoys; ++d) {
    const std::uint64_t decoy_seed =
        mix_seeds(config.seed, mix_seeds(0xdec0755eedULL, d));
    Rng jitter(mix_seeds(decoy_seed, 0xb00f));
    downstream.push_back(model.generate(
        config.decoy_packets, jitter.uniform_duration(config.decoy_start_spread),
        decoy_seed));
  }

  std::vector<SynthesisInput> up_inputs;
  for (std::size_t i = 0; i < upstream.size(); ++i) {
    up_inputs.push_back(SynthesisInput{upstream_tuple(i), &upstream[i]});
    corpus.carrier_of[upstream_tuple(i).to_string()] =
        downstream_tuple(i).to_string();
  }
  std::vector<SynthesisInput> down_inputs;
  for (std::size_t k = 0; k < downstream.size(); ++k) {
    down_inputs.push_back(SynthesisInput{downstream_tuple(k), &downstream[k]});
  }
  corpus.upstream_path = dir + "/upstream.pcap";
  corpus.downstream_path = dir + "/downstream.pcap";
  write_capture_file(corpus.upstream_path, up_inputs);
  write_capture_file(corpus.downstream_path, down_inputs);
  corpus.downstream_flows = downstream.size();
  return corpus;
}

std::vector<WatermarkedFlow> load_upstreams(
    const std::string& path, const WatermarkSecret& secret,
    std::vector<net::FiveTuple>* tuples) {
  const auto flows = extract_flows_from_file(path);
  require(!flows.empty(), "no flows in the upstream capture");
  std::vector<WatermarkedFlow> upstreams;
  upstreams.reserve(flows.size());
  for (const auto& up : flows) {
    upstreams.push_back(WatermarkedFlow{
        up.flow, secret.schedule_for(up.flow.size()), secret.watermark});
    if (tuples != nullptr) tuples->push_back(up.tuple);
  }
  return upstreams;
}

}  // namespace sscor::perf
