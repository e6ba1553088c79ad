#include "bench_util.hpp"

#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>

#include "sscor/util/error.hpp"
#include "sscor/util/json.hpp"

namespace sscor::perf {

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

void SpeedGauge::sample() {
  constexpr std::size_t kSorted = std::size_t{1} << 20;
  constexpr std::uint64_t kKeys = 400000;
  std::vector<double> values(kSorted);
  std::mt19937_64 gen(0x5eed);
  for (double& v : values) v = static_cast<double>(gen() >> 11);
  const double c0 = thread_cpu_s();
  std::sort(values.begin(), values.end());
  std::unordered_map<std::uint64_t, std::uint64_t> table;
  table.reserve(kKeys);
  for (std::uint64_t i = 0; i < kKeys; ++i) table[gen() % (4 * kKeys)] += i;
  for (std::uint64_t i = 0; i < 2 * kKeys; ++i) {
    const auto it = table.find(gen() % (4 * kKeys));
    if (it != table.end()) checksum_ += it->second;
  }
  samples_.push_back(thread_cpu_s() - c0);
  require(std::is_sorted(values.begin(), values.end()),
          "calibration kernel did not sort");
}

bool reset_peak_rss() {
  malloc_trim(0);
  std::ofstream refs("/proc/self/clear_refs");
  if (!refs) return false;
  refs << "5";
  refs.flush();
  return static_cast<bool>(refs);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::string exact(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void RunResult::fail(std::uint64_t count, const std::string& why) {
  if (count == 0) return;
  failed += count;
  std::fprintf(stderr, "check failed (%llu): %s\n",
               static_cast<unsigned long long>(count), why.c_str());
}

void record_exact(RunResult& out, int rep, const std::string& name,
                  const std::string& value) {
  if (rep == 0) {
    out.deterministic[name] = value;
    return;
  }
  const auto it = out.deterministic.find(name);
  if (it == out.deterministic.end() || it->second != value) {
    out.errors.push_back("rep " + std::to_string(rep) + " changed " + name +
                         " from " +
                         (it == out.deterministic.end() ? "<none>"
                                                        : it->second) +
                         " to " + value);
  }
}

namespace {

void append_metrics(std::string& out, const std::map<std::string, Metric>& m) {
  out += '{';
  bool first = true;
  for (const auto& [name, metric] : m) {
    if (!first) out += ',';
    first = false;
    json::append_escaped(out, name);
    out += ":{\"value\":" + exact(metric.value) + ",\"unit\":";
    json::append_escaped(out, metric.unit);
    out += '}';
  }
  out += '}';
}

void append_strings(std::string& out,
                    const std::map<std::string, std::string>& m) {
  out += '{';
  bool first = true;
  for (const auto& [name, value] : m) {
    if (!first) out += ',';
    first = false;
    json::append_escaped(out, name);
    out += ':';
    json::append_escaped(out, value);
  }
  out += '}';
}

}  // namespace

std::string RunResult::to_json() const {
  std::string out = "{\"attempted\":" + std::to_string(attempted) +
                    ",\"failed\":" + std::to_string(failed) + ",\"errors\":[";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (i != 0) out += ',';
    json::append_escaped(out, errors[i]);
  }
  out += "],\"end_to_end\":";
  append_metrics(out, end_to_end);
  out += ",\"per_layer\":";
  append_metrics(out, per_layer);
  out += ",\"deterministic\":";
  append_strings(out, deterministic);
  out += ",\"stamp\":";
  append_strings(out, stamp);
  out += '}';
  return out;
}

std::uint64_t SpanRecorder::begin(const char* name, const char* layer,
                                  std::uint64_t parent) {
  if (!enabled_) return 0;
  const double now = wall_s();
  if (origin_s_ < 0.0) origin_s_ = now;
  Span span;
  span.name = name;
  span.layer = layer;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.start_s = now;
  span.tid = static_cast<int>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000);
  spans_.push_back(span);
  open_[span.id] = spans_.size() - 1;
  return span.id;
}

void SpanRecorder::end(std::uint64_t id) {
  if (!enabled_ || id == 0) return;
  const auto it = open_.find(id);
  if (it == open_.end()) return;
  spans_[it->second].end_s = wall_s();
  open_.erase(it);
}

void SpanRecorder::write_chrome_json(const std::string& path) const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Span& span : spans_) {
    if (span.end_s < 0.0) continue;
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    json::append_escaped(out, span.name);
    out += ",\"cat\":";
    json::append_escaped(out, span.layer);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  ",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,"
                  "\"tid\":%d,\"args\":{\"id\":%llu,\"parent\":%llu}}",
                  (span.start_s - origin_s_) * 1e6,
                  (span.end_s - span.start_s) * 1e6, span.tid,
                  static_cast<unsigned long long>(span.id),
                  static_cast<unsigned long long>(span.parent));
    out += buf;
  }
  out += "]}\n";
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << out;
  if (!file) throw IoError("cannot write span file: " + path);
}

}  // namespace sscor::perf
