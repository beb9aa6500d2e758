#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>

extern char** environ;

namespace aeropack::perf {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::uniform(double lo, double hi) {
  const double u = static_cast<double>(next() >> 11) * 0x1.0p-53;
  return lo + (hi - lo) * u;
}

std::size_t Rng::index(std::size_t n) { return static_cast<std::size_t>(next() % n); }

double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) throw std::invalid_argument("percentile of an empty sample");
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

Tail tail_of(const std::vector<double>& v) {
  if (v.empty()) throw std::invalid_argument("tail of an empty sample");
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const std::size_t n = s.size();
  Tail t;
  t.samples = n;
  for (const double p : {95.0, 90.0, 75.0, 50.0}) {
    const std::size_t rank =
        std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(p / 100.0 * n)));
    t.percentile = p;
    t.value = s[rank - 1];
    t.beyond = n - rank;
    if (t.beyond >= 10) break;
  }
  return t;
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::size_t affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string provenance_json(const std::string& workload, std::uint64_t seed,
                            const std::string& params_json) {
  std::string env = "{";
  for (char** e = environ; e && *e; ++e) {
    const std::string kv = *e;
    if (kv.rfind("AEROPACK_", 0) != 0) continue;
    const std::size_t eq = kv.find('=');
    if (env.size() > 1) env += ",";
    env += json_string(kv.substr(0, eq)) + ":" +
           json_string(eq == std::string::npos ? "" : kv.substr(eq + 1));
  }
  env += "}";
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return "{\"git_sha\":" + json_string(AEROPACK_PERF_GIT_SHA) +
         ",\"build_type\":" + json_string(AEROPACK_PERF_BUILD_TYPE) +
         ",\"nproc\":" + std::to_string(affinity_cpus()) +
         ",\"hardware_concurrency\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"llc_bytes\":" + std::to_string(llc > 0 ? llc : 0) + ",\"env\":" + env +
         ",\"workload\":" + json_string(workload) + ",\"seed\":" + std::to_string(seed) +
         ",\"params\":" + params_json + "}";
}

std::string result_line(bool correct, std::size_t attempted, std::size_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": " + std::string(correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}}";
}

std::uint64_t Tracer::next_id() {
  std::lock_guard lock(mutex_);
  return ++last_id_;
}

void Tracer::record(Span span) {
  std::lock_guard lock(mutex_);
  spans_.push_back(std::move(span));
}

std::string Tracer::spans_json() const {
  std::lock_guard lock(mutex_);
  std::string out;
  for (const Span& s : spans_) {
    if (!out.empty()) out += ",\n";
    out += "{\"id\":" + std::to_string(s.id) + ",\"parent\":" + std::to_string(s.parent) +
           ",\"workload\":" + json_string(s.workload) + ",\"name\":" + json_string(s.name) +
           ",\"tag\":" + json_string(s.tag) + ",\"start_s\":" + json_number(s.start_s) +
           ",\"end_s\":" + json_number(s.end_s) + "}";
  }
  return out;
}

ScopedSpan::ScopedSpan(Tracer* tracer, std::uint64_t parent, std::string workload,
                       std::string name, std::string tag)
    : tracer_(tracer) {
  if (!tracer_) return;
  span_.id = tracer_->next_id();
  span_.parent = parent;
  span_.workload = std::move(workload);
  span_.name = std::move(name);
  span_.tag = std::move(tag);
  span_.start_s = tracer_->now();
}

ScopedSpan::~ScopedSpan() {
  if (!tracer_) return;
  span_.end_s = tracer_->now();
  tracer_->record(std::move(span_));
}

}  // namespace aeropack::perf
