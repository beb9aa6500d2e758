#include "campaign.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "verify/tolerance.hpp"

namespace aeropack::perf {

namespace {

constexpr double kGoldenRelTol = 1e-9;  // the repository's golden bound

// Solver-effort outputs: counts of work done, not physics. A faster solver
// may legitimately change them, so they are not compared with references
// (the bitwise re-run still compares them).
bool effort_key(const std::string& key) {
  return key == "linear_iterations" || key == "structure_assemblies" ||
         key == "implicit_solves" || key == "energy_residual";
}

bool bitwise_same(const std::map<std::string, double>& a, const std::map<std::string, double>& b) {
  if (a.size() != b.size()) return false;
  for (auto ia = a.begin(), ib = b.begin(); ia != a.end(); ++ia, ++ib)
    if (ia->first != ib->first || std::memcmp(&ia->second, &ib->second, sizeof(double)) != 0)
      return false;
  return true;
}

/// Empty when `got` matches `ref` on every reference key, else the first
/// mismatch.
std::string compare_to_reference(const std::map<std::string, double>& got,
                                 const std::map<std::string, double>& ref) {
  for (const auto& [key, want] : ref) {
    if (effort_key(key)) continue;
    const auto it = got.find(key);
    if (it == got.end()) return "missing output '" + key + "'";
    if (!verify::rel_close(it->second, want, kGoldenRelTol)) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "%s = %.17g, reference %.17g", key.c_str(), it->second,
                    want);
      return buf;
    }
  }
  return {};
}

/// Empty when the result is ok and every value finite.
std::string basic_problem(const core::ScenarioResult& r) {
  if (!r.ok) return "failed: " + r.error;
  for (const auto& [key, v] : r.values)
    if (!std::isfinite(v)) return "non-finite output '" + key + "'";
  if (r.values.empty()) return "no outputs";
  return {};
}

// ---- reference files -------------------------------------------------------
//
// One output per line: "<label> <key> <hexfloat> <decimal>", '#' comments.
// The hexfloat is exact; the decimal is for readers. steady_fv grid labels
// are "fv64:<power_w hexfloat>:<t_hot hexfloat>".

using ValueMap = std::map<std::string, double>;

std::map<std::string, ValueMap> read_reference_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("missing reference file " + path);
  std::map<std::string, ValueMap> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string label, key, hex;
    if (!(ls >> label >> key >> hex)) throw std::runtime_error("malformed line in " + path);
    char* end = nullptr;
    const double v = std::strtod(hex.c_str(), &end);
    if (end == hex.c_str() || *end != '\0')
      throw std::runtime_error("bad number '" + hex + "' in " + path);
    out[label][key] = v;
  }
  return out;
}

std::string hexfloat(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::string grid_label(double power_w, double t_hot) {
  return "fv64:" + hexfloat(power_w) + ":" + hexfloat(t_hot);
}

void write_values(std::ofstream& out, const std::string& label, const ValueMap& values) {
  for (const auto& [key, v] : values) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out << label << ' ' << key << ' ' << hexfloat(v) << ' ' << buf << '\n';
  }
}

double get_or(const ValueMap& m, const std::string& key, double fallback) {
  const auto it = m.find(key);
  return it == m.end() ? fallback : it->second;
}

}  // namespace

std::unique_ptr<core::ScenarioService> make_service(const WorkloadConfig& cfg, bool telemetry,
                                                    std::size_t workers, std::size_t threads) {
  core::ScenarioServiceOptions opts;
  opts.workers = workers ? workers : cfg.workers;
  opts.threads_per_scenario = threads ? threads : cfg.threads_per_scenario;
  opts.telemetry = telemetry;
  auto service = std::make_unique<core::ScenarioService>(opts);
  register_graphs(*service);
  return service;
}

Window run_window(core::ScenarioService& service, const Workload& w, double seconds,
                  std::size_t limit, Tracer* tracer, std::uint64_t root) {
  const std::size_t n = std::min(limit, w.items.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::vector<Sample>> per_client(w.cfg.clients);
  const double cpu0 = process_cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));

  const auto client = [&](std::vector<Sample>& out) {
    while (Clock::now() < deadline) {
      const std::size_t i = next.fetch_add(1);
      if (i >= n) return;
      const core::ScenarioSpec& spec = w.items[i].spec;
      ScopedSpan span(tracer, root, w.cfg.name, "scenario", spec.graph);
      Sample s;
      s.item = i;
      const Clock::time_point a = Clock::now();
      const core::ScenarioService::Ticket ticket = service.submit(spec);
      const Clock::time_point b = Clock::now();
      s.result = service.wait(ticket);
      s.latency_s = seconds_between(a, Clock::now());
      s.submit_s = seconds_between(a, b);
      out.push_back(std::move(s));
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 1; c < w.cfg.clients; ++c)
    threads.emplace_back(client, std::ref(per_client[c]));
  client(per_client[0]);
  for (std::thread& t : threads) t.join();

  Window win;
  win.wall_s = seconds_between(t0, Clock::now());
  win.cpu_s = process_cpu_seconds() - cpu0;
  win.exhausted = next.load() >= n && n < limit;
  for (auto& v : per_client)
    for (Sample& s : v) win.samples.push_back(std::move(s));
  return win;
}

References load_references(const std::string& dir) {
  References refs;
  refs.anchors = read_reference_file(dir + "/anchors.txt");
  for (const auto& [power_w, t_hot] : steady_fv_grid()) refs.fv_grid[{power_w, t_hot}];
  const auto grid = read_reference_file(dir + "/steady_fv_grid.txt");
  for (auto& [point, values] : refs.fv_grid) {
    const auto it = grid.find(grid_label(point.first, point.second));
    if (it == grid.end())
      throw std::runtime_error("steady_fv reference grid lacks " +
                               grid_label(point.first, point.second));
    values = it->second;
  }
  return refs;
}

void write_references(const std::string& dir) {
  {
    std::ofstream out(dir + "/anchors.txt");
    if (!out) throw std::runtime_error("cannot write " + dir + "/anchors.txt");
    out << "# Outputs of every workload's prime scenarios (1 worker, 1 thread).\n"
           "# <scenario> <output> <exact hexfloat> <decimal>\n";
    for (const WorkloadConfig& cfg : workload_configs()) {
      const Workload w = generate(cfg.name, 0, 0);
      auto service = make_service(cfg, false, 1, 1);
      const std::vector<core::ScenarioResult> results = service->run(w.primes);
      for (const core::ScenarioResult& r : results) {
        if (!basic_problem(r).empty())
          throw std::runtime_error("prime " + r.name + ": " + basic_problem(r));
        write_values(out, r.name, r.values);
      }
    }
  }
  std::ofstream out(dir + "/steady_fv_grid.txt");
  if (!out) throw std::runtime_error("cannot write " + dir + "/steady_fv_grid.txt");
  out << "# steady_fv outputs at every (power_w, t_hot) grid point.\n"
         "# fv64:<power_w>:<t_hot> <output> <exact hexfloat> <decimal>\n";
  std::vector<core::ScenarioSpec> specs;
  for (const auto& [power_w, t_hot] : steady_fv_grid()) {
    specs.push_back(steady_fv_spec(power_w, t_hot));
    specs.back().name = grid_label(power_w, t_hot);
  }
  auto service = make_service(workload_config("steady_fv"), false, 2, 2);
  for (const core::ScenarioResult& r : service->run(specs)) {
    if (!basic_problem(r).empty())
      throw std::runtime_error("grid point " + r.name + ": " + basic_problem(r));
    write_values(out, r.name, r.values);
  }
}

CheckResult check_outputs(const Workload& w, const std::vector<core::ScenarioResult>& primes,
                          const Window& window, const References& refs, bool recheck) {
  CheckResult check;
  const auto fail = [&](const std::string& what, const std::string& problem) {
    ++check.failed;
    if (check.problems.size() < 8) check.problems.push_back(what + ": " + problem);
  };

  for (const core::ScenarioResult& r : primes) {
    ++check.attempted;
    std::string problem = basic_problem(r);
    if (problem.empty()) {
      const auto it = refs.anchors.find(r.name);
      problem = it == refs.anchors.end() ? "no anchor reference"
                                         : compare_to_reference(r.values, it->second);
    }
    if (!problem.empty()) fail(r.name, problem);
  }

  std::vector<std::string> sample_problem(window.samples.size());
  for (std::size_t k = 0; k < window.samples.size(); ++k) {
    const Sample& s = window.samples[k];
    sample_problem[k] = basic_problem(s.result);
    if (!sample_problem[k].empty() || w.cfg.name != "steady_fv") continue;
    const core::ScenarioSpec& spec = w.items[s.item].spec;
    const auto it = refs.fv_grid.find(
        {get_or(spec.loads, "power_w", 0.0), get_or(spec.boundaries, "t_hot", 0.0)});
    sample_problem[k] = it == refs.fv_grid.end()
                            ? "no grid reference"
                            : compare_to_reference(s.result.values, it->second);
  }

  if (recheck) {
    // Distinct inputs in first-seen order, re-run cold on one worker and
    // one thread: the cache, dedup, worker-count and thread-count
    // invariance contracts all say the outputs are bitwise the same.
    std::unordered_map<std::uint64_t, std::size_t> index;
    std::vector<core::ScenarioSpec> distinct;
    std::vector<std::size_t> slot(window.samples.size());
    for (std::size_t k = 0; k < window.samples.size(); ++k) {
      const core::ScenarioSpec& spec = w.items[window.samples[k].item].spec;
      const auto [it, fresh] = index.emplace(spec.content_hash(), distinct.size());
      if (fresh) distinct.push_back(spec);
      slot[k] = it->second;
    }
    auto service = make_service(w.cfg, false, 1, 1);
    const std::vector<core::ScenarioResult> again = service->run(distinct);
    for (std::size_t k = 0; k < window.samples.size(); ++k)
      if (sample_problem[k].empty() && !bitwise_same(window.samples[k].result.values,
                                                     again[slot[k]].values))
        sample_problem[k] = "differs from the 1-worker, 1-thread re-run";
  }

  for (std::size_t k = 0; k < window.samples.size(); ++k) {
    ++check.attempted;
    if (!sample_problem[k].empty())
      fail(w.items[window.samples[k].item].spec.name, sample_problem[k]);
  }
  return check;
}

}  // namespace aeropack::perf
