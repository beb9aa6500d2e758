// The timed run: tracing off, every end-to-end metric of one workload.
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "modes.hpp"

namespace aeropack::perf {

namespace {

// Set-up is repeated, at least 5 times and for at least 2 s (at most 25
// times), and its median reported, so one slow first touch or host stall
// does not decide the figure. The last set-up serves the timed window.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 25;
constexpr double kMinSetupSeconds = 2.0;

}  // namespace

int run_end_to_end(const Options& opt) {
  const WorkloadConfig& cfg = workload_config(opt.workload);
  const std::size_t count = item_count(cfg, opt.seconds);

  std::vector<double> setups;
  Prepared p;
  double setup_total = 0.0;
  while (static_cast<int>(setups.size()) < kMinSetups ||
         (setup_total < kMinSetupSeconds && static_cast<int>(setups.size()) < kMaxSetups)) {
    p = Prepared{};  // release the previous service and its cache first
    p = prepare(opt.workload, opt.seed, count, /*telemetry=*/false);
    setups.push_back(p.setup_s);
    setup_total += p.setup_s;
  }

  const Window win = run_window(*p.service, p.workload, opt.seconds,
                                std::numeric_limits<std::size_t>::max());
  const double rss_mb = peak_rss_mb();
  p.service.reset();
  if (win.samples.empty()) throw std::runtime_error("no scenario completed in the window");

  const CheckResult check = check_outputs(p.workload, p.primes, win, opt.refs,
                                          /*recheck=*/opt.workload != "steady_fv");

  std::vector<double> latency;
  for (const Sample& s : win.samples) latency.push_back(s.latency_s);
  const double n = static_cast<double>(win.samples.size());
  const Tail tail = tail_of(latency);

  const std::vector<Metric> metrics = {
      {"setup_s", "s", median(setups)},
      {"scenarios_per_s", "1/s", n / win.wall_s},
      {"latency_p50_ms", "ms", 1e3 * median(latency)},
      {"latency_tail_ms", "ms", 1e3 * tail.value},
      {"cpu_ms_per_scenario", "ms", 1e3 * win.cpu_s / n},
      {"peak_rss_mb", "MB", rss_mb},
  };

  const std::string provenance = provenance_json(cfg.name, opt.seed, params_json(cfg));
  std::printf("workload %s  seed %llu  window %.3f s  scenarios %zu%s\n", cfg.name.c_str(),
              static_cast<unsigned long long>(opt.seed), win.wall_s, win.samples.size(),
              win.exhausted ? "  (generated list exhausted before the deadline)" : "");
  for (const Metric& m : metrics)
    std::printf("  %-22s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("  latency_tail_ms is p%g over %zu samples (%zu beyond it)\n", tail.percentile,
              tail.samples, tail.beyond);
  std::map<std::string, std::vector<double>> per_graph;
  for (const Sample& s : win.samples)
    per_graph[p.workload.items[s.item].spec.graph].push_back(1e3 * s.latency_s);
  for (const auto& [graph, ms] : per_graph)
    std::printf("  %-24s n=%-6zu p10 %.4g  p50 %.4g  p90 %.4g  p99 %.4g ms\n", graph.c_str(),
                ms.size(), percentile(ms, 10), percentile(ms, 50), percentile(ms, 90),
                percentile(ms, 99));
  const double failed_frac =
      static_cast<double>(check.failed) / static_cast<double>(check.attempted);
  std::printf("  failed_frac            %14.6g   (%zu failed of %zu attempted)\n", failed_frac,
              check.failed, check.attempted);
  std::printf("  setup_s is the median of %zu set-ups\n", setups.size());
  std::printf("provenance %s\n", provenance.c_str());
  for (const std::string& problem : check.problems)
    std::fprintf(stderr, "check: %s\n", problem.c_str());

  const std::string line = result_line(check.failed == 0, check.attempted, check.failed, metrics);
  char tail_json[160];
  std::snprintf(tail_json, sizeof tail_json,
                "{\"percentile\":%s,\"samples\":%zu,\"beyond\":%zu}",
                json_number(tail.percentile).c_str(), tail.samples, tail.beyond);
  write_output(opt.out_dir,
               "result-" + cfg.name + "-seed" + std::to_string(opt.seed) + ".json",
               "{\"provenance\":" + provenance + ",\"latency_tail\":" + tail_json +
                   ",\"failed_frac\":" + json_number(failed_frac) + ",\"result\":" + line +
                   "}\n");
  std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace aeropack::perf
