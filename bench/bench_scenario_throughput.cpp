// BENCH-SCENARIO — co-design batch throughput on isolated ExecutionContexts.
//
// The paper's co-design loop (Fig. 1) evaluates thermal and mechanical
// models against one specification; a trade study multiplies that into a
// batch of independent what-if scenarios. This bench submits a mixed batch
// of ScenarioSpecs — an SEB power sweep (Fig. 10), modal placement variants
// of the Fig. 2 avionics board, and FV slab heat-load variants — to a
// core::ScenarioService with a zero-capacity artifact cache (every scenario
// solves from scratch), sweeping the worker count and recording
// scenarios/sec. Every scenario runs on its own ExecutionContext, so the
// numbers also demonstrate the isolation contract: per-scenario counters
// come back deterministic and identical at every worker count.
//
// --smoke freezes a reduced batch at workers {1, 2} for the CI bench-smoke
// job and writes no BENCH_* file (full runs write
// BENCH_scenario_throughput.json); the per-scenario counters land in the obs
// report under "<scenario>.<counter>" keys and are gated against
// bench/expected/.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/qualification.hpp"
#include "core/scenario_service.hpp"
#include "fem/plate.hpp"
#include "materials/solid.hpp"
#include "numeric/parallel.hpp"
#include "obs/report.hpp"
#include "rom/service_graphs.hpp"
#include "thermal/fv.hpp"

namespace ac = aeropack::core;
namespace an = aeropack::numeric;
namespace at = aeropack::thermal;
namespace am = aeropack::materials;
namespace af = aeropack::fem;
namespace obs = aeropack::obs;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Fig. 2 placement variant (bench-local graph "board_modal", params:
/// mass_x [m]): the heavy component slides along the board. It runs
/// PlateModel::solve_modal, participation factors included, so its cost
/// profile is that of one isolated modal analysis; the built-in modal_plate
/// graph skips the participation product (one SpMV fewer).
std::map<std::string, double> board_modal(const ac::ScenarioSpec& spec,
                                          aeropack::ExecutionContext&) {
  af::PlateModel board(0.16, 0.10, 1.6e-3, am::fr4(), 8, 5);
  board.set_edge(af::EdgeSupport::Clamped, true, true, true, true);
  board.add_smeared_mass(2.5);
  board.add_point_mass(spec.params.at("mass_x"), 0.05, 0.18);
  board.add_doubler(0.03, 0.13, 0.02, 0.08, 1.8);
  af::ModalOptions opts;
  opts.n_modes = 6;
  opts.path = af::ModalPath::Sparse;
  const af::PlateModalResult modes = board.solve_modal(opts);
  return {{"f1_hz", modes.frequencies_hz[0]}, {"f2_hz", modes.frequencies_hz[1]}};
}

/// Full qualification campaign for a board variant (bench-local graph
/// "qual_board", params: thickness [m]): the modal solve feeds the EUT's
/// fundamental frequency, an FV solve feeds its junction temperature model,
/// then the DO-160-style campaign runs end to end.
std::map<std::string, double> qual_board(const ac::ScenarioSpec& spec,
                                         aeropack::ExecutionContext&) {
  const double thickness = spec.params.at("thickness");
  af::PlateModel board(0.16, 0.10, thickness, am::fr4(), 8, 5);
  board.set_edge(af::EdgeSupport::Clamped, true, true, true, true);
  board.add_smeared_mass(2.5);
  board.add_point_mass(0.05, 0.05, 0.18);
  af::ModalOptions opts;
  opts.n_modes = 1;
  opts.path = af::ModalPath::Sparse;
  const double f1 = board.solve_modal(opts).frequencies_hz[0];

  ac::EquipmentUnderTest eut;
  eut.name = "board";
  eut.fundamental_frequency = f1;
  eut.board_thickness = thickness;
  eut.worst_junction_at_ambient = [](double ambient) {
    at::FvModel slab(at::FvGrid::uniform(0.1, 0.02, 0.01, 12, 3, 3));
    slab.set_material(am::aluminum_6061());
    slab.add_power({0, 12, 0, 3, 0, 3}, 6.0);
    slab.set_boundary(at::Face::XMin, at::BoundaryCondition::fixed(ambient));
    return slab.solve_steady().max_temperature;
  };
  const ac::CampaignReport report = ac::run_campaign(eut);
  double min_margin = 1e300;
  for (const ac::TestResult& r : report.results) min_margin = std::min(min_margin, r.margin);
  return {{"f1_hz", f1}, {"all_passed", report.all_passed ? 1.0 : 0.0}, {"min_margin", min_margin}};
}

ac::ScenarioSpec batch_spec(const char* name, const char* graph) {
  ac::ScenarioSpec spec;
  spec.name = name;
  spec.graph = graph;
  return spec;
}

/// The worker-sweep batch: SEB points and FV slab loads on the built-in
/// graphs (defaults give the Fig. 10 SEB chain and the 16x4x4 slab), board
/// placements on "board_modal"; full runs add qualification campaigns on
/// "qual_board".
std::vector<ac::ScenarioSpec> make_batch(bool smoke) {
  std::vector<ac::ScenarioSpec> specs;
  char name[32];
  const std::vector<double> powers =
      smoke ? std::vector<double>{60.0, 120.0}
            : std::vector<double>{40.0, 60.0, 80.0, 100.0, 120.0};
  for (const double p : powers) {
    std::snprintf(name, sizeof name, "seb_p%03d", static_cast<int>(p));
    ac::ScenarioSpec spec = batch_spec(name, "seb_point");
    spec.loads = {{"power_w", p}};
    if (p >= 100.0) spec.params = {{"tilt_deg", 22.0}};
    specs.push_back(spec);
  }
  const std::vector<double> xs =
      smoke ? std::vector<double>{0.05} : std::vector<double>{0.03, 0.05, 0.08, 0.11};
  for (const double x : xs) {
    std::snprintf(name, sizeof name, "modal_x%03d", static_cast<int>(x * 1e3));
    ac::ScenarioSpec spec = batch_spec(name, "board_modal");
    spec.params = {{"mass_x", x}};
    specs.push_back(spec);
  }
  const std::vector<double> loads =
      smoke ? std::vector<double>{5.0} : std::vector<double>{2.0, 5.0, 8.0, 12.0};
  for (const double q : loads) {
    std::snprintf(name, sizeof name, "fv_q%03d", static_cast<int>(q));
    ac::ScenarioSpec spec = batch_spec(name, "fv_slab_steady");
    spec.loads = {{"power_w", q}};
    specs.push_back(spec);
  }
  if (!smoke) {
    for (const double t : {1.2e-3, 1.6e-3, 2.0e-3}) {
      std::snprintf(name, sizeof name, "qual_t%03d", static_cast<int>(t * 1e5));
      ac::ScenarioSpec spec = batch_spec(name, "qual_board");
      spec.params = {{"thickness", t}};
      specs.push_back(spec);
    }
  }
  return specs;
}

struct SweepPoint {
  std::size_t workers = 1;
  double seconds = 0.0;
  double scenarios_per_sec = 0.0;
};

// ---- campaign mode: ScenarioService over ScenarioSpec schemas -----------
//
// A design campaign interleaves four spec families block by block:
//   - seb_point power sweep (Fig. 10 ordinate) — closed form, no artifact;
//   - modal_plate placement variants (Fig. 2) — every variant moves point
//     mass only, so all share ONE cached stiffness factorization;
//   - fv_slab_steady load variants — all share ONE cached FV assembly;
//   - rom_board_steady operating points — all share ONE cached RomModel
//     (the expensive build amortized over the whole campaign).
// Every block also re-submits an earlier SEB point under a new name, so
// content-hash deduplication fires throughout.
std::vector<ac::ScenarioSpec> make_campaign(std::size_t n_points) {
  std::vector<ac::ScenarioSpec> specs;
  specs.reserve(n_points);
  char name[48];
  for (std::size_t b = 0; specs.size() < n_points; ++b) {
    const std::size_t block_start = specs.size();
    for (std::size_t j = 0; j < 2 && specs.size() < n_points; ++j) {
      const double power = 40.0 + static_cast<double>((2 * b + j) % 160) * 0.5;
      ac::ScenarioSpec seb;
      std::snprintf(name, sizeof name, "seb_b%zu_%zu", b, j);
      seb.name = name;
      seb.graph = "seb_point";
      seb.loads = {{"power_w", power}};
      specs.push_back(seb);
    }
    for (std::size_t j = 0; j < 2 && specs.size() < n_points; ++j) {
      const double x = 0.030 + static_cast<double>((2 * b + j) % 40) * 0.002;
      ac::ScenarioSpec modal;
      std::snprintf(name, sizeof name, "modal_b%zu_%zu", b, j);
      modal.name = name;
      modal.graph = "modal_plate";
      modal.params = {{"mass_x", x}};
      specs.push_back(modal);
    }
    if (specs.size() < n_points) {
      ac::ScenarioSpec fv;
      std::snprintf(name, sizeof name, "fv_b%zu", b);
      fv.name = name;
      fv.graph = "fv_slab_steady";
      fv.loads = {{"power_w", 2.0 + static_cast<double>(b % 60) * 0.25}};
      fv.boundaries = {{"t_hot", 310.0 + static_cast<double>(b % 5)}};
      specs.push_back(fv);
    }
    for (std::size_t j = 0; j < 6 && specs.size() < n_points; ++j) {
      ac::ScenarioSpec rom;
      std::snprintf(name, sizeof name, "rom_b%zu_%zu", b, j);
      rom.name = name;
      rom.graph = "rom_board_steady";
      rom.loads = {{"cpu", static_cast<double>((6 * b + j) % 100) * 0.2},
                   {"psu", static_cast<double>((b + j) % 50) * 0.1}};
      rom.boundaries = {{"rail_left", 313.0}, {"rail_right", 315.0},
                        {"top_air", 300.0 + static_cast<double>(b % 8)}};
      specs.push_back(rom);
    }
    if (specs.size() < n_points) {  // duplicate of this block's first SEB point
      ac::ScenarioSpec dup = specs[block_start];
      dup.name += "_dup";
      specs.push_back(dup);
    }
  }
  return specs;
}

ac::ScenarioServiceOptions campaign_options(std::size_t workers, bool cached) {
  ac::ScenarioServiceOptions opts;
  opts.workers = workers;
  opts.threads_per_scenario = 1;
  // Counters come from ArtifactCache/ScenarioService lifetime stats, not
  // per-scenario registries — campaign scenarios are microsolves, so
  // per-scenario registry setup would dominate what we measure.
  opts.telemetry = false;
  if (!cached) opts.cache.capacity_bytes = 0;  // baseline: every solve builds cold
  return opts;
}

/// Repeated timings of one campaign configuration: results and lifetime
/// stats of the first run, wall time the best of all runs. Every run is a
/// fresh service (empty cache), so repetitions are identical work.
struct CampaignRun {
  std::vector<ac::ScenarioResult> results;
  double seconds = 0.0;
  ac::ArtifactCacheStats cache;
  ac::ScenarioServiceStats service;
  std::size_t runs = 0;
};

void time_campaign(CampaignRun& run, const std::vector<ac::ScenarioSpec>& campaign,
                   std::size_t workers, bool cached) {
  ac::ScenarioService service(campaign_options(workers, cached));
  aeropack::rom::register_rom_graphs(service);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<ac::ScenarioResult> results = service.run(campaign);
  const double secs = seconds_since(t0);
  if (run.runs++ > 0) {
    run.seconds = std::min(run.seconds, secs);
    return;
  }
  run.results = std::move(results);
  run.seconds = secs;
  run.cache = service.cache().stats();
  run.service = service.stats();
}

int fail_campaign(const char* what) {
  std::fprintf(stderr, "campaign gate failed: %s\n", what);
  return 1;
}

void write_json(const std::string& path, std::size_t hardware, std::size_t n_scenarios,
                const std::vector<SweepPoint>& sweep) {
  std::ofstream out(path);
  if (!out) {
    std::printf("  (could not write %s)\n", path.c_str());
    return;
  }
  out << "{\n  \"bench\": \"scenario_throughput\",\n";
  out << "  \"hardware_threads\": " << hardware << ",\n";
  out << "  \"scenarios\": " << n_scenarios << ",\n  \"sweep\": [\n";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& p = sweep[i];
    out << "    {\"workers\": " << p.workers << ", \"seconds\": " << p.seconds
        << ", \"scenarios_per_sec\": " << p.scenarios_per_sec
        << ", \"speedup_vs_1\": "
        << (p.seconds > 0.0 ? sweep.front().seconds / p.seconds : 0.0) << "}"
        << (i + 1 < sweep.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  std::printf("  series written to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) try {
  // --smoke: reduced batch + workers {1, 2}, the configuration the CI
  // bench-smoke job freezes per-scenario counter expectations for.
  // --report <out.json>: write the obs run report with every scenario's
  // counters merged under "<scenario>." prefixes.
  bool smoke = false;
  std::string report_path;
  std::size_t campaign_points = 0;  // 0 = default for the mode
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--report" && i + 1 < argc) {
      report_path = argv[++i];
    } else if (arg.rfind("--report=", 0) == 0) {
      report_path = arg.substr(std::string("--report=").size());
    } else if (arg == "--campaign" && i + 1 < argc) {
      campaign_points = static_cast<std::size_t>(std::stoul(argv[++i]));
    } else if (arg.rfind("--campaign=", 0) == 0) {
      campaign_points =
          static_cast<std::size_t>(std::stoul(arg.substr(std::string("--campaign=").size())));
    } else {
      std::fprintf(stderr,
                   "unknown argument: %s (supported: --smoke, --report <out.json>, "
                   "--campaign <points>)\n",
                   arg.c_str());
      return 2;
    }
  }
  if (campaign_points == 0) campaign_points = smoke ? 240 : 10080;
  if (!report_path.empty()) obs::enable();

  std::printf("\n================================================================\n");
  std::printf("BENCH-SCENARIO — co-design batch throughput on isolated contexts\n");
  std::printf("SEB sweep + modal placement + FV loads via core::ScenarioService\n");
  std::printf("================================================================\n");

  const std::size_t hardware = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::size_t> worker_counts{1, 2, 4};
  if (hardware > 4) worker_counts.push_back(hardware);
  if (smoke) {
    worker_counts = {1, 2};
    std::printf("  smoke mode: reduced batch, workers {1, 2}\n");
  }
  std::printf("  hardware threads: %zu\n\n", hardware);

  const std::vector<ac::ScenarioSpec> batch = make_batch(smoke);
  std::vector<SweepPoint> sweep;
  std::vector<ac::ScenarioResult> reference;  // workers=1 run, for the report
  for (const std::size_t w : worker_counts) {
    ac::ScenarioServiceOptions opts;
    opts.workers = w;
    opts.threads_per_scenario = 1;
    opts.telemetry = !report_path.empty() || w == worker_counts.front();
    opts.cache.capacity_bytes = 0;  // isolated cold solves, as each scenario alone
    ac::ScenarioService service(opts);
    service.register_graph("board_modal", board_modal);
    service.register_graph("qual_board", qual_board);

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<ac::ScenarioResult> results = service.run(batch);
    SweepPoint point;
    point.workers = w;
    point.seconds = seconds_since(t0);
    point.scenarios_per_sec =
        point.seconds > 0.0 ? static_cast<double>(results.size()) / point.seconds : 0.0;
    sweep.push_back(point);

    for (const ac::ScenarioResult& r : results)
      if (!r.ok) {
        std::fprintf(stderr, "scenario %s failed: %s\n", r.name.c_str(), r.error.c_str());
        return 1;
      }
    // Isolation contract: outputs at w workers match the serial run exactly.
    if (w == worker_counts.front()) {
      reference = std::move(results);
    } else {
      for (std::size_t i = 0; i < results.size(); ++i)
        for (const auto& [key, value] : results[i].values)
          if (value != reference[i].values.at(key)) {
            std::fprintf(stderr, "scenario %s: %s drifted at %zu workers (%.17g != %.17g)\n",
                         results[i].name.c_str(), key.c_str(), w, value,
                         reference[i].values.at(key));
            return 1;
          }
    }
    std::printf("  workers=%2zu: %5.2f s, %6.2f scenarios/sec (speedup %.2fx)\n", w,
                point.seconds, point.scenarios_per_sec,
                point.seconds > 0.0 ? sweep.front().seconds / point.seconds : 0.0);
  }

  std::printf("\n  %-8s | %-10s | %-16s | %-10s\n", "workers", "wall [s]", "scenarios/sec",
              "speedup");
  std::printf("  ---------+------------+------------------+----------\n");
  for (const SweepPoint& p : sweep)
    std::printf("  %8zu | %10.3f | %16.2f | %9.2fx\n", p.workers, p.seconds,
                p.scenarios_per_sec, p.seconds > 0.0 ? sweep.front().seconds / p.seconds : 0.0);
  const SweepPoint& best =
      *std::max_element(sweep.begin(), sweep.end(), [](const SweepPoint& a, const SweepPoint& b) {
        return a.scenarios_per_sec < b.scenarios_per_sec;
      });
  std::printf("\n  headline: %zu scenarios, best %.2f scenarios/sec at %zu workers"
              " (%.2fx over serial)\n\n",
              reference.size(), best.scenarios_per_sec, best.workers,
              best.seconds > 0.0 ? sweep.front().seconds / best.seconds : 0.0);

  if (smoke)
    std::printf("  smoke mode: no BENCH_* file written\n");
  else
    write_json("BENCH_scenario_throughput.json", hardware, reference.size(), sweep);

  // ---- campaign section: ScenarioService + artifact cache ---------------
  //
  // The same bench binary drives the schema-first path: a >= 10^4-point
  // design campaign (240 in smoke) through ScenarioService three ways —
  // cached at 1 worker (the deterministic run whose cache counters CI
  // gates), cached at several workers (throughput), and with a
  // zero-capacity cache at 1 worker (the cold baseline the cached run must
  // beat and match to the bit; it deduplicates like every service run).
  // The two 1-worker runs are each timed as the best of 3 fresh runs,
  // interleaved so a load change on a shared machine hits both sides.
  // Smoke self-gates: hit rate >= 0.5, speedup >= 2x, bitwise equal.
  std::printf("\n----------------------------------------------------------------\n");
  std::printf("campaign: %zu design points via core::ScenarioService\n", campaign_points);
  std::printf("----------------------------------------------------------------\n");
  const std::vector<ac::ScenarioSpec> campaign = make_campaign(campaign_points);

  CampaignRun cached, plain, wide;
  for (int rep = 0; rep < 3; ++rep) {
    time_campaign(cached, campaign, 1, true);
    time_campaign(plain, campaign, 1, false);
  }
  const std::size_t campaign_workers = smoke ? 2 : std::min<std::size_t>(hardware, 8);
  time_campaign(wide, campaign, campaign_workers, true);

  for (const auto* results : {&cached.results, &plain.results, &wide.results})
    for (const ac::ScenarioResult& r : *results)
      if (!r.ok) {
        std::fprintf(stderr, "campaign scenario %s failed: %s\n", r.name.c_str(),
                     r.error.c_str());
        return 1;
      }
  // Bit-identity gate: cached (1 and N workers) vs the cache-less baseline.
  for (std::size_t i = 0; i < campaign.size(); ++i)
    for (const auto& [key, value] : plain.results[i].values) {
      if (cached.results[i].values.at(key) != value)
        return fail_campaign("cached values drifted from the no-cache baseline");
      if (wide.results[i].values.at(key) != value)
        return fail_campaign("multi-worker cached values drifted from the baseline");
    }

  const double hit_total = static_cast<double>(cached.cache.hits + cached.cache.misses);
  const double hit_rate =
      hit_total > 0.0 ? static_cast<double>(cached.cache.hits) / hit_total : 0.0;
  const double cached_rate =
      cached.seconds > 0.0 ? static_cast<double>(campaign.size()) / cached.seconds : 0.0;
  const double plain_rate =
      plain.seconds > 0.0 ? static_cast<double>(campaign.size()) / plain.seconds : 0.0;
  const double speedup =
      plain.seconds > 0.0 && cached.seconds > 0.0 ? plain.seconds / cached.seconds : 0.0;
  std::printf("  cache:   %llu hits / %llu misses (hit rate %.3f), %llu insertions, "
              "%llu evictions\n",
              static_cast<unsigned long long>(cached.cache.hits),
              static_cast<unsigned long long>(cached.cache.misses), hit_rate,
              static_cast<unsigned long long>(cached.cache.insertions),
              static_cast<unsigned long long>(cached.cache.evictions));
  std::printf("  dedup:   %llu of %llu submissions resolved without a solve\n",
              static_cast<unsigned long long>(cached.service.dedup_hits),
              static_cast<unsigned long long>(cached.service.submitted));
  std::printf("  cached   w=1:  %7.2f s, %9.1f scenarios/sec\n", cached.seconds, cached_rate);
  std::printf("  no-cache w=1:  %7.2f s, %9.1f scenarios/sec\n", plain.seconds, plain_rate);
  std::printf("  cached   w=%zu:  %7.2f s, %9.1f scenarios/sec\n", campaign_workers, wide.seconds,
              wide.seconds > 0.0 ? static_cast<double>(campaign.size()) / wide.seconds : 0.0);
  std::printf("  campaign headline: %.2fx scenarios/sec over no-cache at 1 worker\n\n", speedup);

  if (smoke) {
    if (hit_rate < 0.5) return fail_campaign("artifact-cache hit rate below 0.5");
    if (speedup < 2.0) return fail_campaign("cached throughput below 2x the no-cache baseline");
  }

  if (!report_path.empty()) {
    obs::Report report = obs::Report::capture("bench_scenario_throughput", an::thread_count());
    report.set_meta("smoke", smoke ? 1.0 : 0.0);
    report.set_meta("scenarios", static_cast<double>(reference.size()));
    report.set_meta("best_workers", static_cast<double>(best.workers));
    // Per-scenario isolated cost profiles from the serial reference run —
    // deterministic at any worker count, so CI gates them.
    for (const ac::ScenarioResult& r : reference) {
      report.add_counters(r.name, r.counters);
      report.add_gauges(r.name, r.gauges);
    }
    // Campaign cache/dedup totals from the serial cached run: submit order
    // is fixed and the worker drains FIFO, so these are exact constants CI
    // gates (check_report.py, plus the --cache-floor tripwire).
    report.set_meta("campaign.points", static_cast<double>(campaign.size()));
    report.set_meta("campaign.hit_rate", hit_rate);
    report.set_meta("campaign.speedup_vs_no_cache", speedup);
    report.add_counters("svc", {{"cache.hits", cached.cache.hits},
                                {"cache.misses", cached.cache.misses},
                                {"cache.insertions", cached.cache.insertions},
                                {"cache.evictions", cached.cache.evictions},
                                {"cache.dedup_hits", cached.service.dedup_hits},
                                {"scenarios.submitted", cached.service.submitted},
                                {"scenarios.executed", cached.service.executed}});
    report.write(report_path);
    std::printf("  run report written to %s\n", report_path.c_str());
  }
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "bench failed: %s\n", e.what());
  return 1;
} catch (...) {
  std::fprintf(stderr, "bench failed: unknown exception\n");
  return 1;
}
