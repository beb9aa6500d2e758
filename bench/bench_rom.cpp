// BENCH-ROM — compact-model evaluation speed vs. the full FV solve.
//
// The paper's Fig. 4 hierarchy only works if the component-level compact
// model is cheap enough to embed by the dozen inside an equipment network:
// a DELPHI-style multi-port model must answer a boundary-condition change in
// microseconds where the detailed model needs a full linear solve. This
// bench builds the Fig. 2 board and SEB box compact models (aeropack::rom),
// then times one steady evaluation of each against the full FV solve of the
// identical operating point on a warm model (structure assembled, solver
// caches hot) and reports the speedup. The acceptance bar — ROM >= 100x
// faster than the cached full-order solve — is enforced: the bench exits
// nonzero below it, so CI keeps the reduction honest.
//
// --smoke runs a reduced repetition count for the CI bench-smoke job and
// writes no BENCH_* file (full runs write BENCH_rom.json); the
// deterministic rom.* / fv.* counters land in the --report JSON and are
// gated against bench/expected/bench_rom.expected.json. The wall-clock
// counter rom.snapshot_build.elapsed_us is deliberately excluded from the
// expectation file (tools/check_report.py skips the rom.snapshot_build.
// prefix at --update time).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "numeric/parallel.hpp"
#include "obs/report.hpp"
#include "rom/canonical.hpp"
#include "rom/rom.hpp"
#include "thermal/fv.hpp"

namespace ar = aeropack::rom;
namespace an = aeropack::numeric;
namespace at = aeropack::thermal;
namespace obs = aeropack::obs;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

struct CasePoint {
  std::string name;
  std::size_t cells = 0;
  std::size_t rank = 0;
  double build_s = 0.0;
  double fv_us = 0.0;
  double rom_us = 0.0;
  double speedup = 0.0;
  double port_temp_diff = 0.0;  // max |T_rom - T_fv| at the ports [K]
};

/// Time one case: build the compact model, then race a ROM steady
/// evaluation against the full FV solve of the same operating point. The FV
/// model is configured once and solved repeatedly, so its structure cache is
/// warm — the comparison is against the *cached* full-order path, the
/// cheapest solve the detailed model can offer.
CasePoint run_case(const std::string& name, const ar::CanonicalCase& c,
                   const ar::RomInputs& inputs, std::size_t fv_reps, std::size_t rom_reps) {
  CasePoint point;
  point.name = name;
  point.cells = c.model.grid().cell_count();

  auto t0 = std::chrono::steady_clock::now();
  const ar::RomModel rom = ar::build_rom(c.model, c.spec);
  point.build_s = seconds_since(t0);
  point.rank = rom.rank();

  at::FvModel full = c.model;
  ar::apply_inputs(full, c.spec, inputs);
  at::FvSolution fv_sol = full.solve_steady();  // warm the caches
  t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < fv_reps; ++i) fv_sol = full.solve_steady();
  point.fv_us = 1e6 * seconds_since(t0) / static_cast<double>(fv_reps);

  ar::RomSteadyResult rom_sol = rom.steady(inputs);
  t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < rom_reps; ++i) rom_sol = rom.steady(inputs);
  point.rom_us = 1e6 * seconds_since(t0) / static_cast<double>(rom_reps);

  point.speedup = point.rom_us > 0.0 ? point.fv_us / point.rom_us : 0.0;

  const an::Vector fv_ports =
      ar::port_surface_temperatures(c.model, c.spec, fv_sol.temperatures);
  for (std::size_t p = 0; p < rom.port_count(); ++p)
    point.port_temp_diff =
        std::max(point.port_temp_diff, std::abs(rom_sol.port_temperatures[p] - fv_ports[p]));
  return point;
}

void write_json(const std::string& path, const std::vector<CasePoint>& points) {
  std::ofstream out(path);
  if (!out) {
    std::printf("  (could not write %s)\n", path.c_str());
    return;
  }
  out << "{\n  \"bench\": \"rom\",\n  \"cases\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const CasePoint& p = points[i];
    out << "    {\"name\": \"" << p.name << "\", \"cells\": " << p.cells
        << ", \"rank\": " << p.rank << ", \"build_s\": " << p.build_s
        << ", \"fv_us\": " << p.fv_us << ", \"rom_us\": " << p.rom_us
        << ", \"speedup\": " << p.speedup << ", \"port_temp_diff_k\": " << p.port_temp_diff
        << "}" << (i + 1 < points.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  std::printf("  series written to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) try {
  bool smoke = false;
  std::string report_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--report" && i + 1 < argc) {
      report_path = argv[++i];
    } else if (arg.rfind("--report=", 0) == 0) {
      report_path = arg.substr(std::string("--report=").size());
    } else {
      std::fprintf(stderr, "unknown argument: %s (supported: --smoke, --report <out.json>)\n",
                   arg.c_str());
      return 2;
    }
  }
  if (!report_path.empty()) obs::enable();

  std::printf("\n================================================================\n");
  std::printf("BENCH-ROM — compact-model evaluation vs. cached full FV solve\n");
  std::printf("Fig. 4 component-level reduction: microseconds per what-if\n");
  std::printf("================================================================\n");
  if (smoke) std::printf("  smoke mode: reduced repetitions\n");

  const std::size_t fv_reps = smoke ? 3 : 20;
  const std::size_t rom_reps = smoke ? 2000 : 20000;

  ar::RomInputs board_in;
  board_in.sink_temperatures = {313.15, 318.15, 303.15};
  board_in.map_powers = {12.0, 8.0};
  ar::RomInputs seb_in;
  seb_in.sink_temperatures = {308.15, 308.15, 298.15};
  seb_in.map_powers = {45.0, 15.0};

  std::vector<CasePoint> points;
  points.push_back(run_case("fig2_board", ar::fig2_board(), board_in, fv_reps, rom_reps));
  points.push_back(run_case("seb_box", ar::seb_box(), seb_in, fv_reps, rom_reps));

  std::printf("\n  %-12s | %6s | %4s | %9s | %10s | %9s | %9s | %10s\n", "case", "cells",
              "rank", "build [s]", "fv [us]", "rom [us]", "speedup", "dT_port[K]");
  std::printf("  -------------+--------+------+-----------+------------+-----------+-----------+-----------\n");
  for (const CasePoint& p : points)
    std::printf("  %-12s | %6zu | %4zu | %9.3f | %10.1f | %9.3f | %8.0fx | %10.2e\n",
                p.name.c_str(), p.cells, p.rank, p.build_s, p.fv_us, p.rom_us, p.speedup,
                p.port_temp_diff);

  if (smoke)
    std::printf("  smoke mode: no BENCH_* file written\n");
  else
    write_json("BENCH_rom.json", points);

  if (!report_path.empty()) {
    obs::Report report = obs::Report::capture("bench_rom", an::thread_count());
    report.set_meta("smoke", smoke ? 1.0 : 0.0);
    report.write(report_path);
    std::printf("  run report written to %s\n", report_path.c_str());
  }

  // Acceptance bar from the reduction pipeline: a compact model that is not
  // at least 100x cheaper than the cached detailed solve defeats the point
  // of the Fig. 4 hierarchy. Fail loudly so CI catches the regression.
  bool ok = true;
  for (const CasePoint& p : points)
    if (p.speedup < 100.0) {
      std::fprintf(stderr, "FAIL: %s speedup %.1fx < 100x acceptance bar\n", p.name.c_str(),
                   p.speedup);
      ok = false;
    }
  if (ok)
    std::printf("\n  headline: ROM evaluation %.0fx / %.0fx faster than the cached"
                " full-order solve (bar: 100x)\n\n",
                points[0].speedup, points[1].speedup);
  return ok ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "bench failed: %s\n", e.what());
  return 1;
} catch (...) {
  std::fprintf(stderr, "bench failed: unknown exception\n");
  return 1;
}
