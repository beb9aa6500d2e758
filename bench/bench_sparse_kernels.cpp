// BENCH-SPARSE — multithreaded sparse kernels + FV assembly caching.
//
// Sweeps FV grid sizes (8^3 -> 64^3) and thread counts, timing the hot
// kernels the Picard/transient loops sit on: SpMV on the 7-point stencil
// and on its CSR form, Jacobi- and multigrid-preconditioned CG, the one-time
// structure assembly vs the per-pass boundary rewrite (self times of their
// spans), and the full steady FV solve. Full runs also time the two mission
// grids (15x12x4 SEB box, 16x10x2 board; too thin to coarsen, so Jacobi CG)
// at 1 thread: stencil SpMV and Jacobi-CG time per iteration. Full runs emit
// BENCH_sparse_kernels.json (machine-readable, with its provenance) so later
// PRs can track the perf trajectory, plus the usual table on stdout.
//
// Headline numbers: 64^3 steady-solve speedup at 4 threads vs 1 thread, and
// the assembly time removed per Picard pass by structure caching.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>  // environ

#include "materials/solid.hpp"
#include "numeric/multigrid.hpp"
#include "numeric/parallel.hpp"
#include "numeric/sparse.hpp"
#include "numeric/stencil.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "thermal/fv.hpp"

namespace an = aeropack::numeric;
namespace at = aeropack::thermal;
namespace am = aeropack::materials;
namespace obs = aeropack::obs;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Median-of-reps wall time of fn() in milliseconds. Medians (not best-of)
/// because the reported speedup cells are ratios of two timings: a lucky
/// best-of outlier in either operand made the small-grid speedups pure
/// noise. Callers pass reps >= 5.
template <typename Fn>
double time_ms(int reps, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    samples.push_back(seconds_since(t0));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2] * 1e3;
}

/// Round-trip of an empty parallel dispatch (one no-op task per thread) on a
/// warm pool, median over many reps. Uses ThreadPool::run directly so the
/// grain layer cannot serialize it away — this is the raw scheduling cost
/// the grain thresholds exist to amortize.
double dispatch_overhead_ns(std::size_t threads) {
  an::ThreadPool pool(threads);
  const std::function<void(std::size_t)> noop = [](std::size_t) {};
  for (int w = 0; w < 32; ++w) pool.run(threads, noop);
  constexpr int kReps = 201;
  std::vector<double> samples;
  samples.reserve(kReps);
  for (int r = 0; r < kReps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    pool.run(threads, noop);
    samples.push_back(seconds_since(t0));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2] * 1e9;
}

/// An aluminum block with a hot component footprint and convective walls —
/// the same shape of problem the Fig. 4 model levels solve.
at::FvModel make_model(std::size_t n) {
  at::FvModel m(at::FvGrid::uniform(0.1, 0.1, 0.1, n, n, n));
  m.set_material(am::aluminum_6061());
  m.add_power({n / 4, (3 * n) / 4, n / 4, (3 * n) / 4, 0, std::max<std::size_t>(1, n / 8)},
              40.0);
  m.set_boundary(at::Face::ZMax, at::BoundaryCondition::convection(25.0, 300.0));
  m.set_boundary(at::Face::XMin, at::BoundaryCondition::convection(10.0, 300.0));
  return m;
}

struct ThreadTiming {
  std::size_t threads = 1;
  double spmv_ms = 0.0;          ///< CSR form
  double stencil_spmv_ms = 0.0;  ///< the same operator as a 7-point stencil
  double cg_ms = 0.0;
  std::size_t cg_iterations = 0;
  double steady_ms = 0.0;
  // Multigrid-preconditioned CG on the same system.
  double mg_cg_ms = 0.0;
  std::size_t mg_cg_iterations = 0;
};

struct GridResult {
  std::size_t n = 0;
  std::size_t cells = 0;
  std::size_t nonzeros = 0;
  double triplet_assembly_ms = 0.0;  ///< legacy path: builder + sort per pass
  double structure_build_ms = 0.0;   ///< fv.assemble_structure self time per call
  double boundary_update_ms = 0.0;   ///< fv.update_boundary self time per call
  std::vector<ThreadTiming> timings;
};

/// Accumulated self time (span time minus direct child spans) and calls of
/// every span named `name` in the current registry's tree.
struct SpanTotals {
  double self_s = 0.0;
  std::uint64_t calls = 0;
  double ms_per_call_since(const SpanTotals& before) const {
    const std::uint64_t n = calls - before.calls;
    return n > 0 ? 1e3 * (self_s - before.self_s) / static_cast<double>(n) : 0.0;
  }
};

SpanTotals span_totals(const std::string& name) {
  const std::vector<obs::TimerEntry> timers = obs::current().timers();
  SpanTotals out;
  for (std::size_t e = 0; e < timers.size(); ++e) {
    const obs::TimerEntry& t = timers[e];
    const std::size_t slash = t.path.rfind('/');
    if (t.path.compare(slash == std::string::npos ? 0 : slash + 1, std::string::npos, name) != 0)
      continue;
    double self = t.seconds;
    for (std::size_t c = e + 1; c < timers.size() && timers[c].depth > t.depth; ++c)
      if (timers[c].depth == t.depth + 1) self -= timers[c].seconds;
    out.self_s += self;
    out.calls += t.calls;
  }
  return out;
}

/// Unit 7-point couplings with a film-like 1e-3 diagonal shift (SPD). The
/// neighbours are added to the diagonal one at a time: the gated CG
/// iteration counts (bench/expected/) depend on these exact bits.
an::Stencil film_poisson(an::GridShape s) {
  an::Stencil st(s);
  for (std::size_t k = 0; k < s.nz; ++k)
    for (std::size_t j = 0; j < s.ny; ++j)
      for (std::size_t i = 0; i < s.nx; ++i) {
        const std::size_t c = i + s.nx * (j + s.ny * k);
        if (i + 1 < s.nx) st.wx[c] = -1.0;
        if (j + 1 < s.ny) st.wy[c] = -1.0;
        if (k + 1 < s.nz) st.wz[c] = -1.0;
        const std::size_t neighbours = (i > 0) + (i + 1 < s.nx) + (j > 0) + (j + 1 < s.ny) +
                                       (k > 0) + (k + 1 < s.nz);
        double diag = 1e-3;
        for (std::size_t q = 0; q < neighbours; ++q) diag += 1.0;
        st.diag[c] = diag;
      }
  return st;
}

/// One mission grid at 1 thread.
struct MissionShape {
  an::GridShape shape;
  double stencil_spmv_us = 0.0;
  double csr_spmv_us = 0.0;
  std::size_t cg_iterations = 0;
  double cg_us_per_iteration = 0.0;  ///< stencil Jacobi CG, the mission march's solver
};

/// A 1-3 us kernel is timed in batches of `batch` calls, median of 9.
MissionShape time_mission_shape(an::GridShape s) {
  constexpr int kBatch = 200, kReps = 9;
  const an::Stencil st = film_poisson(s);
  const an::CsrMatrix a = st.view().to_csr();
  const an::Vector x(s.cells(), 1.0);
  an::Vector y;
  MissionShape m;
  m.shape = s;
  m.stencil_spmv_us = 1e3 / kBatch * time_ms(kReps, [&] {
                        for (int b = 0; b < kBatch; ++b) st.view().multiply(x, y);
                      });
  m.csr_spmv_us = 1e3 / kBatch * time_ms(kReps, [&] {
                    for (int b = 0; b < kBatch; ++b) a.multiply(an::current_pool(), x, y);
                  });
  an::IterativeResult cg;
  const double cg_ms = time_ms(kReps, [&] { cg = an::conjugate_gradient(st.view(), x); });
  m.cg_iterations = cg.iterations;
  m.cg_us_per_iteration = cg.iterations > 0 ? 1e3 * cg_ms / static_cast<double>(cg.iterations)
                                            : 0.0;
  return m;
}

/// Rebuild-from-triplets cost the old Picard loop paid on every pass.
double legacy_assembly_ms(const an::CsrMatrix& pattern, int reps) {
  return time_ms(reps, [&] {
    an::SparseBuilder b(pattern.rows(), pattern.cols());
    for (std::size_t i = 0; i < pattern.rows(); ++i)
      for (std::size_t k = pattern.row_ptr()[i]; k < pattern.row_ptr()[i + 1]; ++k)
        b.add(i, pattern.col_idx()[k], pattern.values()[k]);
    const an::CsrMatrix rebuilt = b.build();
    (void)rebuilt;
  });
}

/// Where a full run came from: source revision, build type, and every
/// AEROPACK_* environment variable that steers the kernels.
std::string provenance_json(std::size_t hardware) {
  std::string env;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("AEROPACK_", 0) != 0 || kv.find('"') != std::string::npos) continue;
    const std::size_t eq = kv.find('=');
    if (eq == std::string::npos) continue;
    env += (env.empty() ? "\"" : ", \"") + kv.substr(0, eq) + "\": \"" + kv.substr(eq + 1) + "\"";
  }
  return std::string("{\"git_sha\": \"") + AEROPACK_BENCH_GIT_SHA + "\", \"build_type\": \"" +
         AEROPACK_BENCH_BUILD_TYPE + "\", \"hardware_threads\": " + std::to_string(hardware) +
         ", \"env\": {" + env + "}}";
}

void write_json(const std::string& path, std::size_t hardware,
                const std::vector<std::size_t>& thread_counts,
                const std::vector<double>& dispatch_ns,
                const std::vector<GridResult>& grids,
                const std::vector<MissionShape>& mission) {
  std::ofstream out(path);
  if (!out) {
    std::printf("  (could not write %s)\n", path.c_str());
    return;
  }
  out << "{\n  \"bench\": \"sparse_kernels\",\n";
  out << "  \"provenance\": " << provenance_json(hardware) << ",\n";
  out << "  \"hardware_threads\": " << hardware << ",\n";
  out << "  \"thread_counts\": [";
  for (std::size_t i = 0; i < thread_counts.size(); ++i)
    out << thread_counts[i] << (i + 1 < thread_counts.size() ? ", " : "");
  out << "],\n  \"dispatch_overhead_ns\": [\n";
  for (std::size_t i = 0; i < thread_counts.size(); ++i)
    out << "    {\"threads\": " << thread_counts[i] << ", \"ns\": " << dispatch_ns[i]
        << "}" << (i + 1 < thread_counts.size() ? ",\n" : "\n");
  out << "  ],\n  \"grids\": [\n";
  for (std::size_t g = 0; g < grids.size(); ++g) {
    const GridResult& r = grids[g];
    out << "    {\n      \"n\": " << r.n << ", \"cells\": " << r.cells
        << ", \"nonzeros\": " << r.nonzeros << ",\n";
    out << "      \"triplet_assembly_ms\": " << r.triplet_assembly_ms
        << ", \"structure_build_ms\": " << r.structure_build_ms
        << ", \"boundary_update_ms\": " << r.boundary_update_ms << ",\n";
    out << "      \"threads\": [\n";
    for (std::size_t t = 0; t < r.timings.size(); ++t) {
      const ThreadTiming& tt = r.timings[t];
      out << "        {\"threads\": " << tt.threads << ", \"spmv_ms\": " << tt.spmv_ms
          << ", \"stencil_spmv_ms\": " << tt.stencil_spmv_ms << ", \"cg_ms\": " << tt.cg_ms
          << ", \"cg_iterations\": " << tt.cg_iterations
          << ", \"mg_cg_ms\": " << tt.mg_cg_ms
          << ", \"mg_cg_iterations\": " << tt.mg_cg_iterations
          << ", \"steady_ms\": " << tt.steady_ms
          << ", \"steady_speedup_vs_1\": "
          << (tt.steady_ms > 0.0 ? r.timings.front().steady_ms / tt.steady_ms : 0.0) << "}"
          << (t + 1 < r.timings.size() ? ",\n" : "\n");
    }
    out << "      ]\n    }" << (g + 1 < grids.size() ? ",\n" : "\n");
  }
  out << "  ],\n  \"mission_shapes\": [\n";
  for (std::size_t m = 0; m < mission.size(); ++m) {
    const MissionShape& ms = mission[m];
    out << "    {\"nx\": " << ms.shape.nx << ", \"ny\": " << ms.shape.ny
        << ", \"nz\": " << ms.shape.nz << ", \"cells\": " << ms.shape.cells()
        << ", \"threads\": 1, \"stencil_spmv_us\": " << ms.stencil_spmv_us
        << ", \"csr_spmv_us\": " << ms.csr_spmv_us << ", \"cg_iterations\": " << ms.cg_iterations
        << ", \"cg_us_per_iteration\": " << ms.cg_us_per_iteration << "}"
        << (m + 1 < mission.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  std::printf("  series written to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) try {
  // --smoke: smallest grid + fixed {1,2} thread sweep, the configuration the
  // CI bench-smoke job freezes counter expectations for (bench/expected/).
  // Smoke runs write no BENCH_* file: the committed trajectory holds full
  // runs only.
  // --scaling: 32^3 only, threads {1, 2} — the cheap configuration the CI
  // speedup-floor gate (tools/check_report.py --speedups) runs against;
  // writes BENCH_sparse_scaling.json.
  // --report <out.json>: enable telemetry and write the obs run report.
  bool smoke = false;
  bool scaling = false;
  std::string report_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--scaling") {
      scaling = true;
    } else if (arg == "--report" && i + 1 < argc) {
      report_path = argv[++i];
    } else if (arg.rfind("--report=", 0) == 0) {
      report_path = arg.substr(std::string("--report=").size());
    } else {
      std::fprintf(stderr,
                   "unknown argument: %s (supported: --smoke, --scaling, --report <out.json>)\n",
                   arg.c_str());
      return 2;
    }
  }
  if (!report_path.empty()) obs::enable();

  std::printf("\n================================================================\n");
  std::printf("BENCH-SPARSE — multithreaded sparse kernels + FV assembly caching\n");
  std::printf("SpMV / CG / steady FV solve vs grid size and AEROPACK_THREADS\n");
  std::printf("================================================================\n");

  const std::size_t hardware = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::size_t> thread_counts{1, 2, 4};
  if (hardware > 4) thread_counts.push_back(hardware);
  std::vector<std::size_t> sizes{8, 16, 32, 64};
  if (smoke) {
    sizes = {8};
    thread_counts = {1, 2};
    std::printf("  smoke mode: n=8^3 only, threads {1, 2}\n");
  } else if (scaling) {
    sizes = {32};
    thread_counts = {1, 2};
    std::printf("  scaling mode: n=32^3 only, threads {1, 2}\n");
  }
  std::printf("  hardware threads: %zu\n\n", hardware);

  std::printf("  dispatch overhead (empty parallel dispatch, warm pool):\n");
  std::vector<double> dispatch_ns;
  for (const std::size_t t : thread_counts) {
    dispatch_ns.push_back(dispatch_overhead_ns(t));
    std::printf("    threads=%zu  %8.0f ns\n", t, dispatch_ns.back());
  }
  std::printf("\n");

  std::vector<GridResult> results;

  for (const std::size_t n : sizes) {
    GridResult res;
    res.n = n;
    res.cells = n * n * n;
    // Median-of-k needs k >= 5 on every cell — the former single-shot 64^3
    // timing is exactly what made speedup columns unreproducible.
    const int reps = 5;

    const at::FvModel model = make_model(n);

    an::set_thread_count(1);
    at::FvOptions opts;

    // 7-point operator equivalent to the FV system for kernel micro-benches:
    // multigrid CG needs the stencil, the CSR columns take its to_csr().
    {
      const an::Stencil st = film_poisson({n, n, n});
      const an::CsrMatrix a = st.view().to_csr();
      res.nonzeros = a.nonzeros();
      res.triplet_assembly_ms = legacy_assembly_ms(a, reps);

      an::Vector x(res.cells, 1.0);
      an::Vector rhs(res.cells, 1.0);
      for (const std::size_t t : thread_counts) {
        an::set_thread_count(t);
        ThreadTiming tt;
        tt.threads = t;
        tt.spmv_ms = time_ms(std::max(reps, 3), [&] {
          const an::Vector y = a.multiply(x);
          (void)y;
        });
        {
          // A timing probe only: telemetry is paused so the smoke run's
          // counter profile (bench/expected/) counts the solver kernels,
          // not this extra column.
          const bool armed = obs::enabled();
          obs::disable();
          an::Vector y;
          tt.stencil_spmv_ms = time_ms(std::max(reps, 3), [&] { st.view().multiply(x, y); });
          if (armed) obs::enable();
        }
        an::IterativeResult cg;
        tt.cg_ms = time_ms(reps, [&] { cg = an::conjugate_gradient(a, rhs); });
        tt.cg_iterations = cg.iterations;
        an::Multigrid mg(an::multigrid_levels(n, n, n));
        an::IterativeResult mcg;
        tt.mg_cg_ms =
            time_ms(reps, [&] { mcg = an::conjugate_gradient(st.view(), rhs, {}, nullptr, &mg); });
        tt.mg_cg_iterations = mcg.iterations;
        tt.steady_ms = time_ms(reps, [&] {
          const auto sol = model.solve_steady(opts);
          (void)sol;
        });
        res.timings.push_back(tt);
      }
    }

    // Cached-assembly costs from the span tree: over 12-step transient
    // micro-marches, the self times of the one-time structure build and of
    // the per-step boundary rewrite (the warm CG solve is a separate span).
    an::set_thread_count(1);
    {
      const bool armed = obs::enabled();
      obs::enable();
      const SpanTotals update0 = span_totals("fv.update_boundary");
      const SpanTotals build0 = span_totals("fv.assemble_structure");
      for (int r = 0; r < reps; ++r) {
        const auto tr = model.solve_transient(12.0, 1.0, 300.0, opts);
        (void)tr;
      }
      res.boundary_update_ms = span_totals("fv.update_boundary").ms_per_call_since(update0);
      res.structure_build_ms = span_totals("fv.assemble_structure").ms_per_call_since(build0);
      if (!armed) obs::disable();
    }

    results.push_back(res);
    std::printf("  n=%2zu^3 (%7zu cells, %8zu nnz): triplet rebuild %8.3f ms/pass, "
                "structure build %8.3f ms, boundary rewrite %8.3f ms\n",
                n, res.cells, res.nonzeros, res.triplet_assembly_ms, res.structure_build_ms,
                res.boundary_update_ms);
  }
  std::vector<MissionShape> mission;
  if (!smoke && !scaling) {
    // Timing probes only, like the stencil column: telemetry is paused.
    const bool armed = obs::enabled();
    obs::disable();
    an::set_thread_count(1);
    for (const an::GridShape s : {an::GridShape{15, 12, 4}, an::GridShape{16, 10, 2}})
      mission.push_back(time_mission_shape(s));
    if (armed) obs::enable();
  }
  an::set_thread_count(0);

  std::printf("\n  %-8s | %-8s | %-10s | %-10s | %-10s | %-12s | %-10s\n", "grid", "threads",
              "spmv [ms]", "stencil", "cg [ms]", "steady [ms]", "speedup");
  std::printf("  ---------+----------+------------+------------+------------+--------------+"
              "----------\n");
  for (const GridResult& r : results)
    for (const ThreadTiming& tt : r.timings)
      std::printf("  %2zu^3     | %8zu | %10.3f | %10.3f | %10.3f | %12.3f | %9.2fx\n", r.n,
                  tt.threads, tt.spmv_ms, tt.stencil_spmv_ms, tt.cg_ms, tt.steady_ms,
                  tt.steady_ms > 0.0 ? r.timings.front().steady_ms / tt.steady_ms : 0.0);

  const GridResult& big = results.back();
  const auto four = std::find_if(big.timings.begin(), big.timings.end(),
                                 [](const ThreadTiming& t) { return t.threads == 4; });
  if (four != big.timings.end() && four->steady_ms > 0.0)
    std::printf("\n  headline: 64^3 steady solve %.2fx at 4 threads vs 1 thread"
                " (%zu hardware threads available)\n",
                big.timings.front().steady_ms / four->steady_ms, hardware);
  std::printf("  headline: structure caching removes %.3f ms of triplet rebuild per"
              " Picard pass on 64^3\n\n",
              big.triplet_assembly_ms);

  for (const GridResult& r : results) {
    const ThreadTiming& tt = r.timings.front();
    std::printf("  multigrid CG on %zu^3: %zu -> %zu iterations, %.3f -> %.3f ms (1 thread)\n",
                r.n, tt.cg_iterations, tt.mg_cg_iterations, tt.cg_ms, tt.mg_cg_ms);
  }

  for (const MissionShape& m : mission)
    std::printf("  mission grid %zux%zux%zu (1 thread): stencil spmv %.3f us (csr %.3f us), "
                "Jacobi CG %zu iterations at %.3f us/iteration\n",
                m.shape.nx, m.shape.ny, m.shape.nz, m.stencil_spmv_us, m.csr_spmv_us,
                m.cg_iterations, m.cg_us_per_iteration);

  if (smoke)
    std::printf("  smoke mode: no BENCH_* file written\n");
  else
    write_json(scaling ? "BENCH_sparse_scaling.json" : "BENCH_sparse_kernels.json", hardware,
               thread_counts, dispatch_ns, results, mission);

  if (!report_path.empty()) {
    obs::Report report = obs::Report::capture("bench_sparse_kernels", an::thread_count());
    report.set_meta("smoke", smoke ? 1.0 : 0.0);
    report.set_meta("largest_cells", static_cast<double>(results.back().cells));
    report.set_meta("largest_nonzeros", static_cast<double>(results.back().nonzeros));
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
