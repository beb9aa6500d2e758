// The traced run: every workload driven with spans and telemetry on, a
// fixed-length 1-worker prefix for exact counts, and direct calls into each
// module's public functions, each timed inside its own span.
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/seb.hpp"
#include "exec/context.hpp"
#include "fem/modal.hpp"
#include "fem/plate.hpp"
#include "materials/solid.hpp"
#include "mission/profile.hpp"
#include "mission/transient.hpp"
#include "modes.hpp"
#include "numeric/sparse.hpp"
#include "rom/canonical.hpp"
#include "rom/rom.hpp"
#include "thermal/fv.hpp"
#include "thermal/network.hpp"

namespace aeropack::perf {

namespace {

// ---- the per-layer metric table --------------------------------------------

/// How a per-layer number was obtained.
///  measured: timed or counted while the call ran;
///  derived:  arithmetic on measured numbers (differences, ratios);
///  computed: from array sizes or other static facts, nothing timed.
enum class Kind { Measured, Derived, Computed };

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::Measured: return "measured";
    case Kind::Derived: return "derived";
    case Kind::Computed: return "computed";
  }
  return "?";
}

struct LayerSpec {
  std::string name;  ///< without the workload prefix for scoped metrics
  std::string unit;
  std::string better;
  Kind kind;
  std::string moves;  ///< end-to-end metric and workload it should move
};

// Metrics measured per workload, named "<workload>.<metric>"; each should
// move the named end-to-end metric of its own workload.
const std::vector<LayerSpec>& scoped_specs() {
  static const std::vector<LayerSpec> specs = {
      {"core.spec.content_hash_us", "us", "lower", Kind::Measured, "latency_p50_ms"},
      {"core.svc.submit_us", "us", "lower", Kind::Measured, "latency_p50_ms"},
      {"core.svc.overhead_us", "us", "lower", Kind::Derived, "latency_p50_ms"},
      {"core.svc.dedup_ratio", "ratio", "higher", Kind::Derived, "scenarios_per_s"},
      {"core.cache.hit_ratio", "ratio", "higher", Kind::Derived,
       "setup_s, scenarios_per_s, peak_rss_mb"},
      {"core.cache.misses", "count", "lower", Kind::Measured,
       "setup_s, scenarios_per_s, peak_rss_mb"},
      {"core.cache.insertions", "count", "lower", Kind::Measured,
       "setup_s, scenarios_per_s, peak_rss_mb"},
      {"core.cache.bytes", "bytes", "lower", Kind::Measured,
       "setup_s, scenarios_per_s, peak_rss_mb"},
      {"obs.trace_overhead_frac", "ratio", "lower", Kind::Derived, "nothing (tracing cost)"},
  };
  return specs;
}

LayerSpec graph_spec(const std::string& graph) {
  return {"core.svc.graph." + graph + ".p50_ms", "ms", "lower", Kind::Measured,
          "scenarios_per_s"};
}

// Metrics of direct layer calls, the same in every traced run.
const std::vector<LayerSpec>& probe_specs() {
  static const std::vector<LayerSpec> specs = {
      {"exec.context_setup_us", "us", "lower", Kind::Measured,
       "latency_p50_ms on steady_fv (one 2-thread context per solve)"},
      {"numeric.cg_ms", "ms", "lower", Kind::Measured, "latency_p50_ms on steady_fv"},
      {"numeric.cg_ms_1t", "ms", "lower", Kind::Measured, "latency_p50_ms on steady_fv"},
      {"numeric.cg_speedup", "ratio", "higher", Kind::Derived, "latency_p50_ms on steady_fv"},
      {"numeric.cg_iterations", "count", "lower", Kind::Measured, "latency_p50_ms on steady_fv"},
      {"numeric.cg_us_per_iter", "us", "lower", Kind::Derived, "latency_p50_ms on steady_fv"},
      {"numeric.spmv_us", "us", "lower", Kind::Measured, "latency_p50_ms on steady_fv"},
      {"numeric.spmv_bytes_computed", "bytes", "lower", Kind::Computed,
       "latency_p50_ms on steady_fv"},
      {"numeric.spmv_flops_per_byte_computed", "flop/byte", "higher", Kind::Computed,
       "latency_p50_ms on steady_fv"},
      {"thermal.fv_assembly_ms", "ms", "lower", Kind::Measured, "setup_s on steady_fv"},
      {"thermal.fv_solve_ms", "ms", "lower", Kind::Measured, "latency_p50_ms on steady_fv"},
      {"thermal.fv_solve_self_ms", "ms", "lower", Kind::Derived, "latency_p50_ms on steady_fv"},
      {"thermal.fv_step_us", "us", "lower", Kind::Measured,
       "scenarios_per_s, latency_tail_ms on mission_campaign"},
      {"thermal.network_picard_passes", "count", "lower", Kind::Derived,
       "latency_p50_ms on design_sweep"},
      {"fem.factorize_ms", "ms", "lower", Kind::Measured, "setup_s on design_sweep"},
      {"fem.modal_solve_ms", "ms", "lower", Kind::Measured,
       "scenarios_per_s, latency_tail_ms on design_sweep"},
      {"fem.subspace_iterations", "count", "lower", Kind::Measured,
       "scenarios_per_s, latency_tail_ms on design_sweep"},
      {"rom.build_ms", "ms", "lower", Kind::Measured,
       "setup_s on design_sweep and mission_campaign"},
      {"rom.steady_us", "us", "lower", Kind::Measured, "latency_p50_ms on design_sweep"},
      {"mission.fv_march_ms", "ms", "lower", Kind::Measured,
       "scenarios_per_s, latency_tail_ms on mission_campaign"},
      {"mission.steps", "count", "lower", Kind::Measured,
       "scenarios_per_s, latency_tail_ms on mission_campaign"},
      {"mission.step_rejections", "count", "lower", Kind::Measured,
       "scenarios_per_s, latency_tail_ms on mission_campaign"},
      {"mission.cg_iterations", "count", "lower", Kind::Measured,
       "scenarios_per_s, latency_tail_ms on mission_campaign"},
      {"mission.rom_march_ms", "ms", "lower", Kind::Measured,
       "latency_p50_ms on mission_campaign"},
      {"mission.network_march_ms", "ms", "lower", Kind::Measured,
       "latency_p50_ms on mission_campaign"},
      {"core.seb_solve_us", "us", "lower", Kind::Measured, "latency_p50_ms on design_sweep"},
  };
  return specs;
}

/// Every per-layer metric in output order.
std::vector<LayerSpec> all_specs() {
  std::vector<LayerSpec> out;
  for (const WorkloadConfig& cfg : workload_configs()) {
    std::vector<LayerSpec> scoped = scoped_specs();
    for (const std::string& g : cfg.graphs) scoped.push_back(graph_spec(g));
    for (LayerSpec& s : scoped) {
      s.name = cfg.name + "." + s.name;
      s.moves += " on " + cfg.name;
      out.push_back(std::move(s));
    }
  }
  for (const LayerSpec& s : probe_specs()) out.push_back(s);
  return out;
}

/// Per-layer values by name.
using Sheet = std::map<std::string, double>;

// ---- timing helpers ---------------------------------------------------------

/// Keeps a computed value alive so a timed loop is not optimised away.
template <typename T>
void keep(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

template <typename Fn>
double time_s(Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  return seconds_between(t0, Clock::now());
}

/// Median wall time of `repeats` calls, each inside its own span.
template <typename Fn>
double median_s(int repeats, Tracer& tracer, std::uint64_t parent, const char* name, Fn&& fn) {
  std::vector<double> t;
  for (int r = 0; r < repeats; ++r) {
    ScopedSpan span(&tracer, parent, "layers", name);
    t.push_back(time_s(fn));
  }
  return median(t);
}

std::uint64_t counter(const ExecutionContext& ctx, const std::string& name) {
  const auto counters = ctx.metrics().counters();
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

/// Self time of one span path in a context's timers: its total minus the
/// totals of its direct children [s].
double self_seconds(const ExecutionContext& ctx, const std::string& path) {
  double self = 0.0;
  for (const obs::TimerEntry& t : ctx.metrics().timers()) {
    if (t.path == path) self += t.seconds;
    if (t.path.rfind(path + "/", 0) == 0 && t.path.find('/', path.size() + 1) == std::string::npos)
      self -= t.seconds;
  }
  return self;
}

// ---- per workload -----------------------------------------------------------

// A window long enough that only the prefix length ends it [s].
constexpr double kNoDeadline = 3600.0;

// Fixed prefix lengths of the 1-worker exact-count runs.
std::size_t exact_prefix(const std::string& workload) {
  if (workload == "design_sweep") return 2000;
  if (workload == "steady_fv") return 2;
  return 100;
}

CheckResult trace_workload(const Options& opt, const WorkloadConfig& cfg, Tracer& tracer,
                           Sheet& sheet) {
  const std::string p = cfg.name + ".";
  const double window = 0.25 * opt.seconds;
  const std::size_t count = item_count(cfg, opt.seconds);
  const std::size_t all = std::numeric_limits<std::size_t>::max();

  // Untraced and traced windows of the same workload: their throughput
  // difference is what tracing costs.
  double untraced_rate = 0.0;
  {
    Prepared u = prepare(cfg.name, opt.seed, count, /*telemetry=*/false);
    const Window win = run_window(*u.service, u.workload, window, all);
    untraced_rate = static_cast<double>(win.samples.size()) / win.wall_s;
  }

  ScopedSpan root(&tracer, 0, cfg.name, "workload", cfg.name);
  Prepared t = [&] {
    ScopedSpan span(&tracer, root.id(), cfg.name, "setup");
    return prepare(cfg.name, opt.seed, count, /*telemetry=*/true);
  }();
  const Window win = run_window(*t.service, t.workload, window, all, &tracer, root.id());
  if (win.samples.empty()) throw std::runtime_error(cfg.name + ": no scenario completed");
  const double traced_rate = static_cast<double>(win.samples.size()) / win.wall_s;
  sheet[p + "obs.trace_overhead_frac"] = (untraced_rate - traced_rate) / untraced_rate;

  std::vector<double> submit, overhead;
  std::map<std::string, std::vector<double>> per_graph;
  for (const Sample& s : win.samples) {
    const Item& item = t.workload.items[s.item];
    submit.push_back(s.submit_s);
    // A re-submission returns the earlier solve's result and seconds.
    if (!item.resubmission) overhead.push_back(s.latency_s - s.result.seconds);
    per_graph[item.spec.graph].push_back(s.latency_s);
  }
  sheet[p + "core.svc.submit_us"] = 1e6 * median(submit);
  sheet[p + "core.svc.overhead_us"] = 1e6 * median(overhead);
  for (const std::string& g : cfg.graphs) {
    const auto it = per_graph.find(g);
    if (it == per_graph.end()) throw std::runtime_error(cfg.name + ": no " + g + " completed");
    sheet[p + graph_spec(g).name] = 1e3 * median(it->second);
  }
  CheckResult check = check_outputs(t.workload, t.primes, win, opt.refs, /*recheck=*/false);
  t.service.reset();

  // Content hashing over the workload's own specs.
  std::vector<double> per_spec;
  for (int r = 0; r < 3; ++r) {
    ScopedSpan span(&tracer, root.id(), cfg.name, "core.spec.content_hash");
    const double s = time_s([&] {
      for (const Item& item : t.workload.items) keep(item.spec.content_hash());
    });
    per_spec.push_back(s / static_cast<double>(t.workload.items.size()));
  }
  sheet[p + "core.spec.content_hash_us"] = 1e6 * median(per_spec);

  // Exact counts: a fixed prefix on one worker and one client, so cache and
  // dedup counters repeat run to run.
  {
    ScopedSpan span(&tracer, root.id(), cfg.name, "exact_prefix");
    Prepared e = prepare(cfg.name, opt.seed, count, /*telemetry=*/true, /*workers=*/1);
    e.workload.cfg.clients = 1;
    const Window ew = run_window(*e.service, e.workload, kNoDeadline, exact_prefix(cfg.name));
    const core::ArtifactCacheStats cs = e.service->cache().stats();
    const core::ScenarioServiceStats ss = e.service->stats();
    const double lookups = static_cast<double>(cs.hits + cs.misses);
    sheet[p + "core.cache.hit_ratio"] = lookups > 0 ? static_cast<double>(cs.hits) / lookups : 0;
    sheet[p + "core.cache.misses"] = static_cast<double>(cs.misses);
    sheet[p + "core.cache.insertions"] = static_cast<double>(cs.insertions);
    sheet[p + "core.cache.bytes"] = static_cast<double>(cs.bytes);
    sheet[p + "core.svc.dedup_ratio"] =
        static_cast<double>(ss.dedup_hits) / static_cast<double>(ss.submitted);
    if (cfg.name == "design_sweep") {
      double passes = 0.0, points = 0.0;
      for (const Sample& s : ew.samples) {
        if (e.workload.items[s.item].spec.graph != "seb_point") continue;
        const auto it = s.result.counters.find("network.picard_passes");
        passes += it == s.result.counters.end() ? 0.0 : static_cast<double>(it->second);
        points += 1.0;
      }
      sheet["thermal.network_picard_passes"] = points > 0 ? passes / points : 0.0;
    }
  }
  return check;
}

// ---- direct layer calls -----------------------------------------------------

/// The steady_fv model, built exactly as the fv_slab_steady graph builds it.
thermal::FvModel steady_fv_model() {
  namespace at = aeropack::thermal;
  at::FvModel m(at::FvGrid::uniform(0.1, 0.1, 0.1, 64, 64, 64));
  m.set_material(materials::aluminum_6061());
  m.add_power({0, 64, 0, 64, 0, 64}, 5.0);
  m.set_boundary(at::Face::XMin, at::BoundaryCondition::fixed(300.0));
  m.set_boundary(at::Face::XMax, at::BoundaryCondition::fixed(320.0));
  return m;
}

/// The SEB box as the mission graphs configure it (default loads).
thermal::FvModel seb_mission_model(double t_sink) {
  rom::CanonicalCase cc = rom::seb_box();
  rom::RomInputs in;
  in.sink_temperatures.assign(cc.spec.ports.size(), t_sink);
  for (const rom::RomPowerMap& m : cc.spec.maps)
    in.map_powers.push_back(m.name == "pcb_components" ? 40.0 : 15.0);
  rom::apply_inputs(cc.model, cc.spec, in);
  return std::move(cc.model);
}

void probe_layers(const Options& opt, Tracer& tracer, Sheet& sheet) {
  ScopedSpan root(&tracer, 0, "layers", "layer_probes");
  const std::uint64_t r = root.id();

  ExecutionConfig c1;
  c1.threads = 1;
  ExecutionConfig c2;
  c2.threads = 2;
  ExecutionConfig c1t = c1;
  c1t.telemetry = true;
  ExecutionConfig c2t = c2;
  c2t.telemetry = true;

  // exec: the 2-thread per-scenario context steady_fv uses.
  sheet["exec.context_setup_us"] =
      1e6 * median_s(201, tracer, r, "exec.context_setup", [&] { ExecutionContext ctx(c2); });

  // thermal + numeric on the steady_fv model.
  ExecutionContext ctx1(c1), ctx2(c2);
  const thermal::FvModel fv = steady_fv_model();
  std::shared_ptr<const thermal::FvAssembly> assembly;
  sheet["thermal.fv_assembly_ms"] =
      1e3 * median_s(3, tracer, r, "thermal.fv_assembly", [&] { assembly = fv.build_assembly(); });
  const thermal::LinearSteadySystem sys = fv.linearize_steady();
  numeric::IterativeResult cg;
  const double cg2 = median_s(3, tracer, r, "numeric.cg_2t", [&] {
    cg = numeric::conjugate_gradient(ctx2.pool(), sys.matrix, sys.rhs);
  });
  const double cg1 = median_s(1, tracer, r, "numeric.cg_1t", [&] {
    numeric::conjugate_gradient(ctx1.pool(), sys.matrix, sys.rhs);
  });
  sheet["numeric.cg_ms"] = 1e3 * cg2;
  sheet["numeric.cg_ms_1t"] = 1e3 * cg1;
  sheet["numeric.cg_speedup"] = cg1 / cg2;
  sheet["numeric.cg_iterations"] = static_cast<double>(cg.iterations);
  sheet["numeric.cg_us_per_iter"] = 1e6 * cg2 / static_cast<double>(cg.iterations);

  numeric::Vector y;
  const double spmv = median_s(51, tracer, r, "numeric.spmv", [&] {
    sys.matrix.multiply(ctx2.pool(), cg.x, y);
  });
  const double rows = static_cast<double>(sys.matrix.rows());
  const double nnz = static_cast<double>(sys.matrix.nonzeros());
  // values + column indices + row pointers + x read + y written.
  const double bytes = nnz * (sizeof(double) + sizeof(std::size_t)) +
                       (rows + 1) * sizeof(std::size_t) + 2 * rows * sizeof(double);
  sheet["numeric.spmv_us"] = 1e6 * spmv;
  sheet["numeric.spmv_bytes_computed"] = bytes;
  sheet["numeric.spmv_flops_per_byte_computed"] = 2 * nnz / bytes;
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  std::printf("  64^3 CSR + vectors: %.1f MB computed; last-level cache %.0f MiB%s\n",
              bytes / 1e6, llc > 0 ? llc / 1048576.0 : 0.0,
              llc > 0 && bytes < 4.0 * static_cast<double>(llc)
                  ? ": below 4x LLC, so no memory-bandwidth ratio is claimed"
                  : "");

  // Self time from the program's own span timers: fv.solve_steady minus
  // its child spans (CG), averaged over the repeats.
  const int solves = 3;
  ExecutionContext ctx2t(c2t);
  const double solve = median_s(solves, tracer, r, "thermal.fv_solve_steady",
                                [&] { fv.solve_steady(ctx2t, assembly); });
  sheet["thermal.fv_solve_ms"] = 1e3 * solve;
  sheet["thermal.fv_solve_self_ms"] = 1e3 * self_seconds(ctx2t, "fv.solve_steady") / solves;

  // thermal: one driven implicit step of the SEB box under the DO-160 drive.
  {
    const thermal::FvModel seb = seb_mission_model(228.15);
    const auto seb_assembly = seb.build_assembly();
    const thermal::FvDrive drive = mission::drive_for(mission::Profile::do160_thermal_shock());
    ExecutionContext::Use use(ctx1);
    thermal::FvTransientStepper stepper(seb, {}, seb_assembly);
    numeric::Vector temps(stepper.state_size(), 293.15);
    const int steps = 200;
    double t = 0.0;
    const double total = median_s(1, tracer, r, "thermal.fv_step", [&] {
      for (int s = 0; s < steps; ++s) {
        t += 30.0;
        stepper.step(temps, t, 30.0, &drive);
      }
    });
    sheet["thermal.fv_step_us"] = 1e6 * total / steps;
  }

  // fem: the modal_plate board.
  {
    fem::PlateModel board(0.16, 0.10, 1.6e-3, materials::fr4(), 8, 5);
    board.set_edge(fem::EdgeSupport::Clamped, true, true, true, true);
    board.add_smeared_mass(2.5);
    board.add_point_mass(0.05, 0.05, 0.18);
    board.add_doubler(0.03, 0.13, 0.02, 0.08, 1.8);
    numeric::CsrMatrix k, m;
    board.reduced_sparse(k, m);
    fem::ModalOptions mo;
    mo.n_modes = 6;
    mo.path = fem::ModalPath::Sparse;
    ExecutionContext::Use use(ctx2);
    std::unique_ptr<fem::ModalFactorization> factor;
    sheet["fem.factorize_ms"] = 1e3 * median_s(5, tracer, r, "fem.factorize_modal", [&] {
      factor = std::make_unique<fem::ModalFactorization>(fem::factorize_modal(k, m, mo));
    });
    sheet["fem.modal_solve_ms"] = 1e3 * median_s(11, tracer, r, "fem.solve_reduced_modes", [&] {
      fem::solve_reduced_modes(k, m, mo, *factor);
    });
    ExecutionContext counted(c2t);
    ExecutionContext::Use use_counted(counted);
    fem::solve_reduced_modes(k, m, mo, *factor);
    sheet["fem.subspace_iterations"] =
        static_cast<double>(counter(counted, "numeric.eigen.subspace_iterations"));
  }

  // rom: the two canonical compact models.
  std::shared_ptr<const rom::RomModel> board_rom, seb_rom;
  {
    ExecutionContext::Use use(ctx1);
    const rom::CanonicalCase board = rom::fig2_board();
    const rom::CanonicalCase box = rom::seb_box();
    sheet["rom.build_ms"] = 1e3 * median_s(1, tracer, r, "rom.build_rom", [&] {
      board_rom = std::make_shared<const rom::RomModel>(rom::build_rom(board.model, board.spec));
      seb_rom = std::make_shared<const rom::RomModel>(rom::build_rom(box.model, box.spec));
    });
    rom::RomInputs in;
    in.sink_temperatures = {313.0, 315.0, 300.0};
    in.map_powers = {10.0, 2.5};
    const int evals = 2000;
    const double total = median_s(1, tracer, r, "rom.steady", [&] {
      for (int e = 0; e < evals; ++e) {
        in.map_powers[0] = 10.0 + 1e-3 * e;
        keep(board_rom->steady(in).port_temperatures[0]);
      }
    });
    sheet["rom.steady_us"] = 1e6 * total / evals;
  }

  // mission: the campaign's marches, on one shared assembly.
  {
    const mission::Profile do160 = mission::Profile::do160_thermal_shock();
    const mission::Profile eclipse =
        mission::Profile::cubesat_eclipse(2, 600.0, 0.35, 313.15, 213.15, 0.6);
    const thermal::FvModel cold = seb_mission_model(228.15);
    const thermal::FvModel sunlit = seb_mission_model(313.15);
    const auto shared = cold.build_assembly();
    ExecutionContext counted(c1t);
    mission::MissionSolution a, b;
    const double fv_s = median_s(1, tracer, r, "mission.run_fv_mission", [&] {
      a = mission::run_fv_mission(counted, cold, do160, 293.15, {}, {}, shared);
      b = mission::run_fv_mission(counted, sunlit, eclipse, 293.15, {}, {}, shared);
    });
    sheet["mission.fv_march_ms"] = 1e3 * fv_s;
    sheet["mission.steps"] = static_cast<double>(a.steps_accepted + b.steps_accepted);
    sheet["mission.step_rejections"] = static_cast<double>(a.steps_rejected + b.steps_rejected);
    sheet["mission.cg_iterations"] =
        static_cast<double>(a.linear_iterations + b.linear_iterations);

    const rom::CanonicalCase box = rom::seb_box();
    rom::RomInputs base;
    base.sink_temperatures.assign(box.spec.ports.size(), 228.15);
    for (const rom::RomPowerMap& m : box.spec.maps)
      base.map_powers.push_back(m.name == "pcb_components" ? 40.0 : 15.0);
    sheet["mission.rom_march_ms"] = 1e3 * median_s(1, tracer, r, "mission.run_rom_mission", [&] {
      mission::run_rom_mission(seb_rom, do160, 293.15, base, {}, &box.model.grid());
      mission::run_rom_mission(seb_rom, eclipse, 293.15, base, {}, &box.model.grid());
    });

    thermal::ThermalNetwork net;
    const thermal::NodeId equipment = net.add_node("equipment", 8000.0);
    const thermal::NodeId chassis = net.add_node("chassis", 15000.0);
    const thermal::NodeId ambient = net.add_boundary("ambient", 328.15);
    net.add_conductor(equipment, chassis, 2.5);
    net.add_conductor(chassis, ambient, 4.0);
    net.add_heat_load(equipment, 120.0);
    mission::AdaptiveOptions adaptive;
    adaptive.dt_initial = 5.0 * 0.05;
    adaptive.dt_max *= 0.05;
    const mission::Profile flight = mission::Profile::arinc600_flight(328.15, 243.15, 0.05);
    const numeric::Vector initial(net.node_count(), 293.15);
    sheet["mission.network_march_ms"] =
        1e3 * median_s(5, tracer, r, "mission.run_network_mission",
                       [&] { mission::run_network_mission(net, flight, initial, adaptive); });
  }

  // core: the SEB operating point at the sweep's own powers.
  {
    const Workload ds = generate("design_sweep", opt.seed, 2000);
    const core::SebModel seb{core::SebDesign{}};
    std::vector<const core::ScenarioSpec*> points;
    for (const Item& item : ds.items)
      if (item.spec.graph == "seb_point" && !item.resubmission) points.push_back(&item.spec);
    std::vector<double> each;
    {
      ScopedSpan span(&tracer, r, "layers", "core.seb_solve");
      for (const core::ScenarioSpec* s : points)
        each.push_back(time_s([&] {
          keep(seb.solve(s->loads.at("power_w"), s->boundaries.at("t_ambient"),
                         core::SebCooling::HeatPipesAndLhp, s->params.at("tilt_deg"))
                   .t_pcb);
        }));
    }
    sheet["core.seb_solve_us"] = 1e6 * median(each);
  }
}

}  // namespace

std::vector<std::string> per_layer_entries() {
  std::vector<std::string> out;
  for (const LayerSpec& s : all_specs())
    out.push_back("{\"name\": " + json_string(s.name) + ", \"unit\": " + json_string(s.unit) +
                  ", \"better\": " + json_string(s.better) + "}");
  return out;
}

int run_traced(const Options& opt) {
  Tracer tracer;
  Sheet sheet;
  CheckResult total;
  for (const WorkloadConfig& cfg : workload_configs()) {
    const CheckResult c = trace_workload(opt, cfg, tracer, sheet);
    total.attempted += c.attempted;
    total.failed += c.failed;
    total.problems.insert(total.problems.end(), c.problems.begin(), c.problems.end());
  }
  probe_layers(opt, tracer, sheet);

  const WorkloadConfig& cfg = workload_config(opt.workload);
  const std::string provenance = provenance_json(cfg.name, opt.seed, params_json(cfg));
  std::printf("traced run, seed %llu: every workload traced, every layer probed\n",
              static_cast<unsigned long long>(opt.seed));
  std::vector<Metric> metrics;
  std::string table;
  for (const LayerSpec& s : all_specs()) {
    const auto it = sheet.find(s.name);
    if (it == sheet.end()) throw std::logic_error("per-layer metric not measured: " + s.name);
    metrics.push_back({s.name, s.unit, it->second});
    std::printf("  %-58s %14.6g %-9s %-8s should move %s\n", s.name.c_str(), it->second,
                s.unit.c_str(), kind_name(s.kind), s.moves.c_str());
    if (!table.empty()) table += ",\n";
    table += "{\"name\":" + json_string(s.name) + ",\"value\":" + json_number(it->second) +
             ",\"unit\":" + json_string(s.unit) + ",\"kind\":" + json_string(kind_name(s.kind)) +
             ",\"should_move\":" + json_string(s.moves) + "}";
  }
  std::printf("provenance %s\n", provenance.c_str());
  for (const std::string& problem : total.problems)
    std::fprintf(stderr, "check: %s\n", problem.c_str());

  write_output(opt.out_dir, "trace-" + cfg.name + "-seed" + std::to_string(opt.seed) + ".json",
               "{\"provenance\":" + provenance + ",\n\"metrics\":[\n" + table +
                   "],\n\"spans\":[\n" + tracer.spans_json() + "]}\n");
  const std::string line = result_line(total.failed == 0, total.attempted, total.failed, metrics);
  std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace aeropack::perf
