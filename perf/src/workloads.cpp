#include "workloads.hpp"

#include <cstdio>
#include <stdexcept>

#include "common.hpp"
#include "core/scenario_service.hpp"
#include "mission/service_graphs.hpp"
#include "rom/service_graphs.hpp"

namespace aeropack::perf {

namespace {

using core::ScenarioSpec;

std::string item_name(const char* prefix, std::size_t i) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%s-%06zu", prefix, i);
  return buf;
}

/// Fisher-Yates with the benchmark's own generator.
template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.index(i)]);
}

// ---- design_sweep --------------------------------------------------------
//
// 25% seb_point, 20% modal_plate, 10% fv_slab_steady (16x4x4 slab), 40%
// rom_board_steady and 5% exact re-submissions of earlier points. (With
// 45% rom the fast re-submissions and ROM points made exactly half the
// traffic, so the median fell in the gap between two latency clusters and
// jumped between runs; at 40/25 it sits inside the seb_point cluster.) Every
// continuous input is drawn fresh, so points are unique apart from the
// re-submissions. About one point in 50 carries a structure not seen
// before: a new plate thickness (new stiffness factorization) or a new slab
// nx/lx (new FV assembly); other modal/FV points reuse a structure seen
// earlier in the sweep, so the artifact cache keeps building beside its reads.
constexpr double kNewStructureShare = 0.02 / 0.30;  // of modal + fv points

Workload design_sweep(Workload w, Rng& rng, std::size_t count) {
  std::vector<double> thicknesses{1.6e-3};
  struct Slab {
    double nx, lx;
  };
  std::vector<Slab> slabs{{16.0, 0.1}};

  ScenarioSpec seb;
  seb.name = "prime-seb";
  seb.graph = "seb_point";
  ScenarioSpec modal;
  modal.name = "prime-modal";
  modal.graph = "modal_plate";
  ScenarioSpec fv;
  fv.name = "prime-fv";
  fv.graph = "fv_slab_steady";
  ScenarioSpec rom;
  rom.name = "prime-rom";
  rom.graph = "rom_board_steady";
  rom.loads = {{"cpu", 10.0}, {"psu", 2.5}};
  rom.boundaries = {{"rail_left", 313.0}, {"rail_right", 315.0}, {"top_air", 300.0}};
  w.primes = {seb, modal, fv, rom};

  // The mix is exact per block of 20 points, in a seeded order within the
  // block, so the share of each graph does not drift with the seed.
  enum Kind { kSeb, kModal, kFv, kRom, kResubmit };
  std::vector<Kind> block;
  for (const auto& [kind, n] :
       {std::pair{kSeb, 5}, {kModal, 4}, {kFv, 2}, {kRom, 8}, {kResubmit, 1}})
    block.insert(block.end(), n, kind);

  w.items.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (i % block.size() == 0) shuffle(block, rng);
    Kind kind = block[i % block.size()];
    if (kind == kResubmit && w.items.empty()) kind = kRom;
    Item item;
    if (kind == kResubmit) {
      item = w.items[rng.index(w.items.size())];
      item.resubmission = true;
    } else if (kind == kSeb) {
      item.spec.graph = "seb_point";
      item.spec.params = {{"tilt_deg", rng.uniform(0.0, 20.0)}};
      item.spec.loads = {{"power_w", rng.uniform(20.0, 140.0)}};
      item.spec.boundaries = {{"t_ambient", rng.uniform(278.0, 318.0)}};
    } else if (kind == kModal) {
      double thickness = 0.0;
      if (rng.uniform(0.0, 1.0) < kNewStructureShare) {
        thickness = rng.uniform(1.2e-3, 2.4e-3);
        thicknesses.push_back(thickness);
      } else {
        thickness = thicknesses[rng.index(thicknesses.size())];
      }
      item.spec.graph = "modal_plate";
      item.spec.params = {{"thickness", thickness},
                          {"mass_x", rng.uniform(0.02, 0.14)},
                          {"mass_y", rng.uniform(0.02, 0.08)},
                          {"mass_kg", rng.uniform(0.05, 0.30)}};
    } else if (kind == kFv) {
      Slab slab{};
      if (rng.uniform(0.0, 1.0) < kNewStructureShare) {
        slab.nx = static_cast<double>(10 + rng.index(15));
        slab.lx = 0.1 * slab.nx / 16.0 * rng.uniform(0.95, 1.05);
        slabs.push_back(slab);
      } else {
        slab = slabs[rng.index(slabs.size())];
      }
      item.spec.graph = "fv_slab_steady";
      item.spec.params = {{"nx", slab.nx}, {"lx", slab.lx}};
      item.spec.loads = {{"power_w", rng.uniform(1.0, 15.0)}};
      item.spec.boundaries = {{"t_cold", rng.uniform(285.0, 300.0)},
                              {"t_hot", rng.uniform(305.0, 335.0)}};
    } else {
      item.spec.graph = "rom_board_steady";
      item.spec.loads = {{"cpu", rng.uniform(0.0, 20.0)}, {"psu", rng.uniform(0.0, 5.0)}};
      item.spec.boundaries = {{"rail_left", rng.uniform(305.0, 320.0)},
                              {"rail_right", rng.uniform(305.0, 320.0)},
                              {"top_air", rng.uniform(290.0, 310.0)}};
    }
    item.spec.name = item_name("ds", i);
    w.items.push_back(std::move(item));
  }
  return w;
}

// ---- steady_fv -----------------------------------------------------------
//
// fv_slab_steady on a 64^3 cube of cubic cells. Each solve takes a distinct
// (power_w, t_hot) point of the reference grid in a seeded order, so none
// deduplicates and every result has a committed reference.
Workload steady_fv(Workload w, Rng& rng, std::size_t count) {
  w.primes = {steady_fv_spec(5.0, 320.0)};  // off the grid
  w.primes.front().name = "prime-fv64";
  std::vector<std::pair<double, double>> grid = steady_fv_grid();
  shuffle(grid, rng);
  if (count > grid.size()) count = grid.size();
  for (std::size_t i = 0; i < count; ++i) {
    Item item;
    item.spec = steady_fv_spec(grid[i].first, grid[i].second);
    item.spec.name = item_name("fv64", i);
    w.items.push_back(std::move(item));
  }
  return w;
}

// ---- mission_campaign ----------------------------------------------------
//
// Seeded power cases of the DO-160 and eclipse SEB-box missions at FV and
// at ROM fidelity, plus the ARINC 600 network flight, 20% each. The FV
// graphs share one cached 720-cell assembly, the ROM graphs one cached
// compact model.
Workload mission_campaign(Workload w, Rng& rng, std::size_t count) {
  const std::vector<std::string>& graphs = w.cfg.graphs;
  for (const std::string& g : graphs) {
    ScenarioSpec prime;
    prime.name = "prime-" + g;
    prime.graph = g;
    w.primes.push_back(prime);
  }
  // Each block of five points runs every graph once, in a seeded order.
  std::vector<std::string> block = graphs;
  for (std::size_t i = 0; i < count; ++i) {
    if (i % block.size() == 0) shuffle(block, rng);
    Item item;
    item.spec.graph = block[i % block.size()];
    if (item.spec.graph == "mission_network_flight") {
      item.spec.loads = {{"equipment", rng.uniform(60.0, 180.0)}};
    } else {
      item.spec.loads = {{"pcb_components", rng.uniform(20.0, 60.0)},
                         {"psu", rng.uniform(5.0, 25.0)}};
    }
    item.spec.name = item_name("mc", i);
    w.items.push_back(std::move(item));
  }
  return w;
}

}  // namespace

const std::vector<WorkloadConfig>& workload_configs() {
  static const std::vector<WorkloadConfig> configs = {
      // One thread per scenario, not two: a 2-thread context spawns and
      // joins a pool thread for every scenario, and in a shared virtual
      // machine that wake-up path swung throughput and p50 up to 2x between
      // identical runs. exec.context_setup_us still times the 2-thread
      // context in the traced run.
      {"design_sweep", 1, 1, 1,
       "25% seb_point, 20% modal_plate, 10% fv_slab_steady 16x4x4, 40% rom_board_steady, "
       "5% exact re-submissions; ~1 in 50 points a new plate thickness or slab nx",
       {"seb_point", "modal_plate", "fv_slab_steady", "rom_board_steady"},
       5000.0},
      {"steady_fv", 1, 1, 2,
       "fv_slab_steady 64x64x64, lx=ly=lz=0.1 m, distinct (power_w, t_hot) grid points",
       {"fv_slab_steady"},
       0.0},
      {"mission_campaign", 2, 2, 1,
       "20% each mission_seb_do160, mission_seb_eclipse, mission_rom_do160, "
       "mission_rom_eclipse, mission_network_flight; seeded power cases",
       {"mission_seb_do160", "mission_seb_eclipse", "mission_rom_do160", "mission_rom_eclipse",
        "mission_network_flight"},
       500.0},
  };
  return configs;
}

const WorkloadConfig& workload_config(const std::string& name) {
  std::string known;
  for (const WorkloadConfig& c : workload_configs()) {
    if (c.name == name) return c;
    known += (known.empty() ? "" : ", ") + c.name;
  }
  throw std::invalid_argument("unknown workload '" + name + "' (known: " + known + ")");
}

std::string params_json(const WorkloadConfig& cfg) {
  return "{\"clients\":" + std::to_string(cfg.clients) +
         ",\"workers\":" + std::to_string(cfg.workers) +
         ",\"threads_per_scenario\":" + std::to_string(cfg.threads_per_scenario) +
         ",\"loop\":\"closed\",\"mix\":" + json_string(cfg.mix) + "}";
}

std::vector<std::pair<double, double>> steady_fv_grid() {
  std::vector<std::pair<double, double>> grid;
  for (int i = 0; i < 32; ++i)
    for (int j = 0; j < 16; ++j) grid.emplace_back(6.0 + 1.5 * i, 310.5 + 1.25 * j);
  return grid;
}

core::ScenarioSpec steady_fv_spec(double power_w, double t_hot) {
  ScenarioSpec s;
  s.graph = "fv_slab_steady";
  s.params = {{"nx", 64.0}, {"ny", 64.0}, {"nz", 64.0},
              {"lx", 0.1},  {"ly", 0.1},  {"lz", 0.1}};
  s.loads = {{"power_w", power_w}};
  s.boundaries = {{"t_hot", t_hot}};
  return s;
}

Workload generate(const std::string& name, std::uint64_t seed, std::size_t count) {
  Workload w;
  w.cfg = workload_config(name);
  // Distinct streams per workload for one seed: FNV-1a of the name.
  std::uint64_t stream = 0xcbf29ce484222325ULL;
  for (const char c : name) stream = (stream ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  Rng rng(seed ^ stream);
  if (name == "design_sweep") return design_sweep(std::move(w), rng, count);
  if (name == "steady_fv") return steady_fv(std::move(w), rng, count);
  return mission_campaign(std::move(w), rng, count);
}

void register_graphs(core::ScenarioService& service) {
  rom::register_rom_graphs(service);
  mission::register_mission_graphs(service);
}

}  // namespace aeropack::perf
