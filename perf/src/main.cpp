// aeropack_perf: the AeroPack benchmark program.
//
//   aeropack_perf --workload <design_sweep|steady_fv|mission_campaign>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 --ref <reference dir> --out <output dir>
//   aeropack_perf --list-hashes <n> --workload <w> --seed <n>
//   aeropack_perf --list-per-layer
//   aeropack_perf --make-reference <dir>
//
// The last stdout line of a run is the result object
// {"correct", "attempted", "failed", "metrics"}; everything before it is
// for people. perf/run.py builds this program and forwards its arguments.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>

#include "modes.hpp"

namespace aeropack::perf {

std::size_t item_count(const WorkloadConfig& cfg, double seconds) {
  return std::max<std::size_t>(1000, static_cast<std::size_t>(cfg.max_rate * seconds));
}

Prepared prepare(const std::string& name, std::uint64_t seed, std::size_t count, bool telemetry,
                 std::size_t workers) {
  const Clock::time_point t0 = Clock::now();
  Prepared p;
  p.workload = generate(name, seed, count);
  p.service = make_service(p.workload.cfg, telemetry, workers);
  p.primes = p.service->run(p.workload.primes);
  p.setup_s = seconds_between(t0, Clock::now());
  return p;
}

void write_output(const std::string& out_dir, const std::string& file, const std::string& body) {
  std::filesystem::create_directories(out_dir);
  std::ofstream out(out_dir + "/" + file);
  out << body;
  if (!out) throw std::runtime_error("cannot write " + out_dir + "/" + file);
}

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "aeropack_perf: %s\nusage: aeropack_perf --workload <w> --seed <n> --seconds <s> "
               "--trace <0|1> --ref <dir> --out <dir>\n",
               why.c_str());
  std::exit(2);
}

int run(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) usage("unexpected argument '" + key + "'");
    if (key == "--list-per-layer") {
      args[key] = "1";
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + key);
    args[key] = argv[++i];
  }
  const auto need = [&](const std::string& key) {
    const auto it = args.find(key);
    if (it == args.end()) usage("missing " + key);
    return it->second;
  };

  if (args.count("--list-per-layer")) {
    for (const std::string& line : per_layer_entries()) std::printf("%s\n", line.c_str());
    return 0;
  }
  if (args.count("--make-reference")) {
    write_references(args["--make-reference"]);
    return 0;
  }

  Options opt;
  opt.workload = need("--workload");
  workload_config(opt.workload);  // validates the name
  opt.seed = std::stoull(need("--seed"));

  if (args.count("--list-hashes")) {
    const Workload w = generate(opt.workload, opt.seed, std::stoull(args["--list-hashes"]));
    for (const Item& item : w.items)
      std::printf("%016" PRIx64 "\n", item.spec.content_hash());
    return 0;
  }

  opt.seconds = std::stod(need("--seconds"));
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  const std::string trace = need("--trace");
  if (trace != "0" && trace != "1") usage("--trace must be 0 or 1");
  opt.out_dir = need("--out");
  opt.refs = load_references(need("--ref"));
  return trace == "1" ? run_traced(opt) : run_end_to_end(opt);
}

}  // namespace

}  // namespace aeropack::perf

int main(int argc, char** argv) {
  try {
    return aeropack::perf::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "aeropack_perf: %s\n", e.what());
    return 1;
  }
}
