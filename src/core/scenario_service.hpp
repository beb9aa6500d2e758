// core::ScenarioService — persistent, re-entrant scenario executor over
// shareable immutable artifacts (DESIGN.md "Scenario service"). It is the
// one way to submit work: every scenario is a core::ScenarioSpec.
//  - A spec is serializable data — a named solver graph plus flat
//    parameter/load/boundary maps — so the service content-hashes it and
//    *deduplicates*: two submissions with equal content hashes resolve to
//    one solve, the second submitter waits on the first's job
//    (svc.dedup_hits). The memo persists for the service lifetime, so
//    re-submitting a spec after its batch completed returns the memoized
//    result without re-solving; a fresh service re-solves.
//  - A keyed core::ArtifactCache sits under all workers. Each scenario's
//    fresh ExecutionContext carries a pointer to it; registered solver
//    graphs probe it for structurally-shared immutable artifacts (FV
//    assemblies, modal factorizations, ROM models) keyed by structural
//    hashes. Cache-hit solves are bitwise identical to cold solves at any
//    worker count — the determinism contract the svc ctest tier gates,
//    plain and under TSan. `cache.capacity_bytes = 0` is the no-cache
//    baseline: every lookup misses and every artifact is built per solve.
//
// Execution model: `workers` persistent threads drain a FIFO queue. Every
// scenario gets a fresh ExecutionContext (own pool, own registry) created,
// bound, driven and destroyed on one worker thread, so per-scenario
// telemetry comes back isolated and no solve records into the process
// registry.
// Results are delivered through tickets; wait() blocks until that
// scenario's job completes (which may have been computed for an earlier
// duplicate submission).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/artifact_cache.hpp"
#include "core/scenario_spec.hpp"
#include "exec/context.hpp"

namespace aeropack::core {

/// One registered solver graph: interprets a spec's params/loads/boundaries
/// and returns named scalar outputs. Runs with the scenario's context bound
/// to the calling thread; ctx.artifact_cache() is the service's cache.
/// Throwing marks the scenario failed without aborting the batch.
using GraphFn =
    std::function<std::map<std::string, double>(const ScenarioSpec&, ExecutionContext&)>;

struct ScenarioResult {
  std::string name;
  bool ok = false;
  std::string error;  ///< exception message when !ok
  std::map<std::string, double> values;  ///< scenario outputs
  /// The scenario's isolated cost profile: counters + high-water marks from
  /// its private registry (empty when telemetry is off).
  std::map<std::string, std::uint64_t> counters;
  /// Last-set gauge values from the same registry (convergence traces,
  /// problem sizes), captured alongside the counters.
  std::map<std::string, double> gauges;
  double seconds = 0.0;  ///< wall time of this scenario's run
};

struct ScenarioServiceOptions {
  /// Persistent worker threads (0 throws std::invalid_argument).
  std::size_t workers = 1;
  /// Pool size handed to every scenario's context.
  std::size_t threads_per_scenario = 1;
  /// Arm each scenario's registry so results carry counters + gauges.
  bool telemetry = true;
  /// The shared artifact cache; capacity_bytes = 0 stores nothing.
  ArtifactCacheOptions cache;
};

/// Lifetime totals of the service itself (cache totals live in
/// ArtifactCache::stats()).
struct ScenarioServiceStats {
  std::uint64_t submitted = 0;   ///< submit() calls
  std::uint64_t executed = 0;    ///< scenarios actually solved
  std::uint64_t dedup_hits = 0;  ///< submissions resolved to an existing job
};

class ScenarioService {
  struct Job;

 public:
  explicit ScenarioService(const ScenarioServiceOptions& opts = {});
  /// Drains the queue (every submitted scenario still executes), then joins
  /// the workers. Waiting on a ticket after the service is destroyed is
  /// undefined — wait first.
  ~ScenarioService();
  ScenarioService(const ScenarioService&) = delete;
  ScenarioService& operator=(const ScenarioService&) = delete;

  /// Handle to one submission. Duplicate submissions share a job but keep
  /// their own ticket (and their own result name).
  class Ticket {
   public:
    Ticket() = default;
    explicit operator bool() const { return static_cast<bool>(job_); }

   private:
    friend class ScenarioService;
    std::shared_ptr<Job> job_;
    std::string name_;
  };

  /// Register (or replace) a solver graph. The built-in graphs
  /// "fv_slab_steady", "modal_plate" and "seb_point" are registered by the
  /// constructor; rom::register_rom_graphs adds the ROM-backed ones.
  void register_graph(std::string name, GraphFn fn);
  bool has_graph(const std::string& name) const;

  /// Submit a spec. A spec whose content hash matches an earlier
  /// submission returns a ticket onto the existing job (no new solve). An
  /// unknown spec.graph fails at execution with a descriptive
  /// ScenarioResult::error, not here.
  Ticket submit(ScenarioSpec spec);

  /// Block until the ticket's job completes; returns a copy of its result
  /// with the ticket's own name. Throws std::invalid_argument on a
  /// default-constructed ticket.
  ScenarioResult wait(const Ticket& ticket);

  /// submit() + wait() over a batch, results in input order.
  std::vector<ScenarioResult> run(const std::vector<ScenarioSpec>& specs);

  ScenarioServiceStats stats() const;
  ArtifactCache& cache() { return cache_; }
  const ArtifactCache& cache() const { return cache_; }
  const ScenarioServiceOptions& options() const { return opts_; }

 private:
  void worker_loop();
  void execute(Job& job);
  void register_builtin_graphs();

  ScenarioServiceOptions opts_;
  ArtifactCache cache_;

  mutable std::mutex graphs_mutex_;
  std::map<std::string, GraphFn> graphs_;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<std::shared_ptr<Job>> queue_;
  bool stopping_ = false;
  // Dedup memo: content hash -> job, for the service lifetime.
  std::unordered_map<std::uint64_t, std::shared_ptr<Job>> memo_;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> dedup_hits_{0};

  std::vector<std::thread> workers_;
};

}  // namespace aeropack::core
