// The four workloads and what each returns. main.cpp turns an Outcome into
// the named metrics.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "trace.h"

namespace perf {

/// The workload cannot run on this host (no CMA, too few CPUs, no
/// affinity); it is skipped, never replaced by another measurement.
struct Unavailable : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string trace_dir; ///< where traced runs write span CSVs
};

/// Per-layer sums over ranks and calls. Trivially copyable: native ranks
/// publish it through shared memory.
struct Layers {
  std::array<LayerTotals, kLayerCount> t{};
  std::uint64_t rank_calls = 0; ///< calls (or requests) summed over ranks
  std::uint64_t cma_retries = 0;
  std::uint64_t fallback_ops = 0;
  std::uint64_t slow_waits = 0;
  std::uint64_t steps_issued = 0;
  std::uint64_t steps_deferred = 0;
  std::uint64_t admission_stalls = 0;
  std::uint64_t drift_alarms = 0;
  double tune_us = 0.0; ///< standalone Tuner calls
  std::uint64_t tune_n = 0;
  double compile_us = 0.0; ///< standalone compile_* calls
  std::uint64_t compile_n = 0;
  std::uint64_t compile_steps = 0;

  void add(const Layers& o);
};

/// Counter deltas of one rank around a measured region.
class CounterDelta {
public:
  explicit CounterDelta(kacc::Comm& comm);
  /// Adds (now - at construction or last fold) into `into` and restarts.
  void fold(Layers& into);

private:
  [[nodiscard]] std::array<std::uint64_t, 7> read() const;
  kacc::Comm* comm_;
  std::array<std::uint64_t, 7> last_;
};

/// What the simulator costs and predicts for a set of cells.
struct SimFigures {
  double virt_geomean_us = 0.0;
  double virt_busbw_GBps = 0.0; ///< geomean bus bytes / virtual latency
  /// Simulated calls per host second at the geometric mean of the cells'
  /// median host latencies (every cell weighs the same).
  double sim_ops_per_s = 0.0;
  /// The same over a round of every cell once (costly cells dominate).
  double round_ops_per_s = 0.0;
  double pred_ratio = 0.0;    ///< geomean Tuner predicted / virtual
  double host_ms_per_op = 0.0;
  double sys_share = 0.0;
  double ctx_switches_per_op = 0.0;
  double rerate_per_op = 0.0;
  std::uint64_t drift_alarms = 0;
  std::uint64_t calls = 0;
};

struct Outcome {
  LatencySummary lat;         ///< measured (untraced) launches
  double traced_p50_us = 0.0; ///< traced launches, same statistic
  double busbw_GBps = 0.0;
  double ops_per_s = 0.0;
  std::vector<double> setup_s; ///< one per measured launch
  double peak_rss_mb = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_failure;
  SimFigures sim;
  Layers layers; ///< traced launches only
  std::vector<std::string> cell_names; ///< aligned with lat.cell_median
  std::vector<std::string> info;

  void fail(const std::string& why, std::uint64_t calls = 1);
};

/// Binds the calling thread (and threads it creates later) to `cpus`.
void pin_to_cpus(const std::vector<int>& cpus);
/// CPUs this process may run on, ascending.
[[nodiscard]] std::vector<int> allowed_cpus();
/// Peak RSS of the calling process, KiB.
[[nodiscard]] long peak_rss_kb();

Outcome run_native(const Config& cfg);
Outcome run_sim_sweep(const Config& cfg);

/// The model reference for a native workload: the same cells (blocking
/// form) simulated on `spec` with p ranks, timing-only, in bursts spread
/// over the run.
class ModelReference {
public:
  ModelReference(const kacc::ArchSpec& spec, int p, std::vector<Cell> cells,
                 std::uint64_t seed);
  ~ModelReference();
  ModelReference(const ModelReference&) = delete;
  ModelReference& operator=(const ModelReference&) = delete;

  /// One launch of whole rounds for about `budget_s`, bound to `cpu`. It
  /// runs in a forked child, so the caller (which forks the native teams)
  /// neither grows nor changes its affinity.
  void burst(double budget_s, int cpu);
  [[nodiscard]] SimFigures figures() const;

private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

} // namespace perf
