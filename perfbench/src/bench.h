// Shared pieces of the kacc host-time benchmark: workload cells, the
// seeded call order and buffer salts, verification fills, the one-call
// dispatch into the public collective API, and the latency statistics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "kacc.h"
#include "nbc/nbc.h"

namespace perf {

enum class Op : std::uint8_t {
  kBcast,
  kScatter,
  kGather,
  kAllgather,
  kAlltoall,
  kReduce,
  kAllreduce,
};

[[nodiscard]] const char* op_name(Op op);

/// One (collective, size) pair of a workload. `bytes` is the per-rank block
/// (reduce/allreduce: bytes / 8 doubles). `persistent` marks the overlap
/// workload's *_init/start requests, which are a cell of their own.
struct Cell {
  Op op = Op::kBcast;
  std::size_t bytes = 0;
  bool persistent = false;
};

[[nodiscard]] std::string cell_name(const Cell& c);

/// splitmix64 step; the only source of randomness in the benchmark, so a
/// seed gives the same inputs on every machine and libstdc++ version.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x);

class Rng {
public:
  explicit Rng(std::uint64_t seed) : s_(mix64(seed ^ 0x6b61636370657266ull)) {}
  std::uint64_t next() { return s_ = mix64(s_); }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

private:
  std::uint64_t s_;
};

/// Cross product of ops x nominal sizes (x kinds). Each size is drawn from
/// the seed within +-4% of its nominal value, rounded to 8 bytes, so every
/// seed is a slightly different input set while one seed is reproducible.
[[nodiscard]] std::vector<Cell> make_cells(const std::vector<Op>& ops,
                                           const std::vector<std::size_t>& sizes,
                                           bool with_persistent,
                                           std::uint64_t seed);

/// The shuffled call order: round r is a seeded permutation of all cells,
/// so every cell gets the same number of calls.
class CallOrder {
public:
  CallOrder(std::size_t ncells, std::uint64_t seed);
  [[nodiscard]] std::size_t cell(std::size_t i);

private:
  std::size_t n_;
  Rng rng_;
  std::vector<std::size_t> order_;
};

/// Per-call buffer salt: differs between consecutive calls, so a
/// collective that moves nothing leaves stale words that fail the check.
[[nodiscard]] std::uint64_t salt_of(std::uint64_t seed, int launch,
                                    std::size_t call);

/// Message bytes the collective must move across ranks (bus bytes).
[[nodiscard]] double bus_bytes(const Cell& c, int p);

/// Buffer sizes one rank needs for a cell.
[[nodiscard]] std::size_t send_bytes(const Cell& c, int p);
[[nodiscard]] std::size_t recv_bytes(const Cell& c, int p);

/// Reference contents. Each source's base stream is common/pattern.h's
/// fill for (src, block 0), as long as the largest block; block k of a
/// message from src is that stream with every 64-bit word XORed by a salt
/// mixed from the call's salt and k. Reductions use small exact integers.
class Patterns {
public:
  Patterns(int p, std::size_t max_block);

  /// Writes this rank's inputs for the call (root's bcast buffer, send
  /// blocks, reduction operands) and poisons reduction outputs.
  void fill(const Cell& c, int rank, int root, std::uint64_t salt, void* send,
            void* recv) const;

  /// Empty when this rank's outputs are exactly right, else a description.
  [[nodiscard]] std::string verify(const Cell& c, int rank, int root,
                                   std::uint64_t salt, const void* send,
                                   const void* recv) const;

private:
  void put(void* dst, int src, std::size_t block, std::size_t b,
           std::uint64_t salt) const;
  [[nodiscard]] std::ptrdiff_t check(const void* buf, int src,
                                     std::size_t block, std::size_t b,
                                     std::uint64_t salt) const;

  int p_;
  std::size_t stream_words_;
  std::vector<std::vector<std::uint64_t>> base_;
};

/// Runs one blocking collective (kAuto) through kacc::coll. Rooted ops use
/// root 0.
void run_blocking(kacc::Comm& comm, const Cell& c, void* send, void* recv);

/// Starts one nonblocking collective (kAuto): `*_init` for persistent
/// cells (the caller start()s it), `i*` otherwise.
[[nodiscard]] kacc::nbc::Request issue_nbc(kacc::Comm& comm, const Cell& c,
                                           void* send, void* recv);

/// The Tuner call a kAuto blocking entry makes for this cell; returns the
/// model's predicted cost (us).
double tune(const kacc::ArchSpec& arch, int p, const Cell& c);

/// Resolves kAuto like the blocking entry does and compiles (never drains)
/// the blocking-mode schedule; returns its step count.
std::size_t compile(kacc::Comm& comm, const Cell& c, void* send, void* recv);

/// Geometric mean of positive values (0 for an empty input).
[[nodiscard]] double geomean(const std::vector<double>& v);
[[nodiscard]] double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// Latency samples of one launch (group), indexed by cell.
using CellSamples = std::vector<std::vector<double>>;

/// The latency figures of one workload over its cells.
struct LatencySummary {
  double p50_us = 0.0; ///< median over groups of group_p50
  double p95_us = 0.0; ///< median over groups of group_p95
  std::size_t samples = 0;
  std::size_t beyond = 0; ///< samples beyond p95 in the smallest group
  std::vector<double> cell_median; ///< pooled over groups; 0 when none
  std::vector<std::size_t> cell_samples;
  /// Per group: each cell's median (0 when none), the geometric mean of
  /// those medians, and that geomean times the p95 of the group's samples
  /// taken as ratios to their cell's median (cells differ by orders of
  /// magnitude, so they cannot be pooled raw).
  std::vector<std::vector<double>> group_cell_median;
  std::vector<double> group_p50;
  std::vector<double> group_p95;
};

/// Summarizes per launch and reports medians over launches, so a launch
/// caught in a host disturbance cannot carry a run. p95, not p99: on a
/// shared host the p99 of a microsecond call measures vCPU preemption.
[[nodiscard]] LatencySummary summarize(const std::vector<CellSamples>& groups);

} // namespace perf
