#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <sstream>

#include "bench.h"
#include "nbc/compile.h"

namespace perf {

using kacc::Comm;
namespace coll = kacc::coll;
namespace nbc = kacc::nbc;

const char* op_name(Op op) {
  switch (op) {
    case Op::kBcast: return "bcast";
    case Op::kScatter: return "scatter";
    case Op::kGather: return "gather";
    case Op::kAllgather: return "allgather";
    case Op::kAlltoall: return "alltoall";
    case Op::kReduce: return "reduce";
    case Op::kAllreduce: return "allreduce";
  }
  return "?";
}

std::string cell_name(const Cell& c) {
  return std::string(op_name(c.op)) + "/" + std::to_string(c.bytes) +
         (c.persistent ? "/persistent" : "");
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::vector<Cell> make_cells(const std::vector<Op>& ops,
                             const std::vector<std::size_t>& sizes,
                             bool with_persistent, std::uint64_t seed) {
  Rng rng(seed ^ 0x73697a6573ull);
  std::vector<Cell> cells;
  for (int kind = 0; kind < (with_persistent ? 2 : 1); ++kind) {
    for (Op op : ops) {
      for (std::size_t nominal : sizes) {
        // +-4% in steps of 1/1024, rounded to whole doubles.
        const double jitter =
            (static_cast<double>(rng.below(83)) - 41.0) / 1024.0;
        const auto words = static_cast<std::size_t>(std::llround(
            static_cast<double>(nominal) * (1.0 + jitter) / 8.0));
        cells.push_back({op, std::max<std::size_t>(1, words) * 8, kind == 1});
      }
    }
  }
  return cells;
}

CallOrder::CallOrder(std::size_t ncells, std::uint64_t seed)
    : n_(ncells), rng_(seed ^ 0x6f72646572ull) {}

std::size_t CallOrder::cell(std::size_t i) {
  while (order_.size() <= i) {
    const std::size_t base = order_.size();
    for (std::size_t k = 0; k < n_; ++k) {
      order_.push_back(k);
    }
    for (std::size_t k = n_; k > 1; --k) { // Fisher-Yates
      std::swap(order_[base + k - 1], order_[base + rng_.below(k)]);
    }
  }
  return order_[i];
}

std::uint64_t salt_of(std::uint64_t seed, int launch, std::size_t call) {
  return mix64(mix64(seed ^ (static_cast<std::uint64_t>(launch) << 48)) ^
               call);
}

double bus_bytes(const Cell& c, int p) {
  const double b = static_cast<double>(c.bytes);
  const double peers = p - 1;
  switch (c.op) {
    case Op::kBcast:
    case Op::kScatter:
    case Op::kGather:
    case Op::kReduce: return b * peers;
    case Op::kAllgather:
    case Op::kAlltoall: return b * p * peers;
    case Op::kAllreduce: return 2.0 * b * peers;
  }
  return 0.0;
}

std::size_t send_bytes(const Cell& c, int p) {
  switch (c.op) {
    case Op::kBcast: return 0;
    case Op::kScatter:
    case Op::kAlltoall: return c.bytes * static_cast<std::size_t>(p);
    default: return c.bytes;
  }
}

std::size_t recv_bytes(const Cell& c, int p) {
  switch (c.op) {
    case Op::kGather:
    case Op::kAllgather:
    case Op::kAlltoall: return c.bytes * static_cast<std::size_t>(p);
    default: return c.bytes;
  }
}

// ---------------------------------------------------------------- patterns

Patterns::Patterns(int p, std::size_t max_block)
    : p_(p), stream_words_(max_block / 8), base_(static_cast<std::size_t>(p)) {
  std::vector<std::byte> bytes(stream_words_ * 8);
  for (int src = 0; src < p; ++src) {
    kacc::pattern_fill(bytes, src, 0);
    auto& words = base_[static_cast<std::size_t>(src)];
    words.resize(stream_words_);
    std::memcpy(words.data(), bytes.data(), bytes.size());
  }
}

namespace {

std::uint64_t block_salt(std::uint64_t salt, std::size_t block) {
  return salt ^ mix64(block);
}

} // namespace

void Patterns::put(void* dst, int src, std::size_t block, std::size_t b,
                   std::uint64_t salt) const {
  const std::uint64_t* in = base_[static_cast<std::size_t>(src)].data();
  auto* out = static_cast<std::uint64_t*>(dst);
  salt = block_salt(salt, block);
  for (std::size_t w = 0; w < b / 8; ++w) {
    out[w] = in[w] ^ salt;
  }
}

std::ptrdiff_t Patterns::check(const void* buf, int src, std::size_t block,
                               std::size_t b, std::uint64_t salt) const {
  const std::uint64_t* want = base_[static_cast<std::size_t>(src)].data();
  const auto* got = static_cast<const std::uint64_t*>(buf);
  salt = block_salt(salt, block);
  std::uint64_t diff = 0;
  for (std::size_t w = 0; w < b / 8; ++w) { // branch-free hot loop
    diff |= got[w] ^ want[w] ^ salt;
  }
  if (diff == 0) {
    return -1;
  }
  for (std::size_t w = 0; w < b / 8; ++w) {
    if ((got[w] ^ want[w]) != salt) {
      return static_cast<std::ptrdiff_t>(w * 8);
    }
  }
  return -1;
}

namespace {

double operand(int rank, std::size_t i, std::uint64_t salt) {
  return static_cast<double>(rank + 1) *
         static_cast<double>((i + salt % 509) % 509);
}

std::string mismatch(const char* what, int src, std::ptrdiff_t at) {
  std::ostringstream os;
  os << what << " block from rank " << src << " wrong at byte " << at;
  return os.str();
}

} // namespace

void Patterns::fill(const Cell& c, int rank, int root, std::uint64_t salt,
                    void* send, void* recv) const {
  const std::size_t b = c.bytes;
  switch (c.op) {
    case Op::kBcast:
      if (rank == root) {
        put(recv, root, 0, b, salt);
      }
      return;
    case Op::kScatter:
      if (rank == root) {
        for (int k = 0; k < p_; ++k) {
          put(static_cast<char*>(send) + k * b, root,
              static_cast<std::size_t>(k), b, salt);
        }
      }
      return;
    case Op::kGather:
    case Op::kAllgather: put(send, rank, 0, b, salt); return;
    case Op::kAlltoall:
      for (int k = 0; k < p_; ++k) {
        put(static_cast<char*>(send) + k * b, rank,
            static_cast<std::size_t>(k), b, salt);
      }
      return;
    case Op::kReduce:
    case Op::kAllreduce: {
      auto* in = static_cast<double*>(send);
      for (std::size_t i = 0; i < b / 8; ++i) {
        in[i] = operand(rank, i, salt);
      }
      std::memset(recv, 0xff, b); // NaN: a skipped combine cannot pass
      return;
    }
  }
}

std::string Patterns::verify(const Cell& c, int rank, int root,
                             std::uint64_t salt, const void* send,
                             const void* recv) const {
  (void)send;
  const std::size_t b = c.bytes;
  const auto* out = static_cast<const char*>(recv);
  std::ptrdiff_t at = -1;
  switch (c.op) {
    case Op::kBcast:
      at = check(recv, root, 0, b, salt);
      return at < 0 ? "" : mismatch("bcast", root, at);
    case Op::kScatter:
      at = check(recv, root, static_cast<std::size_t>(rank), b, salt);
      return at < 0 ? "" : mismatch("scatter", root, at);
    case Op::kGather:
    case Op::kAllgather:
      if (c.op == Op::kGather && rank != root) {
        return "";
      }
      for (int q = 0; q < p_; ++q) {
        at = check(out + q * b, q, 0, b, salt);
        if (at >= 0) {
          return mismatch(op_name(c.op), q, at);
        }
      }
      return "";
    case Op::kAlltoall:
      for (int q = 0; q < p_; ++q) {
        at = check(out + q * b, q, static_cast<std::size_t>(rank), b, salt);
        if (at >= 0) {
          return mismatch("alltoall", q, at);
        }
      }
      return "";
    case Op::kReduce:
    case Op::kAllreduce: {
      if (c.op == Op::kReduce && rank != root) {
        return "";
      }
      const auto* res = static_cast<const double*>(recv);
      const double ranks_sum = p_ * (p_ + 1) / 2.0;
      for (std::size_t i = 0; i < b / 8; ++i) {
        const double want = operand(0, i, salt) * ranks_sum;
        if (!(res[i] == want)) {
          std::ostringstream os;
          os << op_name(c.op) << " element " << i << " is " << res[i]
             << ", want " << want;
          return os.str();
        }
      }
      return "";
    }
  }
  return "unknown op";
}

// ---------------------------------------------------------------- dispatch

void run_blocking(Comm& comm, const Cell& c, void* send, void* recv) {
  const std::size_t b = c.bytes;
  switch (c.op) {
    case Op::kBcast: coll::bcast(comm, recv, b, 0); return;
    case Op::kScatter: coll::scatter(comm, send, recv, b, 0); return;
    case Op::kGather: coll::gather(comm, send, recv, b, 0); return;
    case Op::kAllgather: coll::allgather(comm, send, recv, b); return;
    case Op::kAlltoall: coll::alltoall(comm, send, recv, b); return;
    case Op::kReduce:
      coll::reduce(comm, static_cast<const double*>(send),
                   static_cast<double*>(recv), b / 8, coll::ReduceOp::kSum, 0);
      return;
    case Op::kAllreduce:
      coll::allreduce(comm, static_cast<const double*>(send),
                      static_cast<double*>(recv), b / 8,
                      coll::ReduceOp::kSum);
      return;
  }
}

nbc::Request issue_nbc(Comm& comm, const Cell& c, void* send, void* recv) {
  const std::size_t b = c.bytes;
  const auto* dsend = static_cast<const double*>(send);
  auto* drecv = static_cast<double*>(recv);
  const auto sum = coll::ReduceOp::kSum;
  if (c.persistent) {
    switch (c.op) {
      case Op::kBcast: return nbc::bcast_init(comm, recv, b, 0);
      case Op::kScatter: return nbc::scatter_init(comm, send, recv, b, 0);
      case Op::kGather: return nbc::gather_init(comm, send, recv, b, 0);
      case Op::kAllgather: return nbc::allgather_init(comm, send, recv, b);
      case Op::kAlltoall: return nbc::alltoall_init(comm, send, recv, b);
      case Op::kReduce:
        return nbc::reduce_init(comm, dsend, drecv, b / 8, sum, 0);
      case Op::kAllreduce:
        return nbc::allreduce_init(comm, dsend, drecv, b / 8, sum);
    }
  }
  switch (c.op) {
    case Op::kBcast: return nbc::ibcast(comm, recv, b, 0);
    case Op::kScatter: return nbc::iscatter(comm, send, recv, b, 0);
    case Op::kGather: return nbc::igather(comm, send, recv, b, 0);
    case Op::kAllgather: return nbc::iallgather(comm, send, recv, b);
    case Op::kAlltoall: return nbc::ialltoall(comm, send, recv, b);
    case Op::kReduce: return nbc::ireduce(comm, dsend, drecv, b / 8, sum, 0);
    case Op::kAllreduce:
      return nbc::iallreduce(comm, dsend, drecv, b / 8, sum);
  }
  return {};
}

namespace {

coll::Tuner::Choice choose(const kacc::ArchSpec& arch, int p, const Cell& c) {
  const coll::Tuner t;
  switch (c.op) {
    case Op::kBcast: return t.bcast(arch, p, c.bytes);
    case Op::kScatter: return t.scatter(arch, p, c.bytes);
    case Op::kGather: return t.gather(arch, p, c.bytes);
    case Op::kAllgather: return t.allgather(arch, p, c.bytes);
    case Op::kAlltoall: return t.alltoall(arch, p, c.bytes);
    case Op::kReduce: return t.reduce(arch, p, c.bytes);
    case Op::kAllreduce: return t.allreduce(arch, p, c.bytes);
  }
  return {};
}

} // namespace

double tune(const kacc::ArchSpec& arch, int p, const Cell& c) {
  return choose(arch, p, c).predicted_us;
}

std::size_t compile(Comm& comm, const Cell& c, void* send, void* recv) {
  const coll::Tuner::Choice ch = choose(comm.arch(), comm.size(), c);
  // Option resolution mirrors the kAuto branch of each coll:: entry.
  coll::CollOptions eff;
  eff.throttle = ch.throttle;
  const std::size_t b = c.bytes;
  const auto* dsend = static_cast<const double*>(send);
  auto* drecv = static_cast<double*>(recv);
  const auto sum = coll::ReduceOp::kSum;
  std::unique_ptr<nbc::Schedule> s;
  switch (c.op) {
    case Op::kBcast:
      s = nbc::compile_bcast(comm, recv, b, 0, ch.bcast, eff, {});
      break;
    case Op::kScatter:
      s = nbc::compile_scatter(comm, send, recv, b, 0, ch.scatter, eff, {});
      break;
    case Op::kGather:
      s = nbc::compile_gather(comm, send, recv, b, 0, ch.gather, eff, {});
      break;
    case Op::kAllgather:
      s = nbc::compile_allgather(comm, send, recv, b, ch.allgather, {}, {});
      break;
    case Op::kAlltoall:
      s = nbc::compile_alltoall(comm, send, recv, b, ch.alltoall, {}, {});
      break;
    case Op::kReduce:
      s = nbc::compile_reduce(comm, dsend, drecv, b / 8, sum, 0, ch.reduce,
                              {}, {});
      break;
    case Op::kAllreduce:
      s = nbc::compile_allreduce(comm, dsend, drecv, b / 8, sum, ch.allreduce,
                                 {}, {});
      break;
  }
  return s ? s->steps.size() : 0;
}

// ---------------------------------------------------------------- stats

double geomean(const std::vector<double>& v) {
  if (v.empty()) {
    return 0.0;
  }
  double logs = 0.0;
  for (double x : v) {
    logs += std::log(x);
  }
  return std::exp(logs / static_cast<double>(v.size()));
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

LatencySummary summarize(const std::vector<CellSamples>& groups) {
  LatencySummary s;
  const std::size_t ncells = groups.empty() ? 0 : groups[0].size();
  for (std::size_t c = 0; c < ncells; ++c) {
    std::vector<double> pooled;
    for (const CellSamples& g : groups) {
      pooled.insert(pooled.end(), g[c].begin(), g[c].end());
    }
    s.cell_samples.push_back(pooled.size());
    s.cell_median.push_back(pooled.empty() ? 0.0 : median(pooled));
    s.samples += pooled.size();
  }
  std::size_t fewest = std::numeric_limits<std::size_t>::max();
  for (const CellSamples& g : groups) {
    std::vector<double> meds(ncells, 0.0);
    std::vector<double> present;
    std::vector<double> ratios;
    for (std::size_t c = 0; c < ncells; ++c) {
      if (g[c].empty()) {
        continue;
      }
      meds[c] = median(g[c]);
      present.push_back(meds[c]);
      for (double x : g[c]) {
        ratios.push_back(x / meds[c]);
      }
    }
    if (present.empty()) {
      continue;
    }
    fewest = std::min(fewest, ratios.size());
    s.group_p50.push_back(geomean(present));
    s.group_p95.push_back(s.group_p50.back() * quantile(ratios, 0.95));
    s.group_cell_median.push_back(std::move(meds));
  }
  if (s.group_p50.empty()) {
    return s;
  }
  s.beyond = fewest / 20;
  s.p50_us = median(s.group_p50);
  s.p95_us = median(s.group_p95);
  return s;
}

} // namespace perf
