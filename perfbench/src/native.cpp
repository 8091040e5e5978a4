// Native workloads: 4-rank forked teams over real process_vm_readv, one rank
// per CPU. Every rank times its own calls; the parent only sleep-polls in
// run_native_team and reads the results from a shared mapping afterwards.
#include <sched.h>
#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>
#include <new>
#include <sstream>

#include "workloads.h"

namespace perf {

using kacc::Comm;
using kacc::obs::Counter;

// ------------------------------------------------------------ host helpers

void pin_to_cpus(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) {
    CPU_SET(cpu, &set);
  }
  if (::sched_setaffinity(0, sizeof(set), &set) != 0) {
    throw Unavailable("sched_setaffinity to cpu " +
                      std::to_string(cpus.front()) + " failed");
  }
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) {
        cpus.push_back(c);
      }
    }
  }
  return cpus;
}

long peak_rss_kb() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

void Layers::add(const Layers& o) {
  for (int l = 0; l < kLayerCount; ++l) {
    LayerTotals& a = t[static_cast<std::size_t>(l)];
    const LayerTotals& b = o.t[static_cast<std::size_t>(l)];
    a.count += b.count;
    a.total_us += b.total_us;
    a.self_us += b.self_us;
    a.bytes += b.bytes;
  }
  rank_calls += o.rank_calls;
  cma_retries += o.cma_retries;
  fallback_ops += o.fallback_ops;
  slow_waits += o.slow_waits;
  steps_issued += o.steps_issued;
  steps_deferred += o.steps_deferred;
  admission_stalls += o.admission_stalls;
  drift_alarms += o.drift_alarms;
  tune_us += o.tune_us;
  tune_n += o.tune_n;
  compile_us += o.compile_us;
  compile_n += o.compile_n;
  compile_steps += o.compile_steps;
}

CounterDelta::CounterDelta(Comm& comm) : comm_(&comm), last_(read()) {}

std::array<std::uint64_t, 7> CounterDelta::read() const {
  const auto& c = comm_->recorder().counters;
  return {c.value(Counter::kCmaRetries),
          c.value(Counter::kFallbackReadOps) +
              c.value(Counter::kFallbackWriteOps),
          c.value(Counter::kSpinSlowWaits),
          c.value(Counter::kNbcStepsIssued),
          c.value(Counter::kNbcStepsDeferred),
          c.value(Counter::kNbcAdmissionStalls),
          c.value(Counter::kModelDriftAlarms)};
}

void CounterDelta::fold(Layers& into) {
  const auto now = read();
  std::uint64_t* dst[] = {&into.cma_retries,    &into.fallback_ops,
                          &into.slow_waits,     &into.steps_issued,
                          &into.steps_deferred, &into.admission_stalls,
                          &into.drift_alarms};
  for (std::size_t i = 0; i < now.size(); ++i) {
    *dst[i] += now[i] - last_[i];
  }
  last_ = now;
}

void Outcome::fail(const std::string& why, std::uint64_t calls) {
  attempted += calls;
  failed += calls;
  if (first_failure.empty()) {
    first_failure = why;
  }
}

namespace {

constexpr int kRanks = 4;
constexpr std::size_t kMaxCalls = std::size_t{1} << 18;
constexpr std::int64_t kNoStop = std::numeric_limits<std::int64_t>::max();
constexpr std::size_t kKeptSpans = 20000;
constexpr int kTuneReps = 3;

// Overlap window: two i* slots plus two persistent requests. An epoch
// claims exactly Comm::kNbcTags signal lanes (2 inits + 14 i*), so lanes
// recycle only across the epoch-end barrier.
constexpr int kImmSlots = 2;
constexpr int kPersistent = 2;
constexpr int kImmPerEpoch = kacc::Comm::kNbcTags - kPersistent;
constexpr int kStartsPerEpoch = 14;
constexpr int kActionsPerEpoch = kImmPerEpoch + kStartsPerEpoch;

struct RankReport {
  double entry_us = 0.0;
  std::uint64_t calls = 0; ///< calls (requests) this rank started
  std::uint64_t failed = 0;
  char first_failure[200] = {};
  long maxrss_kb = 0;
  Layers layers;
};

/// Lives in a MAP_SHARED anonymous mapping made before the fork.
struct Shared {
  std::atomic<std::int64_t> stop{kNoStop};
  RankReport rank[kRanks];
  std::uint32_t cell_of[kMaxCalls];
  double dur_us[kRanks][kMaxCalls];
  double epoch_us[kMaxCalls / kActionsPerEpoch]; ///< overlap, rank 0
};

class SharedMap {
public:
  SharedMap() {
    void* p = ::mmap(nullptr, sizeof(Shared), PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) {
      throw std::bad_alloc();
    }
    // Touch it all now, so the harness's own footprint does not grow with
    // the number of calls a run happens to make.
    std::memset(p, 0, sizeof(Shared));
    sh_ = new (p) Shared;
  }
  ~SharedMap() { ::munmap(sh_, sizeof(Shared)); }
  SharedMap(const SharedMap&) = delete;
  SharedMap& operator=(const SharedMap&) = delete;
  Shared* operator->() const { return sh_; }
  Shared* get() const { return sh_; }

private:
  Shared* sh_;
};

struct Plan {
  Config cfg;
  std::vector<Cell> cells;
  bool overlap = false;
  std::size_t max_send = 0;
  std::size_t max_recv = 0;
  std::vector<int> cpus;
};

void note_failure(RankReport& rep, const std::string& why) {
  if (rep.failed++ == 0) {
    std::strncpy(rep.first_failure, why.c_str(),
                 sizeof(rep.first_failure) - 1);
  }
}

/// Standalone Tuner and compile timings for every cell (traced launches).
void time_tune_compile(Comm& comm, Tracer& tracer, const Plan& plan,
                       void* send, void* recv, Layers& out) {
  tracer.set_call(std::numeric_limits<std::uint32_t>::max());
  for (const Cell& c : plan.cells) {
    for (int rep = 0; rep < kTuneReps; ++rep) {
      double t0 = host_us();
      {
        ScopedSpan s(&tracer, Layer::kTune);
        (void)tune(comm.arch(), comm.size(), c);
      }
      out.tune_us += host_us() - t0;
      ++out.tune_n;
      t0 = host_us();
      std::size_t steps = 0;
      {
        ScopedSpan s(&tracer, Layer::kCompile);
        steps = compile(comm, c, send, recv);
      }
      out.compile_us += host_us() - t0;
      ++out.compile_n;
      out.compile_steps += steps;
    }
  }
}

void finish_rank(RankReport& rep, const Tracer& tracer, bool traced,
                 const Plan& plan, int launch, int rank) {
  if (traced) {
    for (int l = 0; l < kLayerCount; ++l) {
      rep.layers.t[static_cast<std::size_t>(l)] =
          tracer.totals(static_cast<Layer>(l));
    }
    const std::string path = plan.cfg.trace_dir + "/spans-l" +
                             std::to_string(launch) + "-r" +
                             std::to_string(rank) + ".csv";
    if (!tracer.write_csv(path, rank)) {
      note_failure(rep, "cannot write " + path);
    }
  }
  rep.maxrss_kb = peak_rss_kb();
}

/// Closed loop of blocking calls: fill, untimed barrier, timed call,
/// verify. Rank 0 picks the stop call before a barrier, so every rank
/// leaves after the same call.
void blocking_body(Comm& base, const Plan& plan, const Patterns& pat,
                   Shared* sh, int launch, bool traced, double budget_s) {
  const int rank = base.rank();
  RankReport& rep = sh->rank[rank];
  rep.entry_us = host_us();
  pin_to_cpus({plan.cpus[static_cast<std::size_t>(rank)]});
  Tracer tracer(kKeptSpans);
  TracingComm tc(base, tracer);
  Comm& comm = traced ? static_cast<Comm&>(tc) : base;
  Tracer* tp = traced ? &tracer : nullptr;

  kacc::AlignedBuffer send(plan.max_send);
  kacc::AlignedBuffer recv(plan.max_recv);
  if (traced) {
    time_tune_compile(comm, tracer, plan, send.data(), recv.data(),
                      rep.layers);
  }
  CallOrder order(plan.cells.size(), plan.cfg.seed ^ mix64(launch));
  const std::size_t round = plan.cells.size();
  const double deadline = rep.entry_us + budget_s * 1e6;
  CounterDelta counters(base);
  std::size_t i = 0;
  for (;; ++i) {
    const std::size_t ci = order.cell(i);
    const Cell& cell = plan.cells[ci];
    const std::uint64_t salt = salt_of(plan.cfg.seed, launch, i);
    pat.fill(cell, rank, 0, salt, send.data(), recv.data());
    if (rank == 0) {
      sh->cell_of[i] = static_cast<std::uint32_t>(ci);
      // Whole rounds only (the first is the warm-up), so every cell gets
      // the same number of calls.
      if (i >= 2 * round && i % round == 0 &&
          (host_us() > deadline || i + round >= kMaxCalls)) {
        std::int64_t none = kNoStop;
        sh->stop.compare_exchange_strong(none, static_cast<std::int64_t>(i));
      }
    }
    base.barrier();
    if (static_cast<std::int64_t>(i) >= sh->stop.load()) {
      break;
    }
    rep.calls = i + 1;
    Layers outside; // the untimed barrier's counts are dropped
    counters.fold(outside);
    tracer.set_call(static_cast<std::uint32_t>(i));
    const double t0 = host_us();
    {
      ScopedSpan span(tp, Layer::kColl);
      run_blocking(comm, cell, send.data(), recv.data());
    }
    sh->dur_us[rank][i] = host_us() - t0;
    counters.fold(rep.layers);
    const std::string err =
        pat.verify(cell, rank, 0, salt, send.data(), recv.data());
    if (!err.empty()) {
      note_failure(rep, "call " + std::to_string(i) + " " + cell_name(cell) +
                            ": " + err);
    }
  }
  rep.layers.rank_calls = i;
  finish_rank(rep, tracer, traced, plan, launch, rank);
}

/// Overlap: a window of 2 i* and 2 persistent requests. The seeded action
/// stream (issue an i* cell, or restart persistent j) is identical on every
/// rank, and so is the slot each action reuses: i* issues take their two
/// slots in turn. Before an action a rank calls wait_any until that slot's
/// request has completed, handling whatever completes meanwhile. An i*
/// init exchanges addresses collectively and blocks, so every rank must
/// wait for the same request first: had one rank freed a different slot,
/// it could block in the init while a peer still needed its progress.
void overlap_body(Comm& base, const Plan& plan, const Patterns& pat,
                  Shared* sh, int launch, bool traced, double budget_s) {
  const int rank = base.rank();
  RankReport& rep = sh->rank[rank];
  rep.entry_us = host_us();
  pin_to_cpus({plan.cpus[static_cast<std::size_t>(rank)]});
  Tracer tracer(kKeptSpans);
  TracingComm tc(base, tracer);
  Comm& comm = traced ? static_cast<Comm&>(tc) : base;
  Tracer* tp = traced ? &tracer : nullptr;

  std::vector<std::size_t> imm_cells;
  std::vector<std::size_t> pers_cells;
  for (std::size_t c = 0; c < plan.cells.size(); ++c) {
    (plan.cells[c].persistent ? pers_cells : imm_cells).push_back(c);
  }
  constexpr int kSlots = kImmSlots + kPersistent;
  struct Slot {
    kacc::AlignedBuffer send;
    kacc::AlignedBuffer recv;
    bool active = false;
    std::size_t action = 0;
    std::size_t cell = 0;
    std::uint64_t salt = 0;
    double t_issue = 0.0;
  };
  std::vector<Slot> slots(kSlots);
  for (Slot& s : slots) {
    s.send = kacc::AlignedBuffer(plan.max_send);
    s.recv = kacc::AlignedBuffer(plan.max_recv);
  }
  if (traced) {
    time_tune_compile(comm, tracer, plan, slots[0].send.data(),
                      slots[0].recv.data(), rep.layers);
  }
  kacc::nbc::Request win[kSlots];

  const auto complete = [&](std::size_t idx) {
    Slot& s = slots[idx];
    sh->dur_us[rank][s.action] = host_us() - s.t_issue;
    s.active = false;
    const Cell& cell = plan.cells[s.cell];
    const std::string err =
        pat.verify(cell, rank, 0, s.salt, s.send.data(), s.recv.data());
    if (!err.empty()) {
      note_failure(rep, "request " + std::to_string(s.action) + " " +
                            cell_name(cell) + ": " + err);
    }
  };
  const auto wait_one = [&] {
    std::size_t idx = 0;
    {
      ScopedSpan span(tp, Layer::kNbcWait);
      idx = kacc::nbc::wait_any(win);
      tracer.set_call(static_cast<std::uint32_t>(slots[idx].action));
    }
    complete(idx);
  };

  Rng rng(plan.cfg.seed ^ mix64(0x6f7665726c6170ull + launch));
  const double deadline = rep.entry_us + budget_s * 1e6;
  CounterDelta counters(base);
  std::size_t action = 0;
  std::size_t imm_issued = 0;
  for (std::int64_t epoch = 0;; ++epoch) {
    const double t_epoch = host_us();
    Layers outside; // the epoch barrier's counts are dropped
    counters.fold(outside);
    for (int j = 0; j < kPersistent; ++j) {
      Slot& s = slots[kImmSlots + j];
      s.cell = pers_cells[rng.below(pers_cells.size())];
      ScopedSpan span(tp, Layer::kNbcIssue);
      win[kImmSlots + j] = issue_nbc(comm, plan.cells[s.cell], s.send.data(),
                                     s.recv.data());
    }
    // 14 i* issues and 14 persistent restarts, in seeded order.
    int kinds[kActionsPerEpoch];
    for (int a = 0; a < kActionsPerEpoch; ++a) {
      kinds[a] = a < kImmPerEpoch ? -1 : (a - kImmPerEpoch) % kPersistent;
    }
    for (int a = kActionsPerEpoch; a > 1; --a) {
      std::swap(kinds[a - 1], kinds[rng.below(static_cast<std::uint64_t>(a))]);
    }
    for (int a = 0; a < kActionsPerEpoch; ++a, ++action) {
      std::size_t idx = 0;
      std::size_t ci = 0;
      if (kinds[a] < 0) {
        ci = imm_cells[rng.below(imm_cells.size())];
        idx = imm_issued++ % kImmSlots;
      } else {
        idx = static_cast<std::size_t>(kImmSlots + kinds[a]);
        ci = slots[idx].cell;
      }
      while (slots[idx].active) {
        wait_one();
      }
      Slot& s = slots[idx];
      s.action = action;
      s.cell = ci;
      s.salt = salt_of(plan.cfg.seed, launch, action);
      s.active = true;
      pat.fill(plan.cells[ci], rank, 0, s.salt, s.send.data(), s.recv.data());
      if (rank == 0) {
        sh->cell_of[action] = static_cast<std::uint32_t>(ci);
      }
      rep.calls = action + 1;
      tracer.set_call(static_cast<std::uint32_t>(action));
      s.t_issue = host_us();
      ScopedSpan span(tp, Layer::kNbcIssue);
      if (kinds[a] < 0) {
        win[idx] = issue_nbc(comm, plan.cells[ci], s.send.data(),
                             s.recv.data());
      } else {
        kacc::nbc::start(win[idx]);
      }
    }
    while (std::any_of(slots.begin(), slots.end(),
                       [](const Slot& s) { return s.active; })) {
      wait_one();
    }
    for (int j = 0; j < kPersistent; ++j) {
      win[kImmSlots + j] = kacc::nbc::Request{};
    }
    counters.fold(rep.layers);
    const double now = host_us();
    if (rank == 0) {
      sh->epoch_us[epoch] = now - t_epoch;
    }
    if (rank == 0 && epoch >= 1 &&
        (now > deadline ||
         action + kActionsPerEpoch >= kMaxCalls)) {
      std::int64_t none = kNoStop;
      sh->stop.compare_exchange_strong(none, epoch + 1);
    }
    base.barrier();
    if (epoch + 1 >= sh->stop.load()) {
      break;
    }
  }
  rep.layers.rank_calls = action;
  finish_rank(rep, tracer, traced, plan, launch, rank);
}

Plan make_plan(const Config& cfg) {
  Plan plan;
  plan.cfg = cfg;
  const std::vector<Op> all = {Op::kBcast,     Op::kScatter,  Op::kGather,
                               Op::kAllgather, Op::kAlltoall, Op::kReduce,
                               Op::kAllreduce};
  std::vector<Op> ops = all;
  std::vector<std::size_t> sizes;
  constexpr std::size_t KiB = 1024;
  if (cfg.workload == "native-latency") {
    sizes = {8, 64, 512, 4 * KiB, 16 * KiB};
  } else if (cfg.workload == "native-bandwidth") {
    sizes = {256 * KiB, 1024 * KiB, 4096 * KiB};
  } else {
    plan.overlap = true;
    ops = {Op::kBcast, Op::kAllgather, Op::kAlltoall, Op::kAllreduce};
    sizes = {4 * KiB, 16 * KiB, 64 * KiB, 256 * KiB};
  }
  if (cfg.smoke) {
    sizes = {sizes.front(), sizes.back()};
  }
  plan.cells = make_cells(ops, sizes, plan.overlap, cfg.seed);
  for (const Cell& c : plan.cells) {
    plan.max_send = std::max(plan.max_send, send_bytes(c, kRanks));
    plan.max_recv = std::max(plan.max_recv, recv_bytes(c, kRanks));
  }
  return plan;
}

} // namespace

Outcome run_native(const Config& cfg) {
  Outcome out;
  Plan plan = make_plan(cfg);
  plan.cpus = allowed_cpus();
  if (static_cast<int>(plan.cpus.size()) < kRanks) {
    throw Unavailable("native workloads pin one rank per CPU and need " +
                      std::to_string(kRanks) + " allowed CPUs, have " +
                      std::to_string(plan.cpus.size()));
  }
  plan.cpus.resize(kRanks);
  std::size_t max_block = 0;
  for (const Cell& c : plan.cells) {
    max_block = std::max(max_block, c.bytes);
  }
  const Patterns pat(kRanks, max_block); // built once, inherited by fork
  const kacc::ArchSpec spec = kacc::detect_host();
  SharedMap sh;

  // Ten launches, all measured; when tracing, the odd ones are traced
  // instead (the difference is the tracing overhead). Figures are taken
  // over launches, so a disturbed launch cannot carry a run. A burst of the
  // model reference follows each launch, so it samples the whole run too.
  constexpr int kLaunches = 10;
  const double launch_s = cfg.seconds * 0.8 / kLaunches;
  std::vector<CellSamples> groups;
  std::vector<CellSamples> traced_groups;
  std::vector<double> ops_rates; // blocking: per launch; overlap: per epoch
  std::vector<double> bw_rates;
  std::vector<double> launch_rss_kb;
  long rank_rss_kb[kRanks] = {};
  ModelReference model(spec, kRanks, plan.cells, cfg.seed);

  kacc::TeamOptions topts;
  topts.op_deadline_ms = 20'000.0;
  topts.team_timeout_ms = 60'000.0;

  for (int launch = 0; launch < kLaunches; ++launch) {
    const bool traced = cfg.trace && launch % 2 == 1;
    sh->stop.store(kNoStop);
    for (RankReport& r : sh->rank) {
      r = RankReport{};
    }
    const double t_launch = host_us();
    const kacc::TeamResult tr = kacc::run_native_team(
        spec, kRanks,
        [&](Comm& comm) {
          if (plan.overlap) {
            overlap_body(comm, plan, pat, sh.get(), launch, traced, launch_s);
          } else {
            blocking_body(comm, plan, pat, sh.get(), launch, traced,
                          launch_s);
          }
        },
        topts);
    model.burst(cfg.seconds * 0.15 / kLaunches, plan.cpus[0]);
    if (!tr.all_ok()) {
      out.fail("launch " + std::to_string(launch) + ": " + tr.first_failure(),
               sh->rank[0].calls + 1);
      continue;
    }
    double entered = 0.0;
    double rss_kb = 0.0;
    for (int r = 0; r < kRanks; ++r) {
      const RankReport& rep = sh->rank[r];
      entered = std::max(entered, rep.entry_us);
      rss_kb += static_cast<double>(rep.maxrss_kb);
      rank_rss_kb[r] = std::max(rank_rss_kb[r], rep.maxrss_kb);
      out.failed += rep.failed;
      if (rep.failed != 0 && out.first_failure.empty()) {
        out.first_failure = rep.first_failure;
      }
      if (traced) {
        out.layers.add(rep.layers);
      }
    }
    const std::size_t calls = sh->rank[0].calls;
    out.attempted += calls;
    // Blocking: the first round is the warm-up. Overlap: the first epoch.
    const std::size_t warm =
        plan.overlap ? kActionsPerEpoch : plan.cells.size();
    CellSamples samples(plan.cells.size());
    for (std::size_t i = warm; i < calls; ++i) {
      double lat = 0.0;
      for (int r = 0; r < kRanks; ++r) {
        lat = std::max(lat, sh->dur_us[r][i]);
      }
      samples[sh->cell_of[i]].push_back(lat);
    }
    if (traced) {
      traced_groups.push_back(std::move(samples));
      continue;
    }
    groups.push_back(std::move(samples));
    out.setup_s.push_back((entered - t_launch) * 1e-6);
    launch_rss_kb.push_back(rss_kb);
    // Overlap rates per measured epoch: a host disturbance stalls a few
    // epochs, and the median over epochs is not carried by them.
    for (std::size_t e = 1; plan.overlap && e < calls / kActionsPerEpoch;
         ++e) {
      double bus = 0.0;
      for (std::size_t i = e * kActionsPerEpoch; i < (e + 1) * kActionsPerEpoch;
           ++i) {
        bus += bus_bytes(plan.cells[sh->cell_of[i]], kRanks);
      }
      ops_rates.push_back(kActionsPerEpoch / (sh->epoch_us[e] * 1e-6));
      bw_rates.push_back(bus / sh->epoch_us[e] / 1e3);
    }
  }

  out.lat = summarize(groups);
  out.traced_p50_us = summarize(traced_groups).p50_us;
  for (const Cell& c : plan.cells) {
    out.cell_names.push_back(cell_name(c));
  }
  if (plan.overlap) {
    out.busbw_GBps = median(bw_rates);
    out.ops_per_s = median(ops_rates);
  } else {
    // Per launch: bus bandwidth at each cell's median, and the rate of a
    // round of every cell once at its median.
    for (const std::vector<double>& meds : out.lat.group_cell_median) {
      std::vector<double> bw;
      double round_us = 0.0;
      for (std::size_t c = 0; c < plan.cells.size(); ++c) {
        if (meds[c] > 0) {
          bw.push_back(bus_bytes(plan.cells[c], kRanks) / meds[c] / 1e3);
          round_us += meds[c];
        }
      }
      bw_rates.push_back(geomean(bw));
      ops_rates.push_back(static_cast<double>(bw.size()) / (round_us * 1e-6));
    }
    out.busbw_GBps = median(bw_rates);
    out.ops_per_s = median(ops_rates);
  }
  out.peak_rss_mb =
      (static_cast<double>(peak_rss_kb()) + median(launch_rss_kb)) / 1024.0;

  std::ostringstream info;
  info << "cells=" << plan.cells.size() << " ranks=" << kRanks
       << " pinned_cpus=";
  for (std::size_t r = 0; r < plan.cpus.size(); ++r) {
    info << (r ? "," : "") << plan.cpus[r];
  }
  info << " footprint_per_rank_bytes="
       << (plan.overlap ? 4 : 1) * (plan.max_send + plan.max_recv)
       << " largest_cell_block_bytes=" << max_block
       << " peak_rss_kb_parent=" << peak_rss_kb() << " peak_rss_kb_ranks=";
  for (int r = 0; r < kRanks; ++r) {
    info << (r ? "," : "") << rank_rss_kb[r];
  }
  out.info.push_back(info.str());

  out.sim = model.figures();
  out.attempted += out.sim.calls;
  return out;
}

} // namespace perf
