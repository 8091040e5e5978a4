// Simulator workloads: run_sim with move_data=false, the whole process bound
// to one CPU. Simulated ranks are token-serialized host threads, so rank 0
// times each call on the host clock from barrier exit to barrier exit, and
// every rank reads its call's virtual latency from Comm::now_us().
#include <malloc.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <new>
#include <sstream>

#include "workloads.h"

namespace perf {

using kacc::Comm;

namespace {

constexpr std::int64_t kNoStop = std::numeric_limits<std::int64_t>::max();
constexpr std::size_t kMaxSimCalls = 1 << 16;
constexpr std::size_t kKeptSpans = 20000;
constexpr int kTraceFileRanks = 4; ///< ranks whose spans are written out
constexpr std::size_t kVerifyBytes = 512;

struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double ctx = 0.0;
};

Usage usage_now() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  u.ctx = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

struct Preset {
  kacc::ArchSpec spec;
  int p = 0;
  std::vector<Cell> cells;
  std::size_t max_send = 0;
  std::size_t max_recv = 0;
  std::size_t max_block = 0;
};

Preset make_preset(kacc::ArchSpec spec, int p, std::vector<Cell> cells) {
  Preset pr{std::move(spec), p, std::move(cells)};
  for (const Cell& c : pr.cells) {
    pr.max_block = std::max(pr.max_block, c.bytes);
    pr.max_send = std::max(pr.max_send, send_bytes(c, p));
    pr.max_recv = std::max(pr.max_recv, recv_bytes(c, p));
  }
  return pr;
}

struct LaunchResult {
  double setup_s = 0.0;
  std::vector<std::size_t> cell;
  std::vector<double> host_us; ///< per call, barrier exit to barrier exit
  std::vector<double> virt_us; ///< per call, max over ranks
  std::uint64_t rerate_events = 0;
  std::uint64_t drift_alarms = 0;
  Layers layers;
};

/// One timing launch: whole shuffled rounds of `pr.cells` until
/// `budget_s` has passed (at least one round).
LaunchResult sim_launch(const Preset& pr, std::uint64_t seed, int launch,
                        double budget_s, bool traced,
                        const std::string& trace_dir) {
  const int p = pr.p;
  LaunchResult res;
  CallOrder order(pr.cells.size(), seed ^ mix64(0x73696dull + launch));
  std::vector<std::size_t> seq;
  std::vector<double> entry(static_cast<std::size_t>(p), 0.0);
  std::vector<std::vector<double>> vdur(static_cast<std::size_t>(p));
  std::vector<double> hmark;
  std::vector<std::unique_ptr<Tracer>> tracers;
  std::vector<Layers> rank_layers(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    tracers.push_back(std::make_unique<Tracer>(
        traced && r < kTraceFileRanks ? kKeptSpans : 0));
  }
  std::atomic<std::int64_t> stop{kNoStop};
  const std::size_t round = pr.cells.size();

  const double t_launch = host_us();
  const double deadline = t_launch + budget_s * 1e6;
  const kacc::SimRunResult sr = kacc::run_sim(
      pr.spec, p,
      [&](Comm& base) {
        const int r = base.rank();
        entry[static_cast<std::size_t>(r)] = host_us();
        Tracer& tracer = *tracers[static_cast<std::size_t>(r)];
        TracingComm tc(base, tracer);
        Comm& comm = traced ? static_cast<Comm&>(tc) : base;
        Tracer* tp = traced ? &tracer : nullptr;
        // Untouched except for the first block, which reduction combines
        // really read and write even when no payload moves.
        kacc::AlignedBuffer send(pr.max_send, 4096, false);
        kacc::AlignedBuffer recv(pr.max_recv, 4096, false);
        std::memset(send.data(), 0, pr.max_block);
        std::memset(recv.data(), 0, pr.max_block);
        Layers& lay = rank_layers[static_cast<std::size_t>(r)];
        if (traced) { // Tuner calls are timed once per cell outside the run
          tracer.set_call(std::numeric_limits<std::uint32_t>::max());
          for (const Cell& c : pr.cells) {
            const double t0 = host_us();
            std::size_t steps = 0;
            {
              ScopedSpan s(&tracer, Layer::kCompile);
              steps = compile(comm, c, send.data(), recv.data());
            }
            lay.compile_us += host_us() - t0;
            ++lay.compile_n;
            lay.compile_steps += steps;
          }
        }
        auto& mine = vdur[static_cast<std::size_t>(r)];
        std::size_t i = 0;
        for (;; ++i) {
          if (r == 0) {
            seq.push_back(order.cell(i));
            // Stop only between whole rounds, so every cell weighs the
            // same in the per-call means.
            if ((i > 0 && i % round == 0 && host_us() > deadline) ||
                i + round >= kMaxSimCalls) {
              stop.store(static_cast<std::int64_t>(i));
            }
          }
          base.barrier();
          if (r == 0) {
            hmark.push_back(host_us());
          }
          if (static_cast<std::int64_t>(i) >= stop.load()) {
            break;
          }
          const Cell& cell = pr.cells[seq[i]];
          tracer.set_call(static_cast<std::uint32_t>(i));
          const double v0 = base.now_us();
          {
            ScopedSpan span(tp, Layer::kColl);
            run_blocking(comm, cell, send.data(), recv.data());
          }
          mine.push_back(base.now_us() - v0);
        }
        lay.rank_calls = i;
        if (traced) {
          for (int l = 0; l < kLayerCount; ++l) {
            lay.t[static_cast<std::size_t>(l)] =
                tracer.totals(static_cast<Layer>(l));
          }
          if (r < kTraceFileRanks) {
            const std::string path = trace_dir + "/spans-l" +
                                     std::to_string(launch) + "-r" +
                                     std::to_string(r) + ".csv";
            if (!tracer.write_csv(path, r)) {
              throw std::runtime_error("cannot write " + path);
            }
          }
        }
      },
      /*move_data=*/false);
  res.setup_s =
      (*std::max_element(entry.begin(), entry.end()) - t_launch) * 1e-6;
  const std::size_t calls = vdur[0].size();
  for (std::size_t i = 0; i < calls; ++i) {
    double v = 0.0;
    for (const auto& d : vdur) {
      v = std::max(v, d[i]);
    }
    res.cell.push_back(seq[i]);
    res.virt_us.push_back(v);
    res.host_us.push_back(hmark[i + 1] - hmark[i]);
  }
  // Hand the launch's freed memory back, so the next launch's peak RSS
  // does not depend on this one's heap layout.
  ::malloc_trim(0);
  res.rerate_events = sr.obs.total(kacc::obs::Counter::kSimRerateEvents);
  res.drift_alarms = sr.obs.total(kacc::obs::Counter::kModelDriftAlarms);
  for (const Layers& l : rank_layers) {
    res.layers.add(l);
  }
  return res;
}

/// Data-moving run of every op at a small size with salted patterns:
/// the simulator's collectives must deliver exactly the right bytes.
void verify_sim(const Preset& pr, std::uint64_t seed, Outcome& out) {
  const int p = pr.p;
  std::vector<Cell> cells;
  for (Op op : {Op::kBcast, Op::kScatter, Op::kGather, Op::kAllgather,
                Op::kAlltoall, Op::kReduce, Op::kAllreduce}) {
    cells.push_back({op, kVerifyBytes, false});
  }
  const Patterns pat(p, kVerifyBytes);
  std::mutex mu;
  std::uint64_t failed = 0;
  std::string first;
  try {
    kacc::run_sim(pr.spec, p, [&](Comm& comm) {
      const int r = comm.rank();
      kacc::AlignedBuffer send(kVerifyBytes * static_cast<std::size_t>(p));
      kacc::AlignedBuffer recv(kVerifyBytes * static_cast<std::size_t>(p));
      for (std::size_t i = 0; i < cells.size(); ++i) {
        const std::uint64_t salt = salt_of(seed, -1, i);
        pat.fill(cells[i], r, 0, salt, send.data(), recv.data());
        comm.barrier();
        run_blocking(comm, cells[i], send.data(), recv.data());
        const std::string err =
            pat.verify(cells[i], r, 0, salt, send.data(), recv.data());
        if (!err.empty()) {
          const std::lock_guard<std::mutex> lock(mu);
          if (failed++ == 0) {
            first = pr.spec.name + " rank " + std::to_string(r) + ": " + err;
          }
        }
      }
    });
  } catch (const std::exception& e) {
    out.fail(pr.spec.name + " verification run: " + e.what(), cells.size());
    return;
  }
  out.attempted += cells.size();
  if (failed != 0) {
    out.failed += failed;
    if (out.first_failure.empty()) {
      out.first_failure = first;
    }
  }
}

/// Folds timing launches into the simulator figures; `used` is the
/// process CPU time and context switches they took.
SimFigures figures_of(const std::vector<const Preset*>& presets,
                      const std::vector<std::vector<LaunchResult>>& runs,
                      const Usage& used) {
  SimFigures f;
  std::vector<double> virt;
  std::vector<double> bw;
  std::vector<double> ratio;
  double host = 0.0;
  std::vector<double> host_med;
  std::uint64_t rerate = 0;
  for (std::size_t k = 0; k < presets.size(); ++k) {
    const Preset& pr = *presets[k];
    CellSamples v_cell(pr.cells.size());
    CellSamples h_cell(pr.cells.size());
    for (const LaunchResult& lr : runs[k]) {
      rerate += lr.rerate_events;
      f.drift_alarms += lr.drift_alarms;
      for (std::size_t i = 0; i < lr.cell.size(); ++i) {
        v_cell[lr.cell[i]].push_back(lr.virt_us[i]);
        h_cell[lr.cell[i]].push_back(lr.host_us[i]);
        host += lr.host_us[i];
        ++f.calls;
      }
    }
    for (std::size_t c = 0; c < pr.cells.size(); ++c) {
      if (v_cell[c].empty()) {
        continue;
      }
      const double v = median(v_cell[c]);
      virt.push_back(v);
      bw.push_back(bus_bytes(pr.cells[c], pr.p) / v / 1e3);
      ratio.push_back(tune(pr.spec, pr.p, pr.cells[c]) / v);
      host_med.push_back(median(h_cell[c]));
    }
  }
  const double calls = static_cast<double>(std::max<std::uint64_t>(1, f.calls));
  f.virt_geomean_us = geomean(virt);
  f.virt_busbw_GBps = geomean(bw);
  f.pred_ratio = geomean(ratio);
  double round_us = 0.0;
  for (double h : host_med) {
    round_us += h;
  }
  f.sim_ops_per_s = host_med.empty() ? 0.0 : 1e6 / geomean(host_med);
  f.round_ops_per_s =
      round_us > 0 ? static_cast<double>(host_med.size()) / (round_us * 1e-6)
                   : 0.0;
  f.host_ms_per_op = host / calls / 1e3;
  const double cpu = used.user_s + used.sys_s;
  f.sys_share = cpu > 0 ? used.sys_s / cpu : 0.0;
  f.ctx_switches_per_op = used.ctx / calls;
  f.rerate_per_op = static_cast<double>(rerate) / calls;
  return f;
}

Usage usage_delta(const Usage& a, const Usage& b) {
  return {b.user_s - a.user_s, b.sys_s - a.sys_s, b.ctx - a.ctx};
}

/// One burst's results, written by the forked child that ran it.
struct BurstResult {
  std::uint64_t calls = 0;
  std::uint64_t rerate_events = 0;
  std::uint64_t drift_alarms = 0;
  Usage used;
  std::uint32_t cell[kMaxSimCalls];
  double host_us[kMaxSimCalls];
  double virt_us[kMaxSimCalls];
};

/// Anonymous shared mapping holding one BurstResult.
class BurstMap {
public:
  BurstMap() {
    void* p = ::mmap(nullptr, sizeof(BurstResult), PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) {
      throw std::bad_alloc();
    }
    r_ = new (p) BurstResult;
  }
  ~BurstMap() { ::munmap(r_, sizeof(BurstResult)); }
  BurstMap(const BurstMap&) = delete;
  BurstMap& operator=(const BurstMap&) = delete;
  BurstResult* operator->() const { return r_; }

private:
  BurstResult* r_;
};

} // namespace

struct ModelReference::Impl {
  Preset pr;
  std::uint64_t seed = 0;
  std::vector<std::vector<LaunchResult>> runs{1};
  Usage used;
};

ModelReference::ModelReference(const kacc::ArchSpec& spec, int p,
                               std::vector<Cell> cells, std::uint64_t seed)
    : impl_(std::make_unique<Impl>()) {
  for (Cell& c : cells) {
    c.persistent = false;
  }
  impl_->pr = make_preset(spec, p, std::move(cells));
  impl_->seed = seed;
}

ModelReference::~ModelReference() = default;

void ModelReference::burst(double budget_s, int cpu) {
  std::vector<LaunchResult>& runs = impl_->runs[0];
  const BurstMap out;
  const pid_t pid = ::fork();
  if (pid < 0) {
    throw std::runtime_error("model reference: fork failed");
  }
  if (pid == 0) {
    int code = 0;
    try {
      pin_to_cpus({cpu});
      const Usage u0 = usage_now();
      const LaunchResult lr =
          sim_launch(impl_->pr, impl_->seed, static_cast<int>(runs.size()),
                     budget_s, false, "");
      out->used = usage_delta(u0, usage_now());
      out->rerate_events = lr.rerate_events;
      out->drift_alarms = lr.drift_alarms;
      out->calls = lr.cell.size();
      for (std::size_t i = 0; i < lr.cell.size(); ++i) {
        out->cell[i] = static_cast<std::uint32_t>(lr.cell[i]);
        out->host_us[i] = lr.host_us[i];
        out->virt_us[i] = lr.virt_us[i];
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "model reference burst failed: %s\n", e.what());
      code = 1;
    }
    ::_exit(code);
  }
  int status = 0;
  pid_t reaped = -1;
  do {
    reaped = ::waitpid(pid, &status, 0);
  } while (reaped < 0 && errno == EINTR);
  if (reaped != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("model reference burst failed");
  }
  LaunchResult lr;
  lr.rerate_events = out->rerate_events;
  lr.drift_alarms = out->drift_alarms;
  for (std::size_t i = 0; i < out->calls; ++i) {
    lr.cell.push_back(out->cell[i]);
    lr.host_us.push_back(out->host_us[i]);
    lr.virt_us.push_back(out->virt_us[i]);
  }
  runs.push_back(std::move(lr));
  impl_->used = {impl_->used.user_s + out->used.user_s,
                 impl_->used.sys_s + out->used.sys_s,
                 impl_->used.ctx + out->used.ctx};
}

SimFigures ModelReference::figures() const {
  return figures_of({&impl_->pr}, impl_->runs, impl_->used);
}

Outcome run_sim_sweep(const Config& cfg) {
  Outcome out;
  const std::vector<int> cpus = allowed_cpus();
  if (cpus.empty()) {
    throw Unavailable("no allowed CPU to bind the simulator to");
  }
  pin_to_cpus({cpus[0]});

  constexpr std::size_t KiB = 1024;
  const std::vector<Op> ops = {Op::kBcast,     Op::kScatter,  Op::kGather,
                               Op::kAllgather, Op::kAlltoall, Op::kReduce,
                               Op::kAllreduce};
  std::vector<std::size_t> sizes = {1 * KiB, 4 * KiB, 16 * KiB, 64 * KiB};
  if (cfg.smoke) {
    sizes = {sizes.front(), sizes.back()};
  }
  const int p_knl = cfg.smoke ? 16 : 64;
  const int p_snc4 = cfg.smoke ? 32 : 128;
  std::vector<Preset> presets;
  presets.push_back(make_preset(kacc::knl(), p_knl,
                                make_cells(ops, sizes, false, cfg.seed)));
  presets.push_back(make_preset(kacc::knl_snc4(), p_snc4,
                                make_cells(ops, sizes, false, cfg.seed + 1)));

  const double t_verify = host_us();
  for (const Preset& pr : presets) {
    verify_sim(pr, cfg.seed, out);
  }
  const double verify_s = (host_us() - t_verify) * 1e-6;

  // Standalone Tuner cost per cell (the call every rank makes per kAuto
  // collective), timed here instead of on every simulated rank.
  Layers tuned;
  for (const Preset& pr : presets) {
    for (const Cell& c : pr.cells) {
      for (int rep = 0; rep < 3; ++rep) {
        const double t0 = host_us();
        (void)tune(pr.spec, pr.p, c);
        tuned.tune_us += host_us() - t0;
        ++tuned.tune_n;
      }
    }
  }

  // Rounds of one launch per preset; when tracing, the first half of the
  // rounds is untraced and the second half traced.
  const int rounds = cfg.trace ? 2 : 3;
  const double launch_s =
      cfg.seconds * 0.85 / (rounds * static_cast<double>(presets.size()));
  std::vector<std::vector<LaunchResult>> plain(presets.size());
  std::vector<std::vector<LaunchResult>> traced(presets.size());
  Usage used;
  for (int round = 0; round < rounds; ++round) {
    const bool tr = cfg.trace && round >= rounds / 2;
    double setup = 0.0;
    for (std::size_t k = 0; k < presets.size(); ++k) {
      const Usage u0 = usage_now();
      LaunchResult lr =
          sim_launch(presets[k], cfg.seed, round * 2 + static_cast<int>(k),
                     launch_s, tr, cfg.trace_dir);
      if (!tr) {
        const Usage d = usage_delta(u0, usage_now());
        used = {used.user_s + d.user_s, used.sys_s + d.sys_s, used.ctx + d.ctx};
      }
      setup += lr.setup_s;
      for (double v : lr.virt_us) {
        if (!(v > 0.0) || !(v < 1e12)) {
          out.fail(presets[k].spec.name + ": virtual latency " +
                   std::to_string(v));
        }
      }
      out.attempted += lr.cell.size();
      (tr ? traced : plain)[k].push_back(std::move(lr));
    }
    if (!tr) {
      out.setup_s.push_back(setup); // one sweep over both presets
    }
  }

  std::vector<const Preset*> pp;
  for (const Preset& pr : presets) {
    pp.push_back(&pr);
  }
  out.sim = figures_of(pp, plain, used);

  // Host latency per simulated call, per cell (cells of both presets).
  const auto host_cells = [&](const std::vector<std::vector<LaunchResult>>& rs) {
    CellSamples per_cell;
    for (std::size_t k = 0; k < presets.size(); ++k) {
      CellSamples mine(presets[k].cells.size());
      for (const LaunchResult& lr : rs[k]) {
        for (std::size_t i = 0; i < lr.cell.size(); ++i) {
          mine[lr.cell[i]].push_back(lr.host_us[i]);
        }
      }
      per_cell.insert(per_cell.end(), mine.begin(), mine.end());
    }
    return per_cell;
  };
  out.lat = summarize({host_cells(plain)});
  for (const Preset& pr : presets) {
    for (const Cell& c : pr.cells) {
      out.cell_names.push_back(pr.spec.name + "/" + cell_name(c));
    }
  }
  out.traced_p50_us = summarize({host_cells(traced)}).p50_us;

  for (const auto& launches : traced) {
    for (const LaunchResult& lr : launches) {
      out.layers.add(lr.layers);
    }
  }
  out.busbw_GBps = out.sim.virt_busbw_GBps;
  out.ops_per_s = out.sim.round_ops_per_s;
  out.layers.tune_us = tuned.tune_us;
  out.layers.tune_n = tuned.tune_n;
  out.peak_rss_mb = static_cast<double>(peak_rss_kb()) / 1024.0;

  std::ostringstream info;
  info << "presets=" << presets[0].spec.name << "/p" << p_knl << ","
       << presets[1].spec.name << "/p" << p_snc4
       << " cells=" << presets[0].cells.size() + presets[1].cells.size()
       << " bound_cpu=" << cpus[0] << " move_data=false verify_bytes="
       << kVerifyBytes << " verify_s=" << verify_s
       << " tune_s=" << tuned.tune_us * 1e-6;
  out.info.push_back(info.str());
  return out;
}

} // namespace perf
