// kacc host-time benchmark: the kacc_perf program.
//
//   kacc_perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-dir <dir>] [--smoke]
//
// Prints provenance lines starting with '#', then one JSON object as the
// last line: {"correct", "attempted", "failed", "metrics"}. --trace 0 prints
// the end-to-end metrics, --trace 1 the per-layer metrics. Exit codes: 0 ok,
// 1 a call failed or mis-verified, 2 bad arguments, 3 the workload cannot
// run on this host (no CMA, too few CPUs).
#include <cpuid.h>
#include <malloc.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "workloads.h"

namespace {

using perf::Layer;

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string cpu_model() {
  unsigned int regs[12] = {};
  for (unsigned int i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002u + i, &regs[i * 4], &regs[i * 4 + 1],
                    &regs[i * 4 + 2], &regs[i * 4 + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto b = s.find_first_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b);
}

std::string host_line(bool native) {
  std::ostringstream os;
  os << "# host cpus=";
  const std::vector<int> cpus = perf::allowed_cpus();
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    os << (i ? "," : "") << cpus[i];
  }
  struct utsname u {};
  ::uname(&u);
  const long llc = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
  os << " nproc=" << ::sysconf(_SC_NPROCESSORS_ONLN) << " cpu=\""
     << cpu_model() << "\" llc_bytes=" << (llc > 0 ? llc : 0)
     << " kernel=" << u.release << " cma="
     << (kacc::cma::available() ? "available"
                                : std::string("unavailable (") +
                                      kacc::cma::unavailable_reason() + ")")
     << " native=" << (native ? "yes" : "no");
  return os.str();
}

std::vector<Metric> end_to_end(const perf::Outcome& o) {
  return {
      {"lat_p50_us", o.lat.p50_us, "us"},
      {"lat_p95_us", o.lat.p95_us, "us"},
      {"busbw_GBps", o.busbw_GBps, "GB/s"},
      {"ops_per_s", o.ops_per_s, "1/s"},
      {"virt_geomean_us", o.sim.virt_geomean_us, "us"},
      {"setup_s", perf::median(o.setup_s), "s"},
      {"peak_rss_mb", o.peak_rss_mb, "MB"},
  };
}

std::vector<Metric> per_layer(const perf::Outcome& o, bool sim_workload) {
  const perf::Layers& l = o.layers;
  const double calls =
      l.rank_calls > 0 ? static_cast<double>(l.rank_calls) : 1.0;
  const auto tot = [&](Layer x) -> const perf::LayerTotals& {
    return l.t[static_cast<std::size_t>(x)];
  };
  const auto per = [&](double v) { return v / calls; };
  const auto avg = [](double sum, std::uint64_t n) {
    return n > 0 ? sum / static_cast<double>(n) : 0.0;
  };
  const perf::LayerTotals& cma = tot(Layer::kCma);
  const double drift = sim_workload ? static_cast<double>(o.sim.drift_alarms)
                                    : static_cast<double>(l.drift_alarms);
  const double overhead =
      o.lat.p50_us > 0 ? (o.traced_p50_us - o.lat.p50_us) / o.lat.p50_us * 100
                       : 0.0;
  const double attempted =
      o.attempted > 0 ? static_cast<double>(o.attempted) : 1.0;
  return {
      {"coll.call_us", per(tot(Layer::kColl).total_us), "us"},
      {"coll.self_us", per(tot(Layer::kColl).self_us), "us"},
      {"coll.tune_us", avg(l.tune_us, l.tune_n), "us"},
      {"nbc.compile_us", avg(l.compile_us, l.compile_n), "us"},
      {"nbc.steps_per_call",
       avg(static_cast<double>(l.compile_steps), l.compile_n), "count"},
      {"nbc.issue_us", per(tot(Layer::kNbcIssue).total_us), "us"},
      {"nbc.wait_self_us", per(tot(Layer::kNbcWait).self_us), "us"},
      {"nbc.steps_issued", per(static_cast<double>(l.steps_issued)), "count"},
      {"nbc.steps_deferred", per(static_cast<double>(l.steps_deferred)),
       "count"},
      {"nbc.admission_stalls", per(static_cast<double>(l.admission_stalls)),
       "count"},
      {"cma.busy_us", per(cma.total_us), "us"},
      {"cma.ops_per_call", per(static_cast<double>(cma.count)), "count"},
      {"cma.bytes_per_call", per(static_cast<double>(cma.bytes)), "B"},
      {"cma.GBps",
       cma.total_us > 0 ? static_cast<double>(cma.bytes) / cma.total_us / 1e3
                        : 0.0,
       "GB/s"},
      {"cma.retries", per(static_cast<double>(l.cma_retries)), "count"},
      {"cma.fallback_ops", per(static_cast<double>(l.fallback_ops)), "count"},
      {"shm.ctrl_us", per(tot(Layer::kCtrl).total_us), "us"},
      {"shm.ctrl_ops_per_call",
       per(static_cast<double>(tot(Layer::kCtrl).count)), "count"},
      {"shm.sync_wait_us", per(tot(Layer::kSync).total_us), "us"},
      {"shm.pipe_us", per(tot(Layer::kPipe).total_us), "us"},
      {"shm.slow_waits", per(static_cast<double>(l.slow_waits)), "count"},
      {"runtime.copy_us", per(tot(Layer::kCopy).total_us), "us"},
      {"runtime.misc_us", per(tot(Layer::kMisc).total_us), "us"},
      {"sim.ops_per_s", o.sim.sim_ops_per_s, "1/s"},
      {"sim.host_ms_per_op", o.sim.host_ms_per_op, "ms"},
      {"sim.sys_share", o.sim.sys_share, "ratio"},
      {"sim.ctx_switches_per_op", o.sim.ctx_switches_per_op, "count"},
      {"sim.rerate_events", o.sim.rerate_per_op, "count"},
      {"model.pred_ratio", o.sim.pred_ratio, "ratio"},
      {"obs.drift_alarms", drift, "count"},
      {"obs.trace_overhead_pct", overhead, "%"},
      {"fail_ratio", static_cast<double>(o.failed) / attempted, "ratio"},
  };
}

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

void print_result(const perf::Outcome& o, const std::vector<Metric>& ms) {
  std::ostringstream os;
  os << "{\"correct\": " << (o.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << o.attempted << ", \"failed\": " << o.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    os << (i ? ", " : "") << '"' << ms[i].name << "\": {\"value\": "
       << json_number(ms[i].value) << ", \"unit\": \"" << ms[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "kacc_perf: " << why
            << "\nusage: kacc_perf --workload native-latency|native-bandwidth|"
               "native-overlap|sim-sweep --seed N --seconds S --trace 0|1 "
               "[--trace-dir DIR] [--smoke]\n";
  std::exit(2);
}

perf::Config parse(int argc, char** argv) {
  perf::Config cfg;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke") {
      cfg.smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      usage("missing value for " + a);
    }
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        cfg.workload = v;
      } else if (a == "--seed") {
        cfg.seed = std::stoull(v);
      } else if (a == "--seconds") {
        cfg.seconds = std::stod(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") {
          usage("--trace takes 0 or 1");
        }
        cfg.trace = v == "1";
        have_trace = true;
      } else if (a == "--trace-dir") {
        cfg.trace_dir = v;
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a + ": " + v);
    }
  }
  if (cfg.workload != "native-latency" && cfg.workload != "native-bandwidth" &&
      cfg.workload != "native-overlap" && cfg.workload != "sim-sweep") {
    usage("unknown workload '" + cfg.workload + "'");
  }
  if (!(cfg.seconds > 0.0 && cfg.seconds <= 60.0)) {
    usage("--seconds must be in (0, 60]");
  }
  if (!have_trace) {
    usage("--trace is required");
  }
  if (cfg.trace && cfg.trace_dir.empty()) {
    usage("--trace 1 needs --trace-dir");
  }
  return cfg;
}

} // namespace

int main(int argc, char** argv) {
  const perf::Config cfg = parse(argc, argv);
  // Fix glibc's allocation thresholds at the values its dynamic tuning
  // reaches after the first large free. Left dynamic, whether a multi-MiB
  // schedule scratch buffer is mmapped (and faulted in on every call)
  // depends on the run's allocation history and on the seed's sizes.
  ::mallopt(M_MMAP_THRESHOLD, 32 << 20);
  ::mallopt(M_TRIM_THRESHOLD, 64 << 20);
  const bool native = cfg.workload != "sim-sweep";
  std::cout << host_line(native) << std::endl;
  if (native && !kacc::cma::available()) {
    std::cerr << "kacc_perf: " << cfg.workload
              << " needs Cross Memory Attach, which is unavailable here ("
              << kacc::cma::unavailable_reason()
              << "); native workloads are skipped, never simulated\n";
    return 3;
  }
  perf::Outcome out;
  try {
    out = native ? perf::run_native(cfg) : perf::run_sim_sweep(cfg);
  } catch (const perf::Unavailable& e) {
    std::cerr << "kacc_perf: " << cfg.workload << " cannot run here: "
              << e.what() << "\n";
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "kacc_perf: " << cfg.workload << " FAILED: " << e.what()
              << "\n";
    return 1;
  }
  for (const std::string& line : out.info) {
    std::cout << "# " << cfg.workload << " " << line << std::endl;
  }
  for (std::size_t c = 0; c < out.cell_names.size(); ++c) {
    std::cout << "# cell " << out.cell_names[c]
              << " samples=" << out.lat.cell_samples[c]
              << " p50_us=" << out.lat.cell_median[c] << std::endl;
  }
  std::cout << "# " << cfg.workload << " latency: medians over "
            << out.lat.group_p50.size() << " launches of the geomean of "
            << out.lat.cell_median.size() << " cell medians (p50) and of it"
            << " times the p95 ratio; " << out.lat.samples << " samples, "
            << out.lat.beyond << " beyond p95 in the smallest launch;"
            << " p50 per launch:";
  for (double v : out.lat.group_p50) {
    std::cout << " " << v;
  }
  std::cout << "; p95 per launch:";
  for (double v : out.lat.group_p95) {
    std::cout << " " << v;
  }
  std::cout << std::endl;
  if (!out.first_failure.empty()) {
    std::cout << "# first failure: " << out.first_failure << std::endl;
    std::cerr << "kacc_perf: FAILED: " << out.first_failure << "\n";
  }
  print_result(out, cfg.trace ? per_layer(out, !native) : end_to_end(out));
  return out.failed == 0 ? 0 : 1;
}
