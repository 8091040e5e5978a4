// Benchmark-side tracing: an in-memory span recorder and a forwarding Comm
// decorator that records one span per Comm call, nested under the span of
// the coll::/nbc:: call that caused it (the delegation pattern of
// runtime/sub_comm.h). Self time is computed as each span closes: its
// duration minus the durations of its direct children.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "runtime/comm.h"

namespace perf {

/// Span layers. The first five are benchmark-side spans around calls into
/// kacc's public API; the rest classify the Comm calls kacc makes.
enum class Layer : std::uint8_t {
  kColl,      ///< one coll:: blocking call
  kNbcIssue,  ///< nbc:: i* / *_init + start
  kNbcWait,   ///< nbc::wait_any
  kTune,      ///< standalone Tuner call
  kCompile,   ///< standalone nbc::compile_* call
  kCma,       ///< cma_read / cma_write
  kCtrl,      ///< ctrl_bcast / ctrl_gather / ctrl_allgather
  kSync,      ///< signal, wait_signal, barrier, nbc_signal/try_wait/yield
  kPipe,      ///< shm_send / shm_recv / shm_bcast
  kCopy,      ///< local_copy / compute_charge
  kMisc,      ///< now_us, nbc_inflight, nbc_inflight_add
  kCount
};

inline constexpr int kLayerCount = static_cast<int>(Layer::kCount);

[[nodiscard]] const char* layer_name(Layer l);

/// Host steady clock in microseconds (CLOCK_MONOTONIC: comparable across
/// the forked ranks of one team).
[[nodiscard]] inline double host_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  double t0_us = 0.0;
  double t1_us = 0.0;
  std::uint64_t bytes = 0;
  std::int32_t parent = -1; ///< index into the kept spans; -1 = top level
  std::uint32_t call = 0;   ///< call id, identical on every rank
  Layer layer = Layer::kColl;
};

struct LayerTotals {
  std::uint64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
  std::uint64_t bytes = 0;
};

/// One rank's span recorder. Totals cover every span; the first `keep`
/// spans are also retained verbatim for the trace file.
class Tracer {
public:
  explicit Tracer(std::size_t keep) : keep_(keep) { spans_.reserve(keep); }

  /// The call id stamped on spans that close from now on.
  void set_call(std::uint32_t id) { call_ = id; }
  void open(Layer layer);
  void close(std::uint64_t bytes = 0);

  [[nodiscard]] const LayerTotals& totals(Layer l) const {
    return totals_[static_cast<std::size_t>(l)];
  }

  /// Writes the kept spans as CSV (row index = span id). Returns false
  /// when the file cannot be written.
  bool write_csv(const std::string& path, int rank) const;

private:
  struct Frame {
    double t0_us;
    double child_us;
    std::int32_t kept; ///< index in spans_, or -1 when not kept
    Layer layer;
  };
  std::size_t keep_;
  std::vector<SpanRecord> spans_;
  std::vector<Frame> stack_;
  std::array<LayerTotals, kLayerCount> totals_{};
  std::uint32_t call_ = 0;
};

class ScopedSpan {
public:
  ScopedSpan(Tracer* t, Layer l) : t_(t) {
    if (t_ != nullptr) {
      t_->open(l);
    }
  }
  ~ScopedSpan() {
    if (t_ != nullptr) {
      t_->close(bytes);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t bytes = 0;

private:
  Tracer* t_;
};

/// Forwards every Comm operation to `inner`, wrapped in a span. The
/// recorder, rank space and deadline are the inner communicator's; the
/// nbc engine state lives on the decorator, so one launch must issue all
/// its nonblocking calls through the same decorator.
class TracingComm final : public kacc::Comm {
public:
  TracingComm(kacc::Comm& inner, Tracer& tracer)
      : inner_(&inner), t_(&tracer) {}

  [[nodiscard]] kacc::obs::Recorder& recorder() override {
    return inner_->recorder();
  }
  [[nodiscard]] int rank() const override { return inner_->rank(); }
  [[nodiscard]] int size() const override { return inner_->size(); }
  [[nodiscard]] const kacc::ArchSpec& arch() const override {
    return inner_->arch();
  }
  [[nodiscard]] int global_rank_of(int r) const override {
    return inner_->global_rank_of(r);
  }

  void cma_read(int src, std::uint64_t remote_addr, void* local,
                std::size_t bytes) override;
  void cma_write(int dst, std::uint64_t remote_addr, const void* local,
                 std::size_t bytes) override;
  void local_copy(void* dst, const void* src, std::size_t bytes) override;
  void compute_charge(std::size_t bytes) override;

  void ctrl_bcast(void* buf, std::size_t bytes, int root) override;
  void ctrl_gather(const void* send, void* recv, std::size_t bytes,
                   int root) override;
  void ctrl_allgather(const void* send, void* recv,
                      std::size_t bytes) override;
  void signal(int dst) override;
  void wait_signal(int src) override;
  void barrier() override;

  void shm_send(int dst, const void* buf, std::size_t bytes) override;
  void shm_recv(int src, void* buf, std::size_t bytes) override;
  void shm_bcast(void* buf, std::size_t bytes, int root) override;

  double now_us() override;

  void nbc_signal(int dst, int tag) override;
  bool nbc_try_wait(int src, int tag) override;
  void nbc_yield(int idle_rounds) override;
  [[nodiscard]] int nbc_inflight(int source) override;
  void nbc_inflight_add(int source, int delta) override;
  [[nodiscard]] double nbc_deadline_us() const override {
    return inner_->nbc_deadline_us();
  }

private:
  kacc::Comm* inner_;
  Tracer* t_;
};

} // namespace perf
