#include "trace.h"

#include <cstdio>

namespace perf {

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kColl: return "coll";
    case Layer::kNbcIssue: return "nbc.issue";
    case Layer::kNbcWait: return "nbc.wait";
    case Layer::kTune: return "coll.tune";
    case Layer::kCompile: return "nbc.compile";
    case Layer::kCma: return "cma";
    case Layer::kCtrl: return "shm.ctrl";
    case Layer::kSync: return "shm.sync";
    case Layer::kPipe: return "shm.pipe";
    case Layer::kCopy: return "runtime.copy";
    case Layer::kMisc: return "runtime.misc";
    case Layer::kCount: break;
  }
  return "?";
}

void Tracer::open(Layer layer) {
  std::int32_t kept = -1;
  if (spans_.size() < keep_) {
    kept = static_cast<std::int32_t>(spans_.size());
    SpanRecord rec;
    rec.layer = layer;
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      if (it->kept >= 0) {
        rec.parent = it->kept;
        break;
      }
    }
    spans_.push_back(rec);
  }
  stack_.push_back({host_us(), 0.0, kept, layer});
}

void Tracer::close(std::uint64_t bytes) {
  const double t1 = host_us();
  const Frame f = stack_.back();
  stack_.pop_back();
  const double dur = t1 - f.t0_us;
  LayerTotals& tot = totals_[static_cast<std::size_t>(f.layer)];
  ++tot.count;
  tot.total_us += dur;
  tot.self_us += dur - f.child_us;
  tot.bytes += bytes;
  if (!stack_.empty()) {
    stack_.back().child_us += dur;
  }
  if (f.kept >= 0) {
    SpanRecord& rec = spans_[static_cast<std::size_t>(f.kept)];
    rec.t0_us = f.t0_us;
    rec.t1_us = t1;
    rec.bytes = bytes;
    rec.call = call_;
  }
}

bool Tracer::write_csv(const std::string& path, int rank) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "rank,call,parent,layer,t0_us,t1_us,bytes\n");
  for (const SpanRecord& s : spans_) {
    std::fprintf(f, "%d,%u,%d,%s,%.3f,%.3f,%llu\n", rank, s.call, s.parent,
                 layer_name(s.layer), s.t0_us, s.t1_us,
                 static_cast<unsigned long long>(s.bytes));
  }
  return std::fclose(f) == 0;
}

// Every forwarded call opens a span before delegating and closes it after;
// the ScopedSpan also closes it when the inner call throws.

void TracingComm::cma_read(int src, std::uint64_t remote_addr, void* local,
                           std::size_t bytes) {
  ScopedSpan s(t_, Layer::kCma);
  s.bytes = bytes;
  inner_->cma_read(src, remote_addr, local, bytes);
}

void TracingComm::cma_write(int dst, std::uint64_t remote_addr,
                            const void* local, std::size_t bytes) {
  ScopedSpan s(t_, Layer::kCma);
  s.bytes = bytes;
  inner_->cma_write(dst, remote_addr, local, bytes);
}

void TracingComm::local_copy(void* dst, const void* src, std::size_t bytes) {
  ScopedSpan s(t_, Layer::kCopy);
  s.bytes = bytes;
  inner_->local_copy(dst, src, bytes);
}

void TracingComm::compute_charge(std::size_t bytes) {
  ScopedSpan s(t_, Layer::kCopy);
  inner_->compute_charge(bytes);
}

void TracingComm::ctrl_bcast(void* buf, std::size_t bytes, int root) {
  ScopedSpan s(t_, Layer::kCtrl);
  inner_->ctrl_bcast(buf, bytes, root);
}

void TracingComm::ctrl_gather(const void* send, void* recv, std::size_t bytes,
                              int root) {
  ScopedSpan s(t_, Layer::kCtrl);
  inner_->ctrl_gather(send, recv, bytes, root);
}

void TracingComm::ctrl_allgather(const void* send, void* recv,
                                 std::size_t bytes) {
  ScopedSpan s(t_, Layer::kCtrl);
  inner_->ctrl_allgather(send, recv, bytes);
}

void TracingComm::signal(int dst) {
  ScopedSpan s(t_, Layer::kSync);
  inner_->signal(dst);
}

void TracingComm::wait_signal(int src) {
  ScopedSpan s(t_, Layer::kSync);
  inner_->wait_signal(src);
}

void TracingComm::barrier() {
  ScopedSpan s(t_, Layer::kSync);
  inner_->barrier();
}

void TracingComm::shm_send(int dst, const void* buf, std::size_t bytes) {
  ScopedSpan s(t_, Layer::kPipe);
  s.bytes = bytes;
  inner_->shm_send(dst, buf, bytes);
}

void TracingComm::shm_recv(int src, void* buf, std::size_t bytes) {
  ScopedSpan s(t_, Layer::kPipe);
  s.bytes = bytes;
  inner_->shm_recv(src, buf, bytes);
}

void TracingComm::shm_bcast(void* buf, std::size_t bytes, int root) {
  ScopedSpan s(t_, Layer::kPipe);
  s.bytes = bytes;
  inner_->shm_bcast(buf, bytes, root);
}

double TracingComm::now_us() {
  ScopedSpan s(t_, Layer::kMisc);
  return inner_->now_us();
}

void TracingComm::nbc_signal(int dst, int tag) {
  ScopedSpan s(t_, Layer::kSync);
  inner_->nbc_signal(dst, tag);
}

bool TracingComm::nbc_try_wait(int src, int tag) {
  ScopedSpan s(t_, Layer::kSync);
  return inner_->nbc_try_wait(src, tag);
}

void TracingComm::nbc_yield(int idle_rounds) {
  ScopedSpan s(t_, Layer::kSync);
  inner_->nbc_yield(idle_rounds);
}

int TracingComm::nbc_inflight(int source) {
  ScopedSpan s(t_, Layer::kMisc);
  return inner_->nbc_inflight(source);
}

void TracingComm::nbc_inflight_add(int source, int delta) {
  ScopedSpan s(t_, Layer::kMisc);
  inner_->nbc_inflight_add(source, delta);
}

} // namespace perf
