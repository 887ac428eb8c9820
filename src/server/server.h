// Run-to-completion server frontend (DESIGN.md §12).
//
// The serving layer the ROADMAP calls for: per-core shards, each owning a
// lock-free submission/completion ring pair and a forked Task. A shard's
// loop drains up to `max_batch` SQEs at a time and executes them
// run-to-completion — in submission order, straight through the existing
// walk fastpath (`Task::SubmitBatch`), with no per-op thread handoff — then
// publishes the CQEs. Warm lookups stay shared-write-free: the rings are
// the only cross-thread state the serving path touches, and they belong to
// the dispatch layer, not the walk.
//
// fd identity is per shard (each shard forks its own Task and file table):
// route kClose/kReaddir entries to the shard whose kOpen produced the fd,
// like io_uring's fixed files.
//
// Observability: when the kernel's obs subsystem is armed, every drained
// batch records its depth, the SQ occupancy seen at drain time, and each
// entry's queue-wait (submit -> dispatch) latency into the batch_* op
// histograms — the background sampler then watches queue buildup live.
#ifndef DIRCACHE_SERVER_SERVER_H_
#define DIRCACHE_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "src/server/batch.h"
#include "src/server/ring.h"
#include "src/vfs/task.h"

namespace dircache {

class Kernel;

namespace server {

struct ServerOptions {
  uint32_t shards = 1;       // per-core shards (this host exposes one CPU)
  uint32_t ring_depth = 256; // SQ/CQ capacity per shard (rounded to pow2)
  uint32_t max_batch = 64;   // SQEs drained per run-to-completion turn
};

class Server {
 public:
  // Each shard forks its own Task from `base` (own PCC, own file table).
  Server(Kernel* kernel, const TaskPtr& base, ServerOptions opts = {});
  ~Server();  // stops and joins
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  void Start();
  // Signals shutdown; shards drain every already-submitted SQE before
  // exiting, so a Stop() after the last Submit loses nothing.
  void Stop();

  uint32_t shards() const { return static_cast<uint32_t>(shards_.size()); }

  // Nonblocking submit; false when the shard's SQ ring is full. Safe from
  // any number of producer threads.
  bool Submit(uint32_t shard, const Sqe& sqe);
  // Backpressure-friendly submit: yields until ring space frees up.
  void SubmitWait(uint32_t shard, const Sqe& sqe);
  // Submit from a thread that also reaps this shard: while the SQ is full,
  // reap up to `max` completions into `out` and pass their count to
  // `on_reap`. SubmitWait alone waits forever once the shard is itself
  // waiting for CQ space that only this thread frees.
  template <typename OnReap>
  void SubmitOrReap(uint32_t shard, const Sqe& sqe, Cqe* out, size_t max,
                    OnReap&& on_reap) {
    ReapBackoff backoff;
    while (!Submit(shard, sqe)) {
      const size_t got = Reap(shard, out, max);
      if (got != 0) {
        on_reap(got);
      }
      backoff.Update(got);
    }
  }

  // Reap up to `max` completions from a shard's CQ ring; returns the count.
  size_t Reap(uint32_t shard, Cqe* out, size_t max);

  uint64_t ops_completed() const;
  uint64_t batches() const;

 private:
  struct Shard {
    std::unique_ptr<MpmcRing<Sqe>> sq;
    std::unique_ptr<MpmcRing<Cqe>> cq;
    TaskPtr task;
    std::thread thread;
    std::atomic<uint64_t> completed{0};
    std::atomic<uint64_t> batches{0};
  };

  void RunShard(Shard& sh);

  Kernel* const kernel_;
  const ServerOptions opts_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> stop_{true};
  bool started_ = false;
};

}  // namespace server
}  // namespace dircache

#endif  // DIRCACHE_SERVER_SERVER_H_
