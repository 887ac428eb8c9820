// Simulated block device with a simple rotational-latency cost model.
//
// The device stores real 4 KiB blocks in memory and charges *virtual*
// nanoseconds to the calling task (through the thread-local I/O charge hook)
// on every access: a seek penalty when the access is not sequential with the
// previous one, plus a per-block transfer cost. Cold-cache experiments
// report this virtual time alongside measured CPU time.
#ifndef DIRCACHE_STORAGE_BLOCK_DEVICE_H_
#define DIRCACHE_STORAGE_BLOCK_DEVICE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/util/clock.h"
#include "src/util/result.h"
#include "src/util/stats.h"

namespace dircache {

inline constexpr size_t kBlockSize = 4096;

using Block = std::array<uint8_t, kBlockSize>;

// Thread-local sink for simulated I/O time. The VFS syscall layer installs
// the calling task's VirtualClock here (the moral equivalent of `current`).
class IoChargeScope {
 public:
  explicit IoChargeScope(VirtualClock* clock) : prev_(current_) {
    current_ = clock;
  }
  ~IoChargeScope() { current_ = prev_; }
  IoChargeScope(const IoChargeScope&) = delete;
  IoChargeScope& operator=(const IoChargeScope&) = delete;

  static void Charge(uint64_t nanos) {
    if (current_ != nullptr) {
      current_->Charge(nanos);
    }
  }

 private:
  static inline thread_local VirtualClock* current_ = nullptr;
  VirtualClock* prev_;
};

// Latency model. Defaults approximate a 7200-RPM disk scaled down so that
// simulated runs finish quickly while preserving the seek-vs-sequential and
// hit-vs-miss ratios the paper's cold-cache numbers depend on.
struct DiskModel {
  uint64_t seek_ns = 400'000;        // random access positioning cost
  uint64_t sequential_ns = 30'000;   // next-block access cost
  uint64_t transfer_ns = 10'000;     // per-block transfer
};

class BlockDevice {
 public:
  explicit BlockDevice(uint64_t num_blocks, DiskModel model = DiskModel{});

  uint64_t num_blocks() const { return num_blocks_; }

  // Copies the block into `out`, charging simulated read latency.
  Status Read(uint64_t block_no, Block* out);

  // Copies `data` into the block, charging simulated write latency.
  Status Write(uint64_t block_no, const Block& data);

  // Total simulated time spent and operation counts (device-wide).
  uint64_t total_io_nanos() const { return total_io_ns_.value(); }
  uint64_t reads() const { return reads_.value(); }
  uint64_t writes() const { return writes_.value(); }
  void ResetStats() {
    total_io_ns_.Reset();
    reads_.Reset();
    writes_.Reset();
  }

  // --- fault injection (tests) ---------------------------------------------
  // Fail the next `n` reads / writes with EIO (media-error model). Counts
  // decrement on each failed access; 0 disables injection.
  void InjectReadFaults(uint32_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    read_faults_ = n;
  }
  void InjectWriteFaults(uint32_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    write_faults_ = n;
  }
  uint64_t io_errors() const { return io_errors_.value(); }

 private:
  uint64_t ChargeFor(uint64_t block_no);
  Block* BlockAt(uint64_t block_no);

  const uint64_t num_blocks_;
  const DiskModel model_;

  std::mutex mu_;
  std::vector<std::unique_ptr<Block>> blocks_;  // allocated on first touch
  uint64_t last_block_ = ~0ULL;

  uint32_t read_faults_ = 0;   // guarded by mu_
  uint32_t write_faults_ = 0;  // guarded by mu_

  Counter total_io_ns_;
  Counter reads_;
  Counter writes_;
  Counter io_errors_;
};

}  // namespace dircache

#endif  // DIRCACHE_STORAGE_BLOCK_DEVICE_H_
