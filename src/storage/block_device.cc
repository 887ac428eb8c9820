#include "src/storage/block_device.h"

#include <cstring>

#include "src/obs/request_trace.h"

namespace dircache {

namespace {

// Child span for traced requests. The duration is *simulated* device time
// (the cost model charge), not wall time — the attributor reports it as
// such, and it may legitimately exceed the request's wall-clock exec span.
inline void TraceIo(uint64_t block_no, uint64_t cost_ns, bool is_write) {
  if (obs::RequestTrace* t = obs::ActiveTrace()) {
    t->AddSpan(obs::SpanKind::kIo, NowNanos(), cost_ns, block_no,
               is_write ? 1 : 0);
  }
}

}  // namespace

BlockDevice::BlockDevice(uint64_t num_blocks, DiskModel model)
    : num_blocks_(num_blocks), model_(model) {
  blocks_.resize(num_blocks);
}

Block* BlockDevice::BlockAt(uint64_t block_no) {
  auto& slot = blocks_[block_no];
  if (slot == nullptr) {
    slot = std::make_unique<Block>();
    slot->fill(0);
  }
  return slot.get();
}

uint64_t BlockDevice::ChargeFor(uint64_t block_no) {
  uint64_t cost = model_.transfer_ns;
  cost += (block_no == last_block_ + 1) ? model_.sequential_ns
                                        : model_.seek_ns;
  last_block_ = block_no;
  return cost;
}

Status BlockDevice::Read(uint64_t block_no, Block* out) {
  if (block_no >= num_blocks_) {
    return Errno::kEIO;
  }
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t cost = ChargeFor(block_no);
  total_io_ns_.Add(cost);
  reads_.Add();
  IoChargeScope::Charge(cost);
  TraceIo(block_no, cost, /*is_write=*/false);
  if (read_faults_ > 0) {
    --read_faults_;
    io_errors_.Add();
    return Errno::kEIO;
  }
  std::memcpy(out->data(), BlockAt(block_no)->data(), kBlockSize);
  return Status::Ok();
}

Status BlockDevice::Write(uint64_t block_no, const Block& data) {
  if (block_no >= num_blocks_) {
    return Errno::kEIO;
  }
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t cost = ChargeFor(block_no);
  total_io_ns_.Add(cost);
  writes_.Add();
  IoChargeScope::Charge(cost);
  TraceIo(block_no, cost, /*is_write=*/true);
  if (write_faults_ > 0) {
    --write_faults_;
    io_errors_.Add();
    return Errno::kEIO;
  }
  std::memcpy(BlockAt(block_no)->data(), data.data(), kBlockSize);
  return Status::Ok();
}

}  // namespace dircache
