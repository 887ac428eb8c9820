// SeqRing: the one lock-free ring every obs record stream lands in —
// coherence journal events and request spans (DESIGN.md §9).
//
// Each stats shard owns one ring per stream, so writers rarely share a
// ring; the protocol still has to survive two writers that wrap onto the
// same slot, and a reader draining while they write. Every slot carries a
// claim sequence, the same validate-after-read idea as the per-dentry seq
// the fastpath checks:
//
//  - A writer takes ticket t = head (a relaxed load and store, not an RMW)
//    and claims slot t & mask by CASing its sequence from an older even
//    value to 2t+1. If the slot is held (odd) or already carries a newer
//    ticket, or the CAS loses, the writer drops its record. Otherwise it
//    stores the payload words and publishes 2t+2. The CAS is the only
//    atomic RMW per record. Racing writers can share a ticket (one loses
//    the CAS) or move the head back (the next writer to meet a newer
//    ticket moves it forward again).
//  - A reader keeps a slot only when it reads the same even, nonzero
//    sequence before and after the payload. A slot's sequence only grows,
//    so an equal pair means no writer touched the payload in between.
//
// Memory order is the C++-model seqlock (Boehm, "Can seqlocks get along
// with programming language memory models?"): a release fence after the
// claim orders it before the payload stores, an acquire fence orders the
// payload loads before the re-check. The claim CAS acquires, so a writer's
// payload stores follow the previous owner's in every word's modification
// order. Payload words are relaxed atomics: no data race, nothing for TSan
// to suppress.
#ifndef DIRCACHE_OBS_SEQ_RING_H_
#define DIRCACHE_OBS_SEQ_RING_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

namespace dircache {
namespace obs {

template <typename Record>
class SeqRing {
  static_assert(std::is_trivially_copyable_v<Record> &&
                    sizeof(Record) % sizeof(uint64_t) == 0,
                "SeqRing copies records as whole 64-bit words");

 public:
  // Rounds `capacity` up to a power of two.
  explicit SeqRing(size_t capacity)
      : slots_(RoundPow2(capacity)), mask_(slots_.size() - 1) {}
  SeqRing(const SeqRing&) = delete;
  SeqRing& operator=(const SeqRing&) = delete;

  // Publishes `r`, or drops it when another writer holds or has overtaken
  // its slot.
  void Push(const Record& r) {
    const uint64_t t = head_.load(std::memory_order_relaxed);
    head_.store(t + 1, std::memory_order_relaxed);
    Slot& s = slots_[t & mask_];
    uint64_t seq = s.seq.load(std::memory_order_relaxed);
    if (seq > 2 * t) {
      // The slot already carries this ticket or a newer one: a racing
      // writer took it, or one descheduled between reading and advancing
      // the head moved the head back. Jump the head past that ticket, so a
      // head moved back costs at most one lap of dropped records (up to
      // capacity-1) rather than the whole gap.
      head_.store((seq + 1) / 2, std::memory_order_relaxed);
      return;
    }
    if ((seq & 1) != 0 ||
        !s.seq.compare_exchange_strong(seq, 2 * t + 1,
                                       std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
      return;
    }
    std::atomic_thread_fence(std::memory_order_release);
    // Word by word straight from the record: staging it in a local array
    // costs a store-forwarding stall per word.
    const auto* bytes = reinterpret_cast<const unsigned char*>(&r);
    for (size_t i = 0; i < kWords; ++i) {
      uint64_t w = 0;
      std::memcpy(&w, bytes + i * sizeof(w), sizeof(w));
      s.words[i].store(w, std::memory_order_relaxed);
    }
    s.seq.store(2 * t + 2, std::memory_order_release);
  }

  // Appends every fully published record to `out`, unordered.
  void Drain(std::vector<Record>* out) const {
    for (const Slot& s : slots_) {
      const uint64_t seq = s.seq.load(std::memory_order_acquire);
      if (seq == 0 || (seq & 1) != 0) {
        continue;
      }
      Record r;
      auto* bytes = reinterpret_cast<unsigned char*>(&r);
      for (size_t i = 0; i < kWords; ++i) {
        const uint64_t w = s.words[i].load(std::memory_order_relaxed);
        std::memcpy(bytes + i * sizeof(w), &w, sizeof(w));
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      if (s.seq.load(std::memory_order_relaxed) != seq) {
        continue;
      }
      out->push_back(r);
    }
  }

  size_t capacity() const { return slots_.size(); }

 private:
  friend struct SeqRingTestPeer;  // tests move head_ back

  static constexpr size_t kWords = sizeof(Record) / sizeof(uint64_t);

  struct Slot {
    std::atomic<uint64_t> seq{0};  // 0 empty, odd claimed, even published
    std::atomic<uint64_t> words[kWords]{};
  };

  static size_t RoundPow2(size_t n) {
    size_t p = 1;
    while (p < n) {
      p *= 2;
    }
    return p;
  }

  std::vector<Slot> slots_;
  std::atomic<uint64_t> head_{0};
  const uint64_t mask_;
};

}  // namespace obs
}  // namespace dircache

#endif  // DIRCACHE_OBS_SEQ_RING_H_
