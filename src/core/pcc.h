// Prefix Check Cache (PCC), §3.1 / §4.1.
//
// A per-credential memo of prefix-check results: "this credential was
// recently allowed to search every directory from the root to this dentry,
// when the dentry's version counter was S". Entries are (dentry pointer,
// sequence) pairs; they invalidate themselves when the dentry's counter
// moves (bumped recursively on any ancestor permission or structure change),
// so the PCC itself never needs to be walked on invalidation.
//
// The table is set-associative with second-chance (clock) replacement per
// set, sized in bytes (paper default 64 KB), and safely shared by all
// processes holding the same cred. Lookups and inserts are lock-free; a racy
// entry can only produce a miss (forcing the slowpath), never a false hit —
// see the key re-check below.
#ifndef DIRCACHE_CORE_PCC_H_
#define DIRCACHE_CORE_PCC_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/util/hash.h"
#include "src/util/stats.h"

namespace dircache {

// Why a PCC lookup missed — the taxonomy the observability layer reports
// (walk tracing distinguishes "no memo for this credential" from "memo
// invalidated under us").
enum class PccMiss : uint8_t {
  kNone = 0,   // it hit
  kCred,       // no entry for (cred, dentry): never checked or evicted
  kStale,      // entry found but the dentry's version counter moved
};

class Pcc {
 public:
  static constexpr size_t kWays = 4;

  // `bytes` is the total table size; entries are 16 bytes each. The size
  // is fixed for the table's life (the paper's static PCC); the
  // CacheGovernor reports a thrashing PCC from the CacheStats hit and miss
  // counters (src/vfs/governor.cc) rather than resizing it.
  explicit Pcc(size_t bytes);

  // True if (dentry, seq) is present — i.e. the memoized prefix check for
  // this credential is still current. A hit arms the entry's reference bit
  // with one CAS, and only when the bit is clear, so once an entry has been
  // hit a warm hit performs no write at all, however many entries the
  // readers cycle through. That first write (a shared line — the PCC is
  // shared by every process holding this cred) is counted into
  // `stats->shared_writes` if provided. `miss` (optional) receives why the
  // lookup failed (PccMiss::kNone on a hit); `stats` additionally takes
  // pcc_hits/pcc_stale bumps.
  bool Lookup(const void* dentry, uint32_t seq, CacheStats* stats = nullptr,
              PccMiss* miss = nullptr);

  // Record a passed prefix check.
  void Insert(const void* dentry, uint32_t seq);

  // Prefix entries for the shortcut miss fallback (DESIGN.md §14): the same
  // memo keyed by the directory's *path signature* instead of its dentry
  // pointer. Signature keys hash to different sets than the pointer key of
  // the same directory, so a scan that thrashes the pointer entries can
  // leave the directory's prefix memo standing; the probe consults both.
  // Prefix entries share the table, the seq-validation rule, and every
  // flush/epoch path with pointer entries.
  bool LookupPrefix(const Signature& sig, uint32_t seq,
                    CacheStats* stats = nullptr, PccMiss* miss = nullptr);
  void InsertPrefix(const Signature& sig, uint32_t seq);

  // Folds the four signature words into a table key. The top bit is forced
  // set so a prefix key can never collide with a pointer key (shifted
  // user-space addresses keep it clear) nor with 0 (empty) or kBusy (1).
  static uint64_t PrefixKeyFor(const Signature& sig);

  // Drop every entry (used for the global version-counter wraparound,
  // §3.1, and by tests).
  void Flush();

  // Version-counter wraparound handling: when the kernel-wide PCC epoch
  // moves, every PCC self-flushes on its next use (§3.1). Returns true when
  // this call performed the flush, so the walk tracer can attribute the
  // misses that follow to the epoch bump rather than to eviction.
  bool EnsureEpoch(uint64_t global_epoch) {
    if (epoch_.load(std::memory_order_acquire) != global_epoch) {
      Flush();
      epoch_.store(global_epoch, std::memory_order_release);
      return true;
    }
    return false;
  }

  size_t sets() const { return sets_; }
  size_t capacity_entries() const { return sets_ * kWays; }
  size_t bytes() const { return capacity_entries() * sizeof(Entry); }

  // Occupied (non-empty) entries, for the snapshot memory block and the
  // governor's PCC-pressure event. O(capacity) racy scan; policy-grade.
  size_t OccupiedEntries() const {
    size_t n = 0;
    for (const Entry& e : entries_) {
      if (e.key.load(std::memory_order_relaxed) != 0) {
        ++n;
      }
    }
    return n;
  }

  // Audit iteration: invoke `fn(key, seq)` for every occupied entry, where
  // `key` is the shifted dentry pointer and `seq` the memoized version
  // counter. Reads are racy by design (an audit expects quiescence); a torn
  // pair can only produce a stale (key, seq) combination, which the caller
  // treats like any other entry.
  template <typename Fn>
  void ForEachEntry(Fn&& fn) const {
    for (const Entry& e : entries_) {
      uint64_t key = e.key.load(std::memory_order_acquire);
      if (key == 0) {
        continue;
      }
      uint64_t meta = e.meta.load(std::memory_order_acquire);
      fn(key, static_cast<uint32_t>(meta >> 32));
    }
  }

 private:
  struct Entry {
    // Dentry pointer >> 3 (dentries are 8-aligned); 0 = empty. The paper
    // packs the 32 unique pointer bits tighter; we keep the shifted word.
    std::atomic<uint64_t> key{0};
    // Packed (seq << 32 | kReferenced bit).
    std::atomic<uint64_t> meta{0};
  };
  // Second-chance bit in meta's low word (the Dentry::lru_referenced
  // idiom): set by a hit, cleared as InsertKey's eviction scan passes.
  static constexpr uint64_t kReferenced = 1;

  static uint64_t KeyFor(const void* dentry) {
    return reinterpret_cast<uintptr_t>(dentry) >> 3;
  }
  size_t SetFor(uint64_t key) const;

  bool LookupKey(uint64_t key, uint32_t seq, CacheStats* stats, PccMiss* miss);
  void InsertKey(uint64_t key, uint32_t seq);

  size_t sets_;
  size_t set_mask_;
  std::vector<Entry> entries_;
  std::atomic<uint64_t> epoch_{0};
};

using PccPtr = std::shared_ptr<Pcc>;

}  // namespace dircache

#endif  // DIRCACHE_CORE_PCC_H_
