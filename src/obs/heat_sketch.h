// Top-K path heat sketches (DESIGN.md §10): a Space-Saving summary,
// sharded like every other recording structure.
//
// The attribution question PR 2's snapshot could not answer is *which*
// paths carry the fastpath hits and *which* directories breed the misses —
// the per-directory frequency signal Stage-style shortcut placement and
// capacity planning need. Exact per-path counting is out (unbounded paths,
// and the hot path must not allocate), so each shard keeps a Space-Saving
// summary: `slots` (key, count, err) candidates; a new key evicts the
// current minimum, inheriting its count as the error bound. Classic
// guarantee: any key with true count > N/slots is present, and a reported
// count overstates truth by at most `err`.
//
// Keys are produced by the caller from the §3.3 keyed multilinear hash of
// the observed path text (see Observability::RecordWalk). The hot-path
// Record() never copies the string: the bounded label is captured only when
// a key first takes over a slot (rare once the workload's heavy hitters are
// seated). Writers lock their shard's spinlock, but the shard is private to
// the calling thread's stats slot, so there is no cross-thread contention —
// same sharing discipline as the histograms and record rings.
//
// Drained on snapshot: shards merge by key (counts and error bounds sum).
#ifndef DIRCACHE_OBS_HEAT_SKETCH_H_
#define DIRCACHE_OBS_HEAT_SKETCH_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/util/align.h"
#include "src/util/spinlock.h"
#include "src/util/stats.h"

namespace dircache {
namespace obs {

// One merged heavy-hitter entry, in snapshot form.
struct HeatEntry {
  std::string path;     // bounded label captured at slot takeover
  uint64_t count = 0;   // Space-Saving count (overstates by at most `err`)
  uint64_t err = 0;     // summed takeover error bounds
};

// The three sketches a snapshot carries (schema v2 `heat` section).
struct HeatSnapshot {
  std::vector<HeatEntry> hot_paths;   // fastpath hits (incl. negatives)
  std::vector<HeatEntry> slow_paths;  // walks that ran the slowpath
  std::vector<HeatEntry> miss_dirs;   // parent dirs of fastpath misses
};

class PathHeatSketch {
 public:
  static constexpr size_t kLabelBytes = 96;

  explicit PathHeatSketch(size_t slots)
      : slots_per_shard_(slots == 0 ? 1 : slots) {
    for (Shard& s : shards_) {
      s.slots.resize(slots_per_shard_);
    }
  }
  PathHeatSketch(const PathHeatSketch&) = delete;
  PathHeatSketch& operator=(const PathHeatSketch&) = delete;

  // Count one occurrence of `key`, labeled (on first slot takeover only)
  // with a bounded copy of `label`.
  void Record(uint64_t key, std::string_view label) {
    Shard& s = shards_[internal::StatsShardId()];
    SpinGuard guard(s.lock);
    Slot* min_slot = &s.slots[0];
    for (Slot& slot : s.slots) {
      if (slot.count != 0 && slot.key == key) {
        ++slot.count;
        return;
      }
      if (slot.count < min_slot->count) {
        min_slot = &slot;
      }
    }
    // Space-Saving takeover: the new key inherits the evicted minimum's
    // count as its error bound (or starts clean in an empty slot).
    min_slot->key = key;
    min_slot->err = min_slot->count;
    ++min_slot->count;
    min_slot->label_len = static_cast<uint8_t>(
        std::min(label.size(), kLabelBytes));
    std::memcpy(min_slot->label, label.data(), min_slot->label_len);
  }

  // Merge all shards into at most `topk` entries, hottest first.
  std::vector<HeatEntry> Drain(size_t topk) const {
    std::unordered_map<uint64_t, HeatEntry> merged;
    for (const Shard& s : shards_) {
      SpinGuard guard(s.lock);
      for (const Slot& slot : s.slots) {
        if (slot.count == 0) {
          continue;
        }
        HeatEntry& e = merged[slot.key];
        if (e.path.empty()) {
          e.path.assign(slot.label, slot.label_len);
        }
        e.count += slot.count;
        e.err += slot.err;
      }
    }
    std::vector<HeatEntry> out;
    out.reserve(merged.size());
    for (auto& [key, e] : merged) {
      (void)key;
      out.push_back(std::move(e));
    }
    std::sort(out.begin(), out.end(),
              [](const HeatEntry& a, const HeatEntry& b) {
                return a.count != b.count ? a.count > b.count
                                          : a.path < b.path;
              });
    if (out.size() > topk) {
      out.resize(topk);
    }
    return out;
  }

  void Reset() {
    for (Shard& s : shards_) {
      SpinGuard guard(s.lock);
      for (Slot& slot : s.slots) {
        slot = Slot{};
      }
    }
  }

 private:
  struct Slot {
    uint64_t key = 0;
    uint64_t count = 0;
    uint64_t err = 0;
    uint8_t label_len = 0;
    char label[kLabelBytes] = {};
  };

  struct alignas(kCacheLineSize) Shard {
    mutable SpinLock lock;
    std::vector<Slot> slots;
  };

  const size_t slots_per_shard_;
  std::array<Shard, kStatsShardCount> shards_;
};

}  // namespace obs
}  // namespace dircache

#endif  // DIRCACHE_OBS_HEAT_SKETCH_H_
