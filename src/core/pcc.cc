#include "src/core/pcc.h"

#include <algorithm>

namespace dircache {

namespace {

size_t RoundDownPow2(size_t n) {
  size_t p = 1;
  while (p * 2 <= n) {
    p *= 2;
  }
  return p;
}

uint64_t MixPointer(uint64_t key) {
  // fmix64: dentry addresses share high bits; spread them over the sets.
  key ^= key >> 33;
  key *= 0xff51afd7ed558ccdULL;
  key ^= key >> 33;
  return key;
}

}  // namespace

Pcc::Pcc(size_t bytes) {
  size_t entries = std::max<size_t>(bytes / sizeof(Entry), kWays);
  sets_ = RoundDownPow2(entries / kWays);
  set_mask_ = sets_ - 1;
  entries_ = std::vector<Entry>(sets_ * kWays);
}

size_t Pcc::SetFor(uint64_t key) const { return MixPointer(key) & set_mask_; }

bool Pcc::Lookup(const void* dentry, uint32_t seq, CacheStats* stats,
                 PccMiss* miss) {
  return LookupKey(KeyFor(dentry), seq, stats, miss);
}

bool Pcc::LookupPrefix(const Signature& sig, uint32_t seq, CacheStats* stats,
                       PccMiss* miss) {
  return LookupKey(PrefixKeyFor(sig), seq, stats, miss);
}

uint64_t Pcc::PrefixKeyFor(const Signature& sig) {
  uint64_t h = sig.words[0];
  h = MixPointer(h ^ (sig.words[1] * 0x9e3779b97f4a7c15ULL));
  h = MixPointer(h ^ (sig.words[2] * 0xc2b2ae3d27d4eb4fULL));
  h ^= sig.words[3];
  return h | (1ULL << 63);
}

bool Pcc::LookupKey(uint64_t key, uint32_t seq, CacheStats* stats,
                    PccMiss* miss) {
  Entry* set = &entries_[SetFor(key) * kWays];
  for (size_t way = 0; way < kWays; ++way) {
    Entry& e = set[way];
    // key / meta / key re-check: if the key is stable across the meta read,
    // the meta belongs to that key (writers clear the key before rewriting
    // meta, and publish the new key last).
    uint64_t k1 = e.key.load(std::memory_order_acquire);
    if (k1 != key) {
      continue;
    }
    uint64_t meta = e.meta.load(std::memory_order_acquire);
    uint64_t k2 = e.key.load(std::memory_order_acquire);
    if (k2 != key) {
      continue;
    }
    if (static_cast<uint32_t>(meta >> 32) != seq) {
      if (stats != nullptr) {
        stats->pcc_stale.Add();
      }
      if (miss != nullptr) {
        *miss = PccMiss::kStale;
      }
      return false;  // stale memo for this dentry
    }
    // Arm the reference bit, only when it is clear: a warm entry's hits
    // read and never write, so readers sharing this cred's PCC do not
    // bounce its lines. The CAS can only OR the bit into the meta it read;
    // if a racing insert rewrote the word, the CAS fails and the hit just
    // leaves the new entry unreferenced.
    if ((meta & kReferenced) == 0 &&
        e.meta.compare_exchange_strong(meta, meta | kReferenced,
                                       std::memory_order_relaxed) &&
        stats != nullptr) {
      stats->shared_writes.Add();
    }
    if (stats != nullptr) {
      stats->pcc_hits.Add();
    }
    if (miss != nullptr) {
      *miss = PccMiss::kNone;
    }
    return true;
  }
  if (miss != nullptr) {
    *miss = PccMiss::kCred;
  }
  return false;
}

void Pcc::Insert(const void* dentry, uint32_t seq) {
  InsertKey(KeyFor(dentry), seq);
}

void Pcc::InsertPrefix(const Signature& sig, uint32_t seq) {
  InsertKey(PrefixKeyFor(sig), seq);
}

void Pcc::InsertKey(uint64_t key, uint32_t seq) {
  Entry* set = &entries_[SetFor(key) * kWays];
  // New entries start unreferenced: only a hit earns a second chance.
  const uint64_t meta = static_cast<uint64_t>(seq) << 32;

  // Prefer updating an existing entry for this dentry, then an empty way,
  // then the second-chance victim.
  Entry* match = nullptr;
  Entry* empty = nullptr;
  for (size_t way = 0; way < kWays; ++way) {
    Entry& e = set[way];
    uint64_t k = e.key.load(std::memory_order_acquire);
    if (k == key) {
      match = &e;
      break;
    }
    if (k == 0 && empty == nullptr) {
      empty = &e;
    }
  }
  Entry* victim = match != nullptr ? match : empty;
  if (victim == nullptr) {
    // Clock sweep from a key-derived way (so sets do not all evict way 0
    // first): clear each set reference bit in passing and evict the first
    // way found clear. One lap clears every bit, so two laps always end
    // the sweep even while hits re-arm bits behind it.
    const size_t start = static_cast<size_t>(MixPointer(key) >> 32);
    for (size_t i = 0; victim == nullptr; ++i) {
      Entry& e = set[(start + i) % kWays];
      if (i + 1 == 2 * kWays ||
          (e.meta.load(std::memory_order_relaxed) & kReferenced) == 0) {
        victim = &e;
      } else {
        e.meta.fetch_and(~kReferenced, std::memory_order_relaxed);
      }
    }
  }
  // Claim the slot (key = kBusy) so two racing writers cannot interleave
  // one dentry's key with another's metadata; publish the key last so
  // readers' key/meta/key protocol stays sound. kBusy (1) can never be a
  // real key: keys are dentry pointers >> 3.
  constexpr uint64_t kBusy = 1;
  uint64_t observed = victim->key.load(std::memory_order_relaxed);
  do {
    if (observed == kBusy) {
      return;  // another writer owns the slot right now; drop this memo
    }
  } while (!victim->key.compare_exchange_weak(observed, kBusy,
                                              std::memory_order_acq_rel,
                                              std::memory_order_relaxed));
  victim->meta.store(meta, std::memory_order_release);
  victim->key.store(key, std::memory_order_release);
}

void Pcc::Flush() {
  for (Entry& e : entries_) {
    e.key.store(0, std::memory_order_release);
    e.meta.store(0, std::memory_order_relaxed);
  }
}

}  // namespace dircache
