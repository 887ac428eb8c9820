#include "src/core/dlht.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <utility>

namespace dircache {

namespace {

bool IsPowerOfTwo(size_t n) { return n != 0 && (n & (n - 1)) == 0; }

}  // namespace

Dlht::Dlht(size_t buckets) {
  assert(IsPowerOfTwo(buckets));
  Table* t = new Table(buckets);
  View* v = new View{t, t};
  view_.store(v, std::memory_order_release);
}

Dlht::~Dlht() {
  // The owning namespace unhashes all dentries before destroying the table;
  // by contract no readers are probing a table being destroyed. Generations
  // retired by completed resizes free through the epoch domain on their own.
  View* v = view_.load(std::memory_order_relaxed);
  if (v->from != v->to) {
    delete v->to;
  }
  delete v->from;
  delete v;
}

FastDentry* Dlht::Probe(const Signature& sig, CacheStats* stats) const {
  const View* v = view_.load(std::memory_order_acquire);
  const size_t bo = sig.bucket & v->from->mask;
  const Bucket* home = &v->from->buckets[bo];
  const Bucket* second = nullptr;  // the new home, after an old one
  if (!v->stable()) {
    // Split in flight: at most two candidates, no stores, no locks. If the
    // old home is already behind the cursor its chain has been emptied into
    // the new table, so only the new home can hold the entry. If it is not,
    // probe old-then-new: the second probe closes the window where the
    // migrator moved this very bucket after our cursor sample.
    second = &v->to->buckets[sig.bucket & v->to->mask];
    if (v->cursor.load(std::memory_order_acquire) > bo) {
      home = std::exchange(second, nullptr);
    }
  }
  for (; home != nullptr; home = std::exchange(second, nullptr)) {
    for (HNode* n = home->chain.First(); n != nullptr;
         n = n->next.load(std::memory_order_acquire)) {
      auto* fd = FromHNode<FastDentry, &FastDentry::dlht_node>(n);
      // The signature words are plain data guarded by state_seq (kernel
      // seqcount idiom): sample, compare, re-validate. A dentry whose
      // signature is being rewritten has been unhashed first, but a reader
      // may still be standing on it during the grace period.
      uint32_t s = fd->state_seq.ReadBegin();
      bool match = fd->signature == sig;
      if (fd->state_seq.ReadRetry(s)) {
        continue;  // concurrent rewrite; treat as non-match
      }
      if (match) {
        return fd;
      }
      if (stats != nullptr) {
        stats->dlht_collisions.Add();
      }
    }
  }
  return nullptr;
}

FastDentry* Dlht::Lookup(const Signature& sig, CacheStats* stats) const {
  FastDentry* fd = Probe(sig, stats);
  if (fd != nullptr && stats != nullptr) {
    stats->dlht_hits.Add();
  }
  return fd;
}

FastDentry* Dlht::ProbePrefix(const Signature& sig, CacheStats* stats) const {
  if (stats != nullptr) {
    stats->shortcut_probes.Add();
  }
  return Probe(sig, stats);
}

template <typename Work>
auto Dlht::WithHomeLocked(size_t bucket_key, Work&& work) {
  EpochDomain::ReadGuard epoch(EpochDomain::Global());
  while (true) {
    View* v = view_.load(std::memory_order_acquire);
    const size_t bo = bucket_key & v->from->mask;
    const bool migrated =
        !v->stable() && v->cursor.load(std::memory_order_acquire) > bo;
    Bucket& home = migrated ? v->to->buckets[bucket_key & v->to->mask]
                            : v->from->buckets[bo];
    SpinGuard guard(home.lock);
    // The view may have advanced (resize started or completed) or the
    // migrator may have drained this very old bucket between the unlocked
    // choice and taking the lock. With both checks passing, an old bucket
    // we hold cannot migrate (the migrator needs this lock) and a new
    // bucket stays the home (the cursor never regresses).
    if (view_.load(std::memory_order_acquire) != v) {
      continue;
    }
    if (!migrated && !v->stable() &&
        v->cursor.load(std::memory_order_acquire) > bo) {
      continue;
    }
    return work(home);
  }
}

void Dlht::Unhash(Bucket& home, FastDentry* fd) {
  home.chain.Remove(&fd->dlht_node);
  fd->on_dlht.store(nullptr, std::memory_order_release);
  size_.fetch_sub(1, std::memory_order_relaxed);
}

void Dlht::Insert(FastDentry* fd) {
  assert(fd->on_dlht.load(std::memory_order_relaxed) == nullptr);
  WithHomeLocked(BucketKeyFor(fd->signature), [&](Bucket& home) {
    home.chain.PushFront(&fd->dlht_node);
    fd->on_dlht.store(this, std::memory_order_release);
    size_.fetch_add(1, std::memory_order_relaxed);
  });
}

bool Dlht::RemoveFromCurrent(FastDentry* fd) {
  Dlht* table = fd->on_dlht.load(std::memory_order_acquire);
  if (table == nullptr) {
    return false;
  }
  // The caller holds the dentry lock, which guards signature rewrites and
  // re-inserts, so the signature names the entry's home and `on_dlht` can
  // only go null meanwhile: no chain scan is needed.
  return table->WithHomeLocked(
      BucketKeyFor(fd->signature), [&](Bucket& home) {
        // A concurrent batched flush may unhash the entry between the load
        // above and this lock — re-check under it.
        if (fd->on_dlht.load(std::memory_order_relaxed) != table) {
          return false;
        }
        table->Unhash(home, fd);
        return true;
      });
}

// The batch needs its key's home lock only, in every view, with no
// per-entry fallback during a resize:
// - InvalidationEngine::FlushBatch groups a run by (table, BucketKeyFor(sig))
//   and the key is the unmasked sig.bucket, so every member of a run has
//   one home under any view: before, during and after a split.
// - Between batching and flush a member can only leave the table: the pass
//   cleared its path_valid under the dentry lock, so Populate cannot
//   re-insert it, and EnsurePathState refuses to re-sign it while the pass's
//   coherence section is open.
// - A member found off the home chain anyway is skipped, as in a stable
//   view: only a node found on THIS locked chain may be spliced out of it.
size_t Dlht::RemoveBatch(size_t bucket_key, FastDentry* const* fds, size_t n) {
  if (n == 0) {
    return 0;
  }
  return WithHomeLocked(bucket_key, [&](Bucket& home) {
    size_t removed = 0;
    for (size_t i = 0; i < n; ++i) {
      for (HNode* node = home.chain.First(); node != nullptr;
           node = node->next.load(std::memory_order_acquire)) {
        if (node == &fds[i]->dlht_node) {
          Unhash(home, fds[i]);
          ++removed;
          break;
        }
      }
    }
    return removed;
  });
}

bool Dlht::BeginResize(size_t new_buckets, CacheStats* stats) {
  SpinGuard control(resize_mu_);
  EpochDomain::ReadGuard epoch(EpochDomain::Global());
  View* v = view_.load(std::memory_order_acquire);
  if (v->from != v->to) {
    return false;  // already in flight
  }
  const size_t cur = v->from->buckets.size();
  if (!IsPowerOfTwo(new_buckets) ||
      (new_buckets != cur * 2 && new_buckets != cur / 2)) {
    return false;  // one doubling or halving per resize
  }
  Table* to = new Table(new_buckets);
  View* nv = new View{v->from, to};
  view_.store(nv, std::memory_order_release);
  EpochDomain::Global().RetireObject(v);
  if (stats != nullptr) {
    stats->dlht_resizes.Add();
  }
  return true;
}

size_t Dlht::MigrateStep(size_t max_buckets, CacheStats* stats) {
  SpinGuard control(resize_mu_);
  EpochDomain::ReadGuard epoch(EpochDomain::Global());
  View* v = view_.load(std::memory_order_acquire);
  if (v->from == v->to) {
    return 0;
  }
  Table* from = v->from;
  Table* to = v->to;
  const size_t old_count = from->buckets.size();
  const bool grow = to->buckets.size() > old_count;
  size_t done = 0;
  while (done < max_buckets) {
    // Only the control plane advances the cursor and we hold resize_mu_.
    const size_t b = v->cursor.load(std::memory_order_relaxed);
    if (b >= old_count) {
      break;
    }
    // Lock the old bucket, then its destinations: a grow splits old bucket
    // b into new buckets b and b + old_count, a shrink merges it into
    // b & to->mask (which is b when growing).
    Bucket& src = from->buckets[b];
    SpinGuard src_guard(src.lock);
    SpinGuard lo_guard(to->buckets[b & to->mask].lock);
    std::optional<SpinGuard> hi_guard;
    if (grow) {
      hi_guard.emplace(to->buckets[b + old_count].lock);
    }
    HNode* n = src.chain.First();
    while (n != nullptr) {
      // PushFront repoints n->next at the destination chain, so a reader
      // standing on a migrated node walks into the new chain — every next
      // still terminates, the worst case is a safe false miss.
      HNode* next = n->next.load(std::memory_order_relaxed);
      auto* fd = FromHNode<FastDentry, &FastDentry::dlht_node>(n);
      // Signature words are stable: a rewrite requires unhashing, which
      // needs the src lock we hold.
      src.chain.Remove(n);
      to->buckets[fd->signature.bucket & to->mask].chain.PushFront(n);
      n = next;
    }
    // Publish the migrated cursor BEFORE dropping the src lock (guards
    // unwind destinations first, src last): any writer that then locks
    // old bucket b sees cursor > b and retries against the new table.
    v->cursor.store(b + 1, std::memory_order_release);
    ++done;
  }
  if (stats != nullptr && done > 0) {
    stats->dlht_buckets_migrated.Add(done);
  }
  if (v->cursor.load(std::memory_order_relaxed) >= old_count) {
    // Migration complete: publish the stable view, retire the old
    // generation through the epoch domain (readers may still be probing
    // the old table's empty chains until they exit their guards).
    View* nv = new View{to, to};
    view_.store(nv, std::memory_order_release);
    EpochDomain::Global().RetireObject(v);
    EpochDomain::Global().RetireObject(from);
  }
  return done;
}

bool Dlht::resize_in_flight() const {
  EpochDomain::ReadGuard epoch(EpochDomain::Global());
  View* v = view_.load(std::memory_order_acquire);
  return v->from != v->to;
}

size_t Dlht::bucket_count() const {
  EpochDomain::ReadGuard epoch(EpochDomain::Global());
  return view_.load(std::memory_order_acquire)->to->buckets.size();
}

size_t Dlht::memory_bytes() const {
  EpochDomain::ReadGuard epoch(EpochDomain::Global());
  View* v = view_.load(std::memory_order_acquire);
  size_t bytes = sizeof(Dlht) + sizeof(View) +
                 sizeof(Table) + v->to->buckets.size() * sizeof(Bucket);
  if (v->from != v->to) {
    bytes += sizeof(Table) + v->from->buckets.size() * sizeof(Bucket);
  }
  return bytes;
}

Dlht::ChainSample Dlht::SampleChains(size_t samples) const {
  ChainSample out;
  if (samples == 0) {
    return out;
  }
  EpochDomain::ReadGuard epoch(EpochDomain::Global());
  View* v = view_.load(std::memory_order_acquire);
  Table* t = v->to;
  const size_t nbuckets = t->buckets.size();
  const size_t stride = nbuckets > samples ? nbuckets / samples : 1;
  std::vector<size_t> lengths;
  lengths.reserve(samples);
  for (size_t b = 0; b < nbuckets && lengths.size() < samples; b += stride) {
    size_t len = 0;
    for (HNode* n = t->buckets[b].chain.First();
         n != nullptr && len < 1024;  // bound a torn walk
         n = n->next.load(std::memory_order_acquire)) {
      ++len;
    }
    lengths.push_back(len);
  }
  out.sampled = lengths.size();
  if (lengths.empty()) {
    return out;
  }
  std::sort(lengths.begin(), lengths.end());
  out.max_len = lengths.back();
  size_t idx = (lengths.size() * 99) / 100;
  if (idx >= lengths.size()) {
    idx = lengths.size() - 1;
  }
  out.p99_len = lengths[idx];
  return out;
}

size_t Dlht::SizeSlow() const {
  size_t total = 0;
  const_cast<Dlht*>(this)->ForEachEntry([&total](FastDentry*) { ++total; });
  return total;
}

}  // namespace dircache
