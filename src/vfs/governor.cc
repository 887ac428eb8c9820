#include "src/vfs/governor.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "src/core/dlht.h"
#include "src/core/pcc.h"
#include "src/util/clock.h"
#include "src/vfs/dcache.h"
#include "src/vfs/kernel.h"
#include "src/vfs/mount.h"

namespace dircache {

namespace {

// PCC lookups per thrash verdict.
constexpr uint64_t kPccWindow = 4096;
// Grow the DLHT when the sampled chain-length p99 exceeds this (and the
// byte budget has headroom), up to kDlhtMaxBuckets (a power of two).
constexpr size_t kDlhtGrowChainP99 = 4;
constexpr size_t kDlhtMaxBuckets = 1 << 22;
// Halve the DLHT when its load factor (entries per bucket) falls below this.
constexpr double kDlhtShrinkLoad = 0.125;

}  // namespace

void CacheGovernor::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_ || kernel_->config().governor_interval_us == 0) {
    return;
  }
  stop_ = false;
  running_ = true;
  thread_ = std::thread([this] { Loop(); });
}

void CacheGovernor::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) {
      return;
    }
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  running_ = false;
}

void CacheGovernor::Loop() {
  const auto interval =
      std::chrono::microseconds(kernel_->config().governor_interval_us);
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    if (cv_.wait_for(lock, interval, [this] { return stop_; })) {
      return;
    }
    lock.unlock();
    Tick();
    lock.lock();
  }
}

CacheGovernor::Usage CacheGovernor::MeasureUsage() const {
  return kernel_->MeasureCacheUsage();
}

bool CacheGovernor::Tick() {
  ticks_.fetch_add(1, std::memory_order_relaxed);
  const Usage usage = MeasureUsage();
  size_t evicted = 0;
  const uint64_t budget = kernel_->config().cache_memory_budget;
  if (budget != 0 && usage.total() > budget) {
    evicted = EnforceBudget(usage);
  }
  const bool steered = SteerDlht(usage);
  return evicted > 0 || steered;
}

size_t CacheGovernor::EnforceBudget(const Usage& usage) {
  const CacheConfig& cfg = kernel_->config();
  DentryCache& dc = kernel_->dcache();
  const uint64_t over = usage.total() - cfg.cache_memory_budget;
  const uint64_t per_dentry = DentryCache::kApproxDentryBytes;
  // Only dentries are evictable here (DLHT geometry is handled by the merge
  // path in SteerDlht; PCC tables are fixed at their configured size), so
  // translate the overage into a dentry count.
  size_t need = static_cast<size_t>((over + per_dentry - 1) / per_dentry);
  kernel_->stats().governor_shrinks.Add(1);
  size_t evicted = 0;
  {
    std::unique_lock<std::shared_mutex> tree(kernel_->tree_lock());
    // Proportional pass: tenants above their fair share pay first, each at
    // most its excess — a noisy tenant cannot push a quiet one below fair
    // share through this path. The overflow row aggregates many uids whose
    // dentries carry different tenant tags, so it only shrinks globally.
    std::vector<DentryCache::TenantUsage> tenants = dc.TenantUsages();
    uint64_t total_dentries = 0;
    for (const auto& t : tenants) {
      total_dentries += t.dentries;
    }
    if (!tenants.empty() && total_dentries > 0) {
      const uint64_t fair = total_dentries / tenants.size();
      uint64_t total_excess = 0;
      for (const auto& t : tenants) {
        if (t.tenant != DentryCache::kTenantOverflow && t.dentries > fair) {
          total_excess += t.dentries - fair;
        }
      }
      for (const auto& t : tenants) {
        if (evicted >= need || total_excess == 0) {
          break;
        }
        if (t.tenant == DentryCache::kTenantOverflow || t.dentries <= fair) {
          continue;
        }
        const uint64_t excess = t.dentries - fair;
        uint64_t quota = (static_cast<uint64_t>(need) * excess +
                          total_excess - 1) /
                         total_excess;
        quota = std::min(quota, excess);
        evicted += dc.ShrinkTenant(t.tenant, static_cast<size_t>(quota));
      }
    }
    if (evicted < need) {
      evicted += dc.Shrink(need - evicted);
    }
  }
  kernel_->obs().RecordJournal(obs::JournalEvent::kGovernorShrink,
                               NowNanos(), /*duration_ns=*/0, usage.total(),
                               evicted);
  return evicted;
}

bool CacheGovernor::SteerDlht(const Usage& usage) {
  const CacheConfig& cfg = kernel_->config();
  CacheStats& stats = kernel_->stats();
  bool acted = false;
  bool dlht_wants_grow = false;
  // Drive a migration forward one bounded step and journal its completion.
  // Callers hold the shared tree lock: per-bucket locks do the real work,
  // and no step overlaps an exclusive Audit.
  auto step = [&](Dlht& table) {
    const size_t moved = table.MigrateStep(cfg.dlht_resize_step, &stats);
    if (!table.resize_in_flight()) {
      kernel_->obs().RecordJournal(obs::JournalEvent::kDlhtMigrate,
                                   NowNanos(), /*duration_ns=*/0, moved,
                                   table.bucket_count());
    }
    return moved;
  };
  for (const MountNamespacePtr& ns : kernel_->AllNamespaces()) {
    Dlht& table = ns->dlht();
    if (table.resize_in_flight()) {
      std::shared_lock<std::shared_mutex> tree(kernel_->tree_lock());
      acted |= step(table) > 0;
      continue;
    }
    const size_t buckets = table.bucket_count();
    const size_t entries = table.size();
    // Cheap pre-check before walking chains: the p99 chain length cannot
    // degrade past the grow threshold (>= 4 by default) below a load
    // factor of ~1 unless the hash is broken, so an idle tick on a sparse
    // table is two atomic loads — no bucket array traffic at all.
    bool wants_grow = false;
    if (entries >= buckets) {
      Dlht::ChainSample sample = table.SampleChains(256);
      wants_grow =
          sample.sampled > 0 && sample.p99_len > kDlhtGrowChainP99;
    }
    dlht_wants_grow |= wants_grow;
    size_t target = 0;
    if (wants_grow && buckets * 2 <= kDlhtMaxBuckets &&
        (cfg.cache_memory_budget == 0 ||
         usage.total() + ns->dlht().memory_bytes() <=
             cfg.cache_memory_budget)) {
      // Headroom check: the to-table costs as much again as the current
      // one; skip the grow when the budget cannot absorb it.
      target = buckets * 2;
    } else if (!wants_grow && buckets > cfg.dlht_min_buckets &&
               buckets / 2 >= cfg.dlht_min_buckets &&
               static_cast<double>(entries) <
                   static_cast<double>(buckets) * kDlhtShrinkLoad) {
      target = buckets / 2;
    }
    if (target != 0) {
      std::shared_lock<std::shared_mutex> tree(kernel_->tree_lock());
      if (table.BeginResize(target, &stats)) {
        kernel_->obs().RecordJournal(obs::JournalEvent::kDlhtResize,
                                     NowNanos(), /*duration_ns=*/0, buckets,
                                     target);
        step(table);
        acted = true;
      }
    }
  }
  // PCC-pressure attribution (edge-triggered): the credentials' memos are
  // thrashing while the shared table's chains are healthy — growing the
  // DLHT would not help; the PCC is the bottleneck. The occupancy scan runs
  // only on the rising edge, and only when the journal records it.
  const bool pcc_pressure = PccThrashing() && !dlht_wants_grow;
  if (pcc_pressure && !pcc_pressure_latched_ && kernel_->obs().enabled()) {
    uint64_t occupied = 0;
    uint64_t capacity = 0;
    for (const std::shared_ptr<Pcc>& pcc : kernel_->LivePccs()) {
      occupied += pcc->OccupiedEntries();
      capacity += pcc->capacity_entries();
    }
    kernel_->obs().RecordJournal(obs::JournalEvent::kPccPressure, NowNanos(),
                                 /*duration_ns=*/0, occupied, capacity);
  }
  pcc_pressure_latched_ = pcc_pressure;
  return acted;
}

bool CacheGovernor::PccThrashing() {
  const CacheStats& stats = kernel_->stats();
  const uint64_t hits = stats.pcc_hits.value();
  const uint64_t misses = stats.pcc_misses.value();
  if (hits < pcc_window_hits_ || misses < pcc_window_misses_) {
    // ResetAll() zeroed the counters under the window: restart it.
    pcc_window_hits_ = hits;
    pcc_window_misses_ = misses;
  }
  const uint64_t lookups =
      (hits - pcc_window_hits_) + (misses - pcc_window_misses_);
  if (lookups >= kPccWindow) {
    pcc_thrashing_ = (misses - pcc_window_misses_) * 2 > lookups;
    pcc_window_hits_ = hits;
    pcc_window_misses_ = misses;
  }
  return pcc_thrashing_;
}

}  // namespace dircache
