// Soak: everything at once — multithreaded syscall churn over mounts,
// namespaces, symlinks and permissions on the optimized kernel, with
// periodic cache eviction, followed by a full equivalence re-check of the
// final tree against the FS truth and an on-disk fsck.
#include <atomic>
#include <set>
#include <thread>

#include "src/storage/fsck.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace dircache {
namespace {

TEST(SoakTest, EverythingAtOnce) {
  DiskFsOptions opt;
  opt.num_blocks = 1 << 16;
  opt.max_inodes = 1 << 14;
  auto fs = std::make_shared<DiskFs>(opt);
  CacheConfig cfg = CacheConfig::Optimized();
  cfg.pcc_bytes = 4096;  // small: force thrash + last-hop
  TestWorld w(cfg, fs);
  Task& root = *w.root;
  ASSERT_OK(root.Mkdir("/work"));
  ASSERT_OK(root.Mkdir("/proc"));
  ASSERT_OK(root.Mount("/proc", std::make_shared<MemFs>()));
  ASSERT_OK(root.Symlink("/work", "/w"));

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;

  // Churn workers: create/write/rename/unlink in private subtrees (through
  // the symlink half the time).
  for (int id = 0; id < 2; ++id) {
    threads.emplace_back([&, id] {
      TaskPtr task = w.root->Fork();
      std::string base = "/work/t" + std::to_string(id);
      ASSERT_OK(task->Mkdir(base));
      Rng rng(static_cast<uint64_t>(id) + 101);
      for (int op = 0; op < 1500; ++op) {
        std::string prefix = rng.Chance(0.5)
                                 ? base
                                 : "/w/t" + std::to_string(id);
        std::string f = prefix + "/f" + std::to_string(rng.Below(24));
        switch (rng.Below(5)) {
          case 0: {
            auto fd = task->Open(f, kOCreat | kOWrite);
            if (fd.ok()) {
              (void)task->WriteFd(*fd, "soak");
              (void)task->Close(*fd);
            }
            break;
          }
          case 1:
            (void)task->Unlink(f);
            break;
          case 2:
            (void)task->Rename(f, prefix + "/r" +
                                      std::to_string(rng.Below(24)));
            break;
          case 3:
            (void)task->Statx(kAtFdCwd, f, 0);
            break;
          case 4: {
            auto dfd = task->Open(prefix, kORead | kODirectory);
            if (dfd.ok()) {
              while (true) {
                auto b = task->ReadDirFd(*dfd, 16);
                if (!b.ok() || b->empty()) {
                  break;
                }
              }
              (void)task->Close(*dfd);
            }
            break;
          }
        }
      }
    });
  }

  // Namespace-private observer.
  threads.emplace_back([&] {
    TaskPtr ns_task = w.root->Fork();
    ASSERT_OK(ns_task->UnshareMountNs());
    auto priv = std::make_shared<MemFs>();
    (void)priv->Create(MemFs::kRootIno, "flag", FileType::kRegular, 0644, 0,
                       0);
    ASSERT_OK(ns_task->Mkdir("/nsmnt"));
    ASSERT_OK(ns_task->Mount("/nsmnt", priv));
    while (!stop.load(std::memory_order_acquire)) {
      EXPECT_OK(ns_task->Statx(kAtFdCwd, "/nsmnt/flag", 0));
      (void)ns_task->Statx(kAtFdCwd, "/work/t0/f1", 0);
      (void)ns_task->Statx(kAtFdCwd, "/proc/nothing", 0);
    }
  });

  // Permission flipper + evictor.
  threads.emplace_back([&] {
    TaskPtr task = w.root->Fork();
    Rng rng(55);
    while (!stop.load(std::memory_order_acquire)) {
      (void)task->Chmod("/work", rng.Chance(0.5) ? 0755 : 0711);
      {
        std::unique_lock<std::shared_mutex> tree(w.kernel->tree_lock());
        w.kernel->dcache().Shrink(32);
      }
      std::this_thread::yield();
    }
  });

  threads[0].join();
  threads[1].join();
  stop.store(true, std::memory_order_release);
  for (size_t i = 2; i < threads.size(); ++i) {
    threads[i].join();
  }
  ASSERT_OK(root.Chmod("/work", 0755));

  // Final coherence: the cached view must agree with the FS truth for
  // every file, via readdir *and* via direct lookups.
  for (int id = 0; id < 2; ++id) {
    std::string base = "/work/t" + std::to_string(id);
    std::set<std::string> listed;
    auto dfd = root.Open(base, kORead | kODirectory);
    ASSERT_OK(dfd);
    while (true) {
      auto b = root.ReadDirFd(*dfd, 32);
      ASSERT_OK(b);
      if (b->empty()) {
        break;
      }
      for (auto& e : *b) {
        listed.insert(e.name);
      }
    }
    ASSERT_OK(root.Close(*dfd));
    // Everything listed must stat, through both the real path and the
    // symlinked alias path.
    for (const auto& name : listed) {
      EXPECT_OK(root.Statx(kAtFdCwd, base + "/" + name, 0));
      EXPECT_OK(root.Statx(kAtFdCwd, "/w/t" + std::to_string(id) + "/" + name, 0));
    }
  }

  // And the on-disk state is consistent.
  FsckReport report = RunFsck(*fs);
  EXPECT_TRUE(report.clean()) << report.Summary();

  // The in-memory structures survived too: the invariant auditor
  // (DESIGN.md §10) cross-checks dcache/DLHT/LRU consistency at quiescence.
  obs::AuditReport audit = w.kernel->Audit();
  EXPECT_TRUE(audit.clean()) << audit.ToText();
  EXPECT_GT(audit.dentries_visited, 0u);
}

}  // namespace
}  // namespace dircache
