// Properties of the path signature scheme (§3.3): determinism, keyedness,
// prefix-resume equivalence, length separation, index distribution, and
// one-pass signing of canonical paths.
#include <algorithm>
#include <cstring>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "src/core/signature.h"
#include "src/util/hash.h"
#include "src/util/rng.h"

namespace dircache {
namespace {

TEST(HashTest, DeterministicForSameKey) {
  PathHashKey key(1234);
  PathHasher hasher(&key);
  auto sig = [&](std::string_view s) {
    HashState st = hasher.Init();
    EXPECT_TRUE(hasher.Update(st, s));
    return hasher.Finalize(st);
  };
  EXPECT_EQ(sig("/usr/include/stdio.h"), sig("/usr/include/stdio.h"));
  EXPECT_NE(sig("/usr/include/stdio.h"), sig("/usr/include/stdlib.h"));
}

TEST(HashTest, DifferentKeysDisagree) {
  // The signature is keyed per boot: the same path hashes differently
  // under different keys (blocks offline collision search, §3.3).
  PathHashKey k1(1);
  PathHashKey k2(2);
  PathHasher h1(&k1);
  PathHasher h2(&k2);
  HashState s1 = h1.Init();
  HashState s2 = h2.Init();
  ASSERT_TRUE(h1.Update(s1, "/etc/passwd"));
  ASSERT_TRUE(h2.Update(s2, "/etc/passwd"));
  EXPECT_NE(h1.Finalize(s1), h2.Finalize(s2));
}

TEST(HashTest, SplitUpdatesEqualWholeUpdates) {
  // Resumable state: hashing in arbitrary chunks gives the same result —
  // the property that lets children extend the parent's stored state.
  PathHashKey key(99);
  PathHasher hasher(&key);
  const std::string path = "/home/alice/projects/dircache/src/vfs/walk.cc";
  HashState whole = hasher.Init();
  ASSERT_TRUE(hasher.Update(whole, path));
  Signature expected = hasher.Finalize(whole);
  for (size_t split1 = 1; split1 < path.size(); split1 += 3) {
    for (size_t split2 = split1; split2 < path.size(); split2 += 7) {
      HashState st = hasher.Init();
      ASSERT_TRUE(hasher.Update(st, path.substr(0, split1)));
      ASSERT_TRUE(hasher.Update(st, path.substr(split1, split2 - split1)));
      ASSERT_TRUE(hasher.Update(st, path.substr(split2)));
      EXPECT_EQ(hasher.Finalize(st), expected)
          << "splits at " << split1 << "," << split2;
    }
  }
}

TEST(HashTest, FinalizeDoesNotConsumeState) {
  PathHashKey key(5);
  PathHasher hasher(&key);
  HashState st = hasher.Init();
  ASSERT_TRUE(hasher.Update(st, "/a"));
  Signature mid = hasher.Finalize(st);
  ASSERT_TRUE(hasher.Update(st, "/b"));
  Signature full = hasher.Finalize(st);
  EXPECT_NE(mid, full);
  // Recompute /a/b from scratch; must match the resumed value.
  HashState st2 = hasher.Init();
  ASSERT_TRUE(hasher.Update(st2, "/a/b"));
  EXPECT_EQ(hasher.Finalize(st2), full);
}

TEST(HashTest, PrefixAndPaddingSeparation) {
  // Zero-padding and prefix relationships must not collide: "/ab" vs
  // "/ab\0..." style confusions are prevented by length folding.
  PathHashKey key(7);
  PathHasher hasher(&key);
  auto sig = [&](std::string_view s) {
    HashState st = hasher.Init();
    EXPECT_TRUE(hasher.Update(st, s));
    return hasher.Finalize(st);
  };
  EXPECT_NE(sig("/ab"), sig(std::string("/ab\0", 4)));
  EXPECT_NE(sig("/abcd"), sig("/abcd/efg"));
  EXPECT_NE(sig(""), sig(std::string("\0", 1)));
}

TEST(HashTest, NoCollisionsInLargeSample) {
  PathHashKey key(42);
  PathHasher hasher(&key);
  Rng rng(3);
  std::set<std::array<uint64_t, 4>> seen;
  for (int i = 0; i < 200000; ++i) {
    std::string path = "/d" + std::to_string(rng.Below(50));
    path += "/f" + std::to_string(i);
    HashState st = hasher.Init();
    ASSERT_TRUE(hasher.Update(st, path));
    Signature sig = hasher.Finalize(st);
    EXPECT_TRUE(seen.insert(sig.words).second) << "collision at " << path;
  }
}

TEST(HashTest, BucketIndexIsReasonablyUniform) {
  PathHashKey key(11);
  PathHasher hasher(&key);
  std::array<int, 64> histogram{};
  constexpr int kSamples = 64 * 1024;
  for (int i = 0; i < kSamples; ++i) {
    HashState st = hasher.Init();
    std::string path = "/x/file" + std::to_string(i);
    ASSERT_TRUE(hasher.Update(st, path));
    histogram[hasher.Finalize(st).bucket % 64] += 1;
  }
  // Every 64th of the space should hold ~1024 +- 40%.
  for (int count : histogram) {
    EXPECT_GT(count, 1024 * 6 / 10);
    EXPECT_LT(count, 1024 * 14 / 10);
  }
}

TEST(HashTest, RejectsOverlongPaths) {
  PathHashKey key(1);
  PathHasher hasher(&key);
  HashState st = hasher.Init();
  std::string big(PathHashKey::kMaxPathLen, 'x');
  EXPECT_TRUE(hasher.Update(st, big));
  EXPECT_FALSE(hasher.Update(st, "y"));  // would exceed PATH_MAX
}

TEST(PathSignerTest, AppendComponentMatchesSlashJoin) {
  PathSigner signer(77);
  HashState st = signer.RootState();
  ASSERT_TRUE(signer.AppendComponent(st, "usr"));
  ASSERT_TRUE(signer.AppendComponent(st, "include"));
  ASSERT_TRUE(signer.AppendComponent(st, "stdio.h"));
  Signature via_components = signer.Finalize(st);

  // The canonical string is "/usr/include/stdio.h".
  PathHashKey key(77);
  PathHasher hasher(&key);
  HashState st2 = hasher.Init();
  ASSERT_TRUE(hasher.Update(st2, "/usr/include/stdio.h"));
  EXPECT_EQ(hasher.Finalize(st2), via_components);
}

TEST(PathSignerTest, LongComponentTakesSlowPathConsistently) {
  PathSigner signer(13);
  std::string longname(200, 'n');
  HashState st = signer.RootState();
  ASSERT_TRUE(signer.AppendComponent(st, longname));
  PathHashKey key(13);
  PathHasher hasher(&key);
  HashState st2 = hasher.Init();
  ASSERT_TRUE(hasher.Update(st2, "/" + longname));
  EXPECT_EQ(hasher.Finalize(st2), signer.Finalize(st));
}

// Equal in every byte a state has consumed. The pending bytes past
// pending_len are scratch that Finalize never reads.
void ExpectSameState(const HashState& a, const HashState& b) {
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.open_word, b.open_word);
  EXPECT_EQ(a.words_consumed, b.words_consumed);
  ASSERT_EQ(a.pending_len, b.pending_len);
  EXPECT_EQ(std::memcmp(a.pending.data(), b.pending.data(), a.pending_len), 0);
}

// A random name of `len` bytes, never "." or "..".
std::string RandomName(Rng& rng, size_t len) {
  static constexpr char kChars[] = "abcxyz.-_019";
  std::string name;
  do {
    name.clear();
    for (size_t i = 0; i < len; ++i) {
      name += kChars[rng.Below(sizeof(kChars) - 1)];
    }
  } while (name == "." || name == "..");
  return name;
}

TEST(PathSignerTest, OnePassEqualsPerNameOnCanonicalPaths) {
  // What the fastpath relies on: a canonical path signed in one pass from
  // the walk base reaches the state of AppendComponent per name. Absolute
  // paths start at the root; relative ones at a random base, most often
  // with a partial word pending. Names run 1-255 bytes, so many take
  // AppendComponent's long-name branch (72 bytes and up).
  PathSigner signer(2024);
  Rng rng(20);
  int long_names = 0;
  for (int i = 0; i < 4000; ++i) {
    const bool absolute = rng.Below(2) == 0;
    HashState base = signer.RootState();
    if (!absolute) {
      const std::string cwd = RandomName(rng, 1 + rng.Below(9));
      ASSERT_TRUE(signer.AppendComponent(base, cwd));
    }
    std::string path = absolute ? "/" : "";
    HashState per_name = base;
    const size_t names = 1 + rng.Below(12);
    for (size_t n = 0; n < names; ++n) {
      const size_t len =
          rng.Below(2) == 0 ? 1 + rng.Below(16) : 1 + rng.Below(kMaxNameLen);
      const std::string name = RandomName(rng, len);
      long_names += len >= 72 ? 1 : 0;
      path += (n == 0 ? "" : "/") + name;
      ASSERT_TRUE(signer.AppendComponent(per_name, name));
    }
    SCOPED_TRACE(path);
    ASSERT_TRUE(PathSigner::IsCanonical(path));
    HashState one_pass = base;
    ASSERT_TRUE(signer.AppendCanonical(one_pass, path));
    ExpectSameState(one_pass, per_name);
    EXPECT_EQ(signer.Finalize(one_pass), signer.Finalize(per_name));
  }
  EXPECT_GT(long_names, 1000);
}

TEST(PathSignerTest, IsCanonicalRejectsEveryOtherShape) {
  const std::string longest(kMaxNameLen, 'n');
  const std::string too_long(kMaxNameLen + 1, 'n');
  for (const std::string& p :
       {std::string("a"), std::string("/a"), std::string("a/b"),
        std::string("/usr/include/stdio.h"), std::string(".a"),
        std::string("a.."), std::string("..."), std::string("a/.b/..c"),
        longest, "/a/" + longest}) {
    EXPECT_TRUE(PathSigner::IsCanonical(p)) << p;
  }
  for (const std::string& p :
       {std::string(""), std::string("/"), std::string("//"),
        std::string("//a"), std::string("a//b"), std::string("a/"),
        std::string("/a/"), std::string("./a"), std::string("a/."),
        std::string("."), std::string("a/../b"), std::string(".."),
        std::string("/.."), too_long, "/a/" + too_long, too_long + "/a"}) {
    EXPECT_FALSE(PathSigner::IsCanonical(p)) << p;
  }
}

TEST(PathSignerTest, PathMaxBindsOnePassAndPerNameAlike) {
  // Sixteen 255-byte names fill PATH_MAX exactly; one more byte fails both
  // ways, absolute from the root and relative after the base's "/".
  PathSigner signer(5);
  const std::string name(kMaxNameLen, 'n');
  std::string full;
  for (int i = 0; i < 16; ++i) {
    full += "/" + name;
  }
  ASSERT_EQ(full.size(), PathHashKey::kMaxPathLen);
  const std::string full_rel = full.substr(1);
  const std::string over = full.substr(0, full.size() - 1) + "/x";
  const std::string over_rel = full_rel.substr(0, full_rel.size() - 1) + "/x";
  const std::string* paths[] = {&full, &full_rel, &over, &over_rel};
  for (const std::string* p : paths) {
    SCOPED_TRACE(p->size());
    ASSERT_TRUE(PathSigner::IsCanonical(*p));
    const bool fits = p == &full || p == &full_rel;
    HashState per_name = signer.RootState();
    bool per_name_ok = true;
    for (size_t i = p->front() == '/' ? 1 : 0; i <= p->size();) {
      const size_t end = std::min(p->find('/', i), p->size());
      per_name_ok = per_name_ok &&
                    signer.AppendComponent(per_name, p->substr(i, end - i));
      i = end + 1;
    }
    HashState one_pass = signer.RootState();
    EXPECT_EQ(per_name_ok, fits);
    EXPECT_EQ(signer.AppendCanonical(one_pass, *p), fits);
  }
}

TEST(HashBytes64Test, SeedSensitivity) {
  EXPECT_NE(HashBytes64(1, "name"), HashBytes64(2, "name"));
  EXPECT_EQ(HashBytes64(1, "name"), HashBytes64(1, "name"));
  EXPECT_NE(HashBytes64(1, "name"), HashBytes64(1, "namf"));
}

}  // namespace
}  // namespace dircache
