// Path signing for the fastpath (§3.3).
//
// PathSigner owns the per-boot random key material and provides the
// canonical-path incremental hashing protocol: the canonical form of a
// dentry's path is the concatenation of "/<component>" for every component
// from the namespace root (the root itself hashes as the empty string).
// Children extend their parent's stored HashState, so hashing a relative
// path never re-touches the prefix (§3.1).
#ifndef DIRCACHE_CORE_SIGNATURE_H_
#define DIRCACHE_CORE_SIGNATURE_H_

#include <array>
#include <cstdint>
#include <string_view>

#include "src/util/hash.h"

namespace dircache {

// Longest component name a path may hold (Linux's NAME_MAX).
inline constexpr size_t kMaxNameLen = 255;

// Prefix-state snapshots for the shortcut miss fallback (DESIGN.md §14):
// the incremental hash state after every component of a path, plus the
// offset where the remaining suffix starts. Finalizing state[k] yields the
// signature of the prefix holding components 0..k, so a longest-prefix DLHT
// probe is one Finalize per candidate depth — no re-hashing.
struct PrefixStates {
  static constexpr size_t kMaxDepth = 32;
  std::array<HashState, kMaxDepth> state;    // state[i]: after component i
  std::array<uint32_t, kMaxDepth> suffix_off; // offset just past component i
  size_t depth = 0;                           // components recorded
};

class PathSigner {
 public:
  // `seed` keys the hash function; pass entropy in production, a fixed
  // value in reproducible experiments. (Paper: random key at boot, §3.3.)
  explicit PathSigner(uint64_t seed)
      : key_(seed), hasher_(&key_) {}

  PathSigner(const PathSigner&) = delete;
  PathSigner& operator=(const PathSigner&) = delete;

  // State of the namespace root (hash of the empty path).
  HashState RootState() const { return hasher_.Init(); }

  // Extend `state` with "/<name>". False if PATH_MAX would be exceeded.
  bool AppendComponent(HashState& state, std::string_view name) const {
    // Short components (the overwhelming majority) fold in one Update via
    // a stack buffer; long ones take two.
    if (name.size() < kBufLen) {
      char buf[kBufLen];
      buf[0] = '/';
      std::memcpy(buf + 1, name.data(), name.size());
      return hasher_.Update(state, std::string_view(buf, name.size() + 1));
    }
    return hasher_.Update(state, "/") && hasher_.Update(state, name);
  }

  Signature Finalize(const HashState& state) const {
    return hasher_.Finalize(state);
  }

  // Hash `path` component-by-component from `base`, snapshotting the state
  // after every component into `out`. Returns false — and the caller must
  // not use `out` — for shapes the shortcut fallback does not handle:
  // "." / ".." components (their canonical form diverges from the textual
  // prefix), paths deeper than kMaxDepth, or a PATH_MAX overflow.
  bool SnapshotPrefixes(HashState base, std::string_view path,
                        PrefixStates* out) const {
    out->depth = 0;
    size_t i = 0;
    while (i < path.size()) {
      while (i < path.size() && path[i] == '/') {
        ++i;
      }
      if (i >= path.size()) {
        break;
      }
      size_t end = i;
      while (end < path.size() && path[end] != '/') {
        ++end;
      }
      std::string_view name = path.substr(i, end - i);
      if (name == "." || name == ".." ||
          out->depth >= PrefixStates::kMaxDepth) {
        return false;
      }
      if (!AppendComponent(base, name)) {
        return false;
      }
      out->state[out->depth] = base;
      out->suffix_off[out->depth] = static_cast<uint32_t>(end);
      ++out->depth;
      i = end;
    }
    return out->depth > 0;
  }

  // True if `path` is already in canonical form: non-empty names joined by
  // single slashes after at most one leading slash, with no "." or ".."
  // name, no trailing slash and no name over kMaxNameLen. Its bytes are
  // then exactly the "/<name>" concatenation of its components (after one
  // leading "/" for a relative path), which AppendCanonical signs in one
  // pass.
  static bool IsCanonical(std::string_view path) {
    const char* p = path.data();
    const char* const end = p + path.size();
    if (p != end && *p == '/') {
      ++p;
    }
    // One byte at a time: names are short, so a memchr per name costs more.
    for (const char* name = p;; ++p) {
      if (p == end || *p == '/') {
        const size_t len = static_cast<size_t>(p - name);
        if (len == 0 || len > kMaxNameLen ||
            (name[0] == '.' && (len == 1 || (len == 2 && name[1] == '.')))) {
          return false;
        }
        if (p == end) {
          return true;
        }
        name = p + 1;
      }
    }
  }

  // Extend `state` with a canonical `path` (IsCanonical) in one hash pass,
  // to the state AppendComponent per name reaches. False if PATH_MAX would
  // be exceeded.
  bool AppendCanonical(HashState& state, std::string_view path) const {
    return path.front() == '/' ? hasher_.Update(state, path)
                               : AppendComponent(state, path);
  }

 private:
  static constexpr size_t kBufLen = 72;

  PathHashKey key_;
  PathHasher hasher_;
};

}  // namespace dircache

#endif  // DIRCACHE_CORE_SIGNATURE_H_
