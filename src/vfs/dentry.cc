#include "src/vfs/dentry.h"

#include <algorithm>
#include <cassert>
#include <new>

#include "src/util/epoch.h"

namespace dircache {

DirListing* DirListing::Create(size_t count, size_t name_bytes) {
  const size_t bytes = sizeof(DirListing) + count * sizeof(Entry) + name_bytes;
  return new (::operator new(bytes)) DirListing(count, bytes);
}

void DirListing::Append(std::string_view name, InodeNum ino, FileType type) {
  assert(filled_ < count_);
  names_used_ += static_cast<uint32_t>(name.size());
  Entry& e = entries()[filled_++];
  e.ino = ino;
  e.name_off = names_used_ - static_cast<uint32_t>(name.size());
  e.name_len = static_cast<uint16_t>(name.size());
  e.type = type;
  std::copy(name.begin(), name.end(), names() + e.name_off);
}

size_t DirListing::CopyOut(size_t from, size_t max,
                           std::vector<DirEntry>* out) const {
  if (from >= count_) {
    return from;
  }
  const size_t end = from + std::min(max, count_ - from);
  out->reserve(out->size() + (end - from));
  for (size_t i = from; i < end; ++i) {
    const Entry& e = entries()[i];
    out->push_back(DirEntry{std::string(name(i)), e.ino, e.type});
  }
  return end;
}

void DirListing::Unref() const {
  if (refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    this->~DirListing();
    ::operator delete(const_cast<DirListing*>(this));
  }
}

Dentry::Dentry(SuperBlock* sb, Dentry* parent, std::string name, Inode* inode,
               uint32_t initial_flags)
    : sb_(sb),
      name_(new std::string(std::move(name))),
      parent_(parent),
      inode_(inode),
      flags_(initial_flags) {
  if (parent != nullptr) {
    parent->DgetHeld();
  }
}

Dentry::~Dentry() {
  // DentryCache::Release drops the listing before the dentry is retired.
  assert(listing == nullptr);
  delete name_.load(std::memory_order_relaxed);
}

void Dentry::set_name(std::string n) {
  const auto* fresh = new std::string(std::move(n));
  const std::string* old = name_.exchange(fresh, std::memory_order_acq_rel);
  EpochDomain::Global().RetireObject(const_cast<std::string*>(old));
}

}  // namespace dircache
