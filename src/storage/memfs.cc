#include "src/storage/memfs.h"

#include <algorithm>

namespace dircache {

MemFs::MemFs() : MemFs(Options{}) {}

MemFs::MemFs(Options options) : options_(std::move(options)) {
  auto root = std::make_unique<Node>();
  root->attr.ino = kRootIno;
  root->attr.type = FileType::kDirectory;
  root->attr.mode = 0755;
  root->attr.nlink = 2;
  nodes_.emplace(kRootIno, std::move(root));
}

Result<MemFs::Node*> MemFs::Find(InodeNum ino) {
  auto it = nodes_.find(ino);
  if (it == nodes_.end()) {
    return Errno::kESTALE;
  }
  return it->second.get();
}

Result<MemFs::Node*> MemFs::FindDir(InodeNum ino) {
  auto node = Find(ino);
  if (!node.ok()) {
    return node.error();
  }
  if ((*node)->attr.type != FileType::kDirectory) {
    return Errno::kENOTDIR;
  }
  return *node;
}

Result<InodeAttr> MemFs::GetAttr(InodeNum ino) {
  std::lock_guard<std::mutex> lock(mu_);
  auto node = Find(ino);
  if (!node.ok()) {
    return node.error();
  }
  return (*node)->attr;
}

Status MemFs::SetAttr(InodeNum ino, const AttrUpdate& update) {
  std::lock_guard<std::mutex> lock(mu_);
  auto node = Find(ino);
  if (!node.ok()) {
    return node.error();
  }
  InodeAttr& attr = (*node)->attr;
  if (update.mode) {
    attr.mode = *update.mode & kModePermMask;
  }
  if (update.uid) {
    attr.uid = *update.uid;
  }
  if (update.gid) {
    attr.gid = *update.gid;
  }
  if (update.size) {
    if (attr.type == FileType::kDirectory) {
      return Errno::kEISDIR;
    }
    (*node)->data.resize(*update.size, '\0');
    attr.size = *update.size;
  }
  attr.ctime = ++time_tick_;
  return Status::Ok();
}

Result<InodeNum> MemFs::Lookup(InodeNum dir, std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto dnode = FindDir(dir);
  if (!dnode.ok()) {
    return dnode.error();
  }
  auto it = (*dnode)->children.find(name);
  if (it == (*dnode)->children.end()) {
    return Errno::kENOENT;
  }
  return it->second;
}

Result<InodeNum> MemFs::Create(InodeNum dir, std::string_view name,
                               FileType type, uint16_t mode, uint32_t uid,
                               uint32_t gid) {
  if (name.empty() || name.size() > 255 ||
      name.find('/') != std::string_view::npos) {
    return Errno::kEINVAL;
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto dnode = FindDir(dir);
  if (!dnode.ok()) {
    return dnode.error();
  }
  if ((*dnode)->children.count(std::string(name)) > 0) {
    return Errno::kEEXIST;
  }
  InodeNum ino = next_ino_++;
  auto node = std::make_unique<Node>();
  node->attr.ino = ino;
  node->attr.type = type;
  node->attr.mode = mode & kModePermMask;
  node->attr.uid = uid;
  node->attr.gid = gid;
  node->attr.nlink = type == FileType::kDirectory ? 2 : 1;
  node->attr.mtime = node->attr.ctime = ++time_tick_;
  nodes_.emplace(ino, std::move(node));
  (*dnode)->children.emplace(std::string(name), ino);
  if (type == FileType::kDirectory) {
    ++(*dnode)->attr.nlink;
  }
  (*dnode)->attr.mtime = ++time_tick_;
  return ino;
}

Result<InodeNum> MemFs::SymlinkCreate(InodeNum dir, std::string_view name,
                                      std::string_view target, uint32_t uid,
                                      uint32_t gid) {
  auto ino = Create(dir, name, FileType::kSymlink, 0777, uid, gid);
  if (!ino.ok()) {
    return ino.error();
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto node = Find(*ino);
  if (!node.ok()) {
    return node.error();
  }
  (*node)->data = std::string(target);
  (*node)->attr.size = target.size();
  return *ino;
}

Status MemFs::Link(InodeNum dir, std::string_view name, InodeNum target) {
  std::lock_guard<std::mutex> lock(mu_);
  auto dnode = FindDir(dir);
  if (!dnode.ok()) {
    return dnode.error();
  }
  auto tnode = Find(target);
  if (!tnode.ok()) {
    return tnode.error();
  }
  if ((*tnode)->attr.type == FileType::kDirectory) {
    return Errno::kEPERM;
  }
  if ((*dnode)->children.count(std::string(name)) > 0) {
    return Errno::kEEXIST;
  }
  (*dnode)->children.emplace(std::string(name), target);
  ++(*tnode)->attr.nlink;
  return Status::Ok();
}

Status MemFs::RemoveEntry(Node* dir, Children::iterator it, bool want_dir) {
  auto node = Find(it->second);
  if (!node.ok()) {
    return node.error();
  }
  const bool is_dir = (*node)->attr.type == FileType::kDirectory;
  if (is_dir != want_dir) {
    return is_dir ? Errno::kEISDIR : Errno::kENOTDIR;
  }
  if (is_dir) {
    if (!(*node)->children.empty()) {
      return Errno::kENOTEMPTY;
    }
    --dir->attr.nlink;
    nodes_.erase(it->second);
  } else if (--(*node)->attr.nlink == 0) {
    nodes_.erase(it->second);
  }
  dir->children.erase(it);
  return Status::Ok();
}

Status MemFs::RemoveName(InodeNum dir, std::string_view name,
                         bool dir_expected) {
  std::lock_guard<std::mutex> lock(mu_);
  auto dnode = FindDir(dir);
  if (!dnode.ok()) {
    return dnode.error();
  }
  auto it = (*dnode)->children.find(name);
  if (it == (*dnode)->children.end()) {
    return Errno::kENOENT;
  }
  DIRCACHE_RETURN_IF_ERROR(RemoveEntry(*dnode, it, dir_expected));
  (*dnode)->attr.mtime = ++time_tick_;
  return Status::Ok();
}

Status MemFs::Unlink(InodeNum dir, std::string_view name) {
  return RemoveName(dir, name, /*dir_expected=*/false);
}

Status MemFs::Rmdir(InodeNum dir, std::string_view name) {
  return RemoveName(dir, name, /*dir_expected=*/true);
}

Status MemFs::Rename(InodeNum old_dir, std::string_view old_name,
                     InodeNum new_dir, std::string_view new_name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto odnode = FindDir(old_dir);
  if (!odnode.ok()) {
    return odnode.error();
  }
  auto ndnode = FindDir(new_dir);
  if (!ndnode.ok()) {
    return ndnode.error();
  }
  auto oit = (*odnode)->children.find(old_name);
  if (oit == (*odnode)->children.end()) {
    return Errno::kENOENT;
  }
  InodeNum moved = oit->second;
  auto mnode = Find(moved);
  if (!mnode.ok()) {
    return mnode.error();
  }
  bool moved_is_dir = (*mnode)->attr.type == FileType::kDirectory;

  auto nit = (*ndnode)->children.find(new_name);
  if (nit != (*ndnode)->children.end()) {
    if (nit->second == moved) {
      return Status::Ok();
    }
    DIRCACHE_RETURN_IF_ERROR(RemoveEntry(*ndnode, nit, moved_is_dir));
  }

  (*odnode)->children.erase(oit);
  (*ndnode)->children.emplace(std::string(new_name), moved);
  if (moved_is_dir && old_dir != new_dir) {
    --(*odnode)->attr.nlink;
    ++(*ndnode)->attr.nlink;
  }
  (*odnode)->attr.mtime = ++time_tick_;
  (*ndnode)->attr.mtime = ++time_tick_;
  return Status::Ok();
}

Result<std::string> MemFs::ReadLink(InodeNum ino) {
  std::lock_guard<std::mutex> lock(mu_);
  auto node = Find(ino);
  if (!node.ok()) {
    return node.error();
  }
  if ((*node)->attr.type != FileType::kSymlink) {
    return Errno::kEINVAL;
  }
  return (*node)->data;
}

Result<ReadDirResult> MemFs::ReadDir(InodeNum dir, uint64_t offset,
                                     size_t max_entries) {
  std::lock_guard<std::mutex> lock(mu_);
  auto dnode = FindDir(dir);
  if (!dnode.ok()) {
    return dnode.error();
  }
  ReadDirResult result;
  result.eof = true;
  uint64_t index = 0;
  result.next_offset = (*dnode)->children.size();
  for (const auto& [name, ino] : (*dnode)->children) {
    if (index++ < offset) {
      continue;
    }
    if (result.entries.size() >= max_entries) {
      result.eof = false;
      result.next_offset = index - 1;
      break;
    }
    auto child = Find(ino);
    DirEntry entry;
    entry.name = name;
    entry.ino = ino;
    entry.type = child.ok() ? (*child)->attr.type : FileType::kRegular;
    result.entries.push_back(std::move(entry));
  }
  return result;
}

Result<size_t> MemFs::Read(InodeNum ino, uint64_t offset, size_t len,
                           std::string* out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto node = Find(ino);
  if (!node.ok()) {
    return node.error();
  }
  if ((*node)->attr.type == FileType::kDirectory) {
    return Errno::kEISDIR;
  }
  const std::string& data = (*node)->data;
  if (offset >= data.size()) {
    out->clear();
    return size_t{0};
  }
  size_t n = std::min<uint64_t>(len, data.size() - offset);
  out->assign(data, offset, n);
  return n;
}

Result<size_t> MemFs::Write(InodeNum ino, uint64_t offset,
                            std::string_view data) {
  std::lock_guard<std::mutex> lock(mu_);
  auto node = Find(ino);
  if (!node.ok()) {
    return node.error();
  }
  if ((*node)->attr.type == FileType::kDirectory) {
    return Errno::kEISDIR;
  }
  std::string& content = (*node)->data;
  if (content.size() < offset + data.size()) {
    content.resize(offset + data.size(), '\0');
  }
  content.replace(offset, data.size(), data);
  (*node)->attr.size = content.size();
  (*node)->attr.mtime = ++time_tick_;
  return data.size();
}

}  // namespace dircache
