#include "src/vfs/cred.h"

#include "src/core/pcc.h"

namespace dircache {

Pcc* Cred::CreatePccSlow(size_t bytes) const {
  SpinGuard guard(pcc_lock_);
  if (pcc_ == nullptr) {
    pcc_ = std::make_shared<Pcc>(bytes);
    pcc_cache_.store(pcc_.get(), std::memory_order_release);
  }
  return pcc_.get();
}

}  // namespace dircache
