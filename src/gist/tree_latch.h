#ifndef GISTCR_GIST_TREE_LATCH_H_
#define GISTCR_GIST_TREE_LATCH_H_

// RAII wrapper over SharedMutex with runtime-conditional acquisition; the
// lock()/unlock() calls below are the wrapper implementation itself.
// gistcr-lint: allow-file(raw-latch-primitive)

#include "common/mutex.h"
#include "util/macros.h"

namespace gistcr {
namespace internal {

/// RAII for the kCoarse baseline's tree-wide latch; can be dropped and
/// re-acquired around lock waits (blocking while holding it would deadlock
/// undetectably against the lock manager). A no-op when disabled (kLink /
/// kUnsafeNoLink protocols).
///
/// Deliberately outside Clang's thread-safety analysis (DESIGN.md section
/// 10): whether the latch is held is runtime state (enabled_/held_,
/// exclusive vs. shared mode), which the static analysis cannot model —
/// TSan and the held_ flag enforce pairing instead.
class TreeLatch {
 public:
  TreeLatch(SharedMutex* m, bool exclusive, bool enabled)
      : m_(m), exclusive_(exclusive), enabled_(enabled) {
    Acquire();
  }
  ~TreeLatch() { Release(); }
  GISTCR_DISALLOW_COPY_AND_ASSIGN(TreeLatch);

  void Acquire() GISTCR_NO_THREAD_SAFETY_ANALYSIS {
    if (!enabled_ || held_) return;
    if (exclusive_) {
      m_->lock();
    } else {
      m_->lock_shared();
    }
    held_ = true;
  }
  void Release() GISTCR_NO_THREAD_SAFETY_ANALYSIS {
    if (!enabled_ || !held_) return;
    if (exclusive_) {
      m_->unlock();
    } else {
      m_->unlock_shared();
    }
    held_ = false;
  }

 private:
  SharedMutex* m_;
  bool exclusive_;
  bool enabled_;
  bool held_ = false;
};

}  // namespace internal
}  // namespace gistcr

#endif  // GISTCR_GIST_TREE_LATCH_H_
