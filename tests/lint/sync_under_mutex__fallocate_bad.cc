// Negative fixture for gistcr_lint rule `sync-under-mutex`, fallocate
// case: punching a hole in the log (LogManager::ReclaimBefore) waits on
// the filesystem like a sync does, so a punch with wal.mu held would park
// every Append and Flush behind it. The fix takes the block range under
// the mutex, punches without it, then publishes the new floor.
//
// Not compiled; consumed by `gistcr_lint.py --self-test tests/lint`.

#include <fcntl.h>
#include <linux/falloc.h>

#include "common/mutex.h"

namespace gistcr {

bool BadPunchUnderMutex(Mutex& mu, int fd, off_t start, off_t len) {
  MutexLock l(mu);
  // VIOLATION: fallocate(PUNCH_HOLE) with `l` held.
  return ::fallocate(fd, FALLOC_FL_PUNCH_HOLE | FALLOC_FL_KEEP_SIZE, start,
                     len) == 0;
}

bool OkPunchOutsideMutex(Mutex& mu, int fd, off_t* start, off_t len) {
  {
    MutexLock l(mu);
    *start += len;  // range chosen under the mutex
  }
  // Fine: the mutex scope closed before the punch.
  return ::fallocate(fd, FALLOC_FL_PUNCH_HOLE | FALLOC_FL_KEEP_SIZE, *start,
                     len) == 0;
}

}  // namespace gistcr
