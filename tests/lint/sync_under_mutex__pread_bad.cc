// Negative fixture for gistcr_lint rule `sync-under-mutex`, pread case: a
// read of the log file with wal.mu held parks every Append and Flush
// behind the disk, and restart reads one record per planned redo. Durable
// log bytes never change, so LogManager::ReadRecord reads them with no
// mutex at all; only the in-memory tail is read under it.
//
// Not compiled; consumed by `gistcr_lint.py --self-test tests/lint`.

#include <unistd.h>

#include "common/mutex.h"

namespace gistcr {

bool BadReadUnderMutex(Mutex& mu, int fd, char* buf, size_t n, off_t at) {
  MutexLock l(mu);
  // VIOLATION: pread with `l` held.
  return ::pread(fd, buf, n, at) == static_cast<ssize_t>(n);
}

bool BadWriteUnderMutex(Mutex& mu, int fd, const char* buf, size_t n,
                        off_t at) {
  MutexLock l(mu);
  // VIOLATION: pwrite with `l` held.
  return pwrite(fd, buf, n, at) == static_cast<ssize_t>(n);
}

bool OkReadOutsideMutex(Mutex& mu, int fd, char* buf, size_t n,
                        const off_t* end) {
  off_t at = 0;
  {
    MutexLock l(mu);
    at = *end - static_cast<off_t>(n);  // offset chosen under the mutex
  }
  // Fine: the mutex scope closed before the read.
  return ::pread(fd, buf, n, at) == static_cast<ssize_t>(n);
}

}  // namespace gistcr
