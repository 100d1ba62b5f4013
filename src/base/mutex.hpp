// Annotated synchronization primitives (DESIGN.md §11).
//
// The only mutexes allowed in src/ outside this file are these wrappers:
// scap_lint.py (rule mutex-discipline) flags any raw std::mutex,
// std::lock_guard, std::unique_lock or std::condition_variable spelled
// elsewhere, because a raw mutex is invisible to the clang thread-safety
// analysis — fields it guards cannot be annotated against it.
//
// SerialDomain is the capability for state that is serialized structurally
// rather than by a lock: the kernel's entry points require it, and the
// sharded datapath acquires it together with the shard's batch lock.
#pragma once

#include <condition_variable>  // the one place raw primitives may live (the
                               // wrappers); mutex-discipline exempts this file
#include <mutex>

#include "base/thread_annotations.hpp"

namespace scap::base {

/// std::mutex with the capability annotation: fields can be declared
/// SCAP_GUARDED_BY / SCAP_PT_GUARDED_BY a base::Mutex and the clang analysis
/// will prove every access happens under it.
class SCAP_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() SCAP_ACQUIRE() { mu_.lock(); }
  void unlock() SCAP_RELEASE() { mu_.unlock(); }
  bool try_lock() SCAP_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// RAII lock over base::Mutex. Exposes lock()/unlock() (BasicLockable) so a
/// CondVar can release and reacquire it inside wait(); the destructor only
/// unlocks if the lock is still held.
class SCAP_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) SCAP_ACQUIRE(mu) : mu_(mu), held_(true) {
    mu_.lock();
  }
  ~MutexLock() SCAP_RELEASE() {
    if (held_) mu_.unlock();
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void lock() SCAP_ACQUIRE() {
    mu_.lock();
    held_ = true;
  }
  void unlock() SCAP_RELEASE() {
    mu_.unlock();
    held_ = false;
  }

 private:
  Mutex& mu_;
  bool held_;
};

/// Condition variable paired with MutexLock. wait() must be called with the
/// lock held (it releases and reacquires it internally, like any condvar).
class CondVar {
 public:
  template <class Predicate>
  void wait(MutexLock& lock, Predicate pred) {
    cv_.wait(lock, pred);
  }
  /// std::jthread-aware wait: also wakes on stop_token cancellation.
  template <class StopToken, class Predicate>
  bool wait(MutexLock& lock, StopToken st, Predicate pred) {
    return cv_.wait(lock, st, pred);
  }
  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

/// A capability with no runtime state: names a serialization domain that is
/// enforced by structure (one thread, or an external lock) instead of by
/// its own mutex. acquire()/release() compile to nothing — their only job
/// is to carry the annotations.
class SCAP_CAPABILITY("serial domain") SerialDomain {
 public:
  void acquire() SCAP_ACQUIRE() {}
  void release() SCAP_RELEASE() {}
};

/// RAII acquisition of a SerialDomain (zero runtime cost). The holder is
/// asserting "I am the serialization domain right now" — in the capture
/// that assertion is backed by the shard's batch lock.
class SCAP_SCOPED_CAPABILITY SerialGuard {
 public:
  explicit SerialGuard(SerialDomain& d) SCAP_ACQUIRE(d) : d_(d) {
    d_.acquire();
  }
  ~SerialGuard() SCAP_RELEASE() { d_.release(); }
  SerialGuard(const SerialGuard&) = delete;
  SerialGuard& operator=(const SerialGuard&) = delete;

 private:
  SerialDomain& d_;
};

}  // namespace scap::base
