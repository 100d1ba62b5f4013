// Good twin for SPSC discipline: every single-threaded queue end is
// reached either from a function that requires the queue's own serial
// domain or after entering that domain with a SerialGuard. The fakes
// carry the real annotations of src/base/mutex.hpp and src/base/ring.hpp
// (acquire/release on the guard, lock_returned on the domain accessors),
// so clang's -Wthread-safety proves each call holds the right domain and
// the file compiles clean under -Werror.
#define SCAP_CAPABILITY(x) __attribute__((capability(x)))
#define SCAP_SCOPED_CAPABILITY __attribute__((scoped_lockable))
#define SCAP_REQUIRES(...) \
  __attribute__((requires_capability(__VA_ARGS__)))
#define SCAP_ACQUIRE(...) __attribute__((acquire_capability(__VA_ARGS__)))
#define SCAP_RELEASE(...) __attribute__((release_capability(__VA_ARGS__)))
#define SCAP_RETURN_CAPABILITY(x) __attribute__((lock_returned(x)))

namespace scap {

class SCAP_CAPABILITY("serial domain") SerialDomain {
 public:
  void acquire() SCAP_ACQUIRE() {}
  void release() SCAP_RELEASE() {}
};

class SCAP_SCOPED_CAPABILITY SerialGuard {
 public:
  explicit SerialGuard(SerialDomain& d) SCAP_ACQUIRE(d) : d_(d) {
    d_.acquire();
  }
  ~SerialGuard() SCAP_RELEASE() { d_.release(); }

 private:
  SerialDomain& d_;
};

template <typename T>
class SpscRing {
 public:
  bool try_push(const T& v) SCAP_REQUIRES(producer_) {
    slot_ = v;
    return true;
  }
  bool try_pop(T& out) SCAP_REQUIRES(consumer_) {
    out = slot_;
    return true;
  }
  int pop_batch(T* out, int n) SCAP_REQUIRES(consumer_) {
    out[0] = slot_;
    return n > 0 ? 1 : 0;
  }
  SerialDomain& producer() SCAP_RETURN_CAPABILITY(producer_) {
    return producer_;
  }
  SerialDomain& consumer() SCAP_RETURN_CAPABILITY(consumer_) {
    return consumer_;
  }

 private:
  SerialDomain producer_;
  SerialDomain consumer_;
  T slot_{};
};

template <typename T>
class MpscQueue {
 public:
  bool try_push(const T& v) {  // multi-producer: any thread may call
    slot_ = v;
    return true;
  }
  bool try_pop(T& out) SCAP_REQUIRES(consumer_) {
    out = slot_;
    return true;
  }
  SerialDomain& consumer() SCAP_RETURN_CAPABILITY(consumer_) {
    return consumer_;
  }

 private:
  SerialDomain consumer_;
  T slot_{};
};

// Form 1: the function requires the ring's own producer domain, so every
// caller must hold it.
void annotated_produce(SpscRing<int>& ring) SCAP_REQUIRES(ring.producer()) {
  ring.try_push(42);
}

void produce_twice(SpscRing<int>& ring) {
  SerialGuard serial(ring.producer());
  annotated_produce(ring);
  annotated_produce(ring);
}

// Form 2: the function enters the domain with a SerialGuard.
void guarded_consume(SpscRing<int>& ring) {
  SerialGuard serial(ring.consumer());
  int v;
  ring.try_pop(v);
}

class Worker {
 public:
  void drain(SpscRing<int>& ring) {
    SerialGuard serial(ring.consumer());
    int buf[8];
    ring.pop_batch(buf, 8);
  }
  void service(MpscQueue<int>& q) {
    SerialGuard serial(q.consumer());
    int v;
    q.try_pop(v);
  }
};

void enqueue_command(MpscQueue<int>& q) {
  q.try_push(7);  // MPSC producer side needs no domain
}

}  // namespace scap
