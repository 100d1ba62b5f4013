// Bad twin for SPSC discipline, checked by clang's -Wthread-safety: the
// single-threaded ends of the lock-free queues called from functions that
// neither require the queue's serial domain nor enter it with a
// SerialGuard. Each call is exactly the bug the annotations exist for: a
// second thread could call the same function and corrupt the queue's
// single-producer (or single-consumer) indices. Clang must reject this
// file with a thread-safety diagnostic under -Werror.
#define SCAP_CAPABILITY(x) __attribute__((capability(x)))
#define SCAP_REQUIRES(...) \
  __attribute__((requires_capability(__VA_ARGS__)))

namespace scap {

class SCAP_CAPABILITY("serial domain") SerialDomain {};

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

 private:
  SerialDomain consumer_;
  T slot_{};
};

void unguarded_produce(SpscRing<int>& ring) {
  ring.try_push(42);  // error: requires ring.producer_
}

void unguarded_consume(SpscRing<int>& ring) {
  int v;
  ring.try_pop(v);  // error: requires ring.consumer_
}

class Worker {
 public:
  void drain(SpscRing<int>& ring) {
    int buf[8];
    ring.pop_batch(buf, 8);  // error: requires ring.consumer_
  }
  void service(MpscQueue<int>& q) {
    int v;
    q.try_pop(v);  // error: requires q.consumer_
  }
};

void enqueue_command(MpscQueue<int>& q) {
  q.try_push(7);  // MPSC producer side: legal from any thread
}

}  // namespace scap
