// Bad twin for rule guard-coverage: fields from the pinned capability
// table (DESIGN.md §11) lost their annotations — exactly what happens when
// someone deletes a SCAP_GUARDED_BY to silence a thread-safety error
// instead of fixing the locking. The sharded-datapath entries (producer
// tick state, KernelShards push counters, per-shard snapshots) are pinned
// too.
#define SCAP_CAPABILITY(x) __attribute__((capability(x)))
#define SCAP_GUARDED_BY(x) __attribute__((guarded_by(x)))
#define SCAP_PT_GUARDED_BY(x) __attribute__((pt_guarded_by(x)))

namespace scap {

namespace kernel {
class ScapKernel {
 private:
  class SCAP_CAPABILITY("serial domain") SerialDomain {} serial_;
  int* nic_ SCAP_PT_GUARDED_BY(serial_) = nullptr;
  int* tracer_ = nullptr;  // expect: guard-coverage
};

class KernelShards {
 private:
  struct Shard {
    class SCAP_CAPABILITY("mutex") Mutex {} snap_mu;
    unsigned long snapshot = 0;  // expect: guard-coverage
  };
  class SCAP_CAPABILITY("serial domain") SerialDomain {} producer_;
  unsigned long pushed_ = 0;  // expect: guard-coverage
  struct WatchdogState {};
  WatchdogState watchdog_;  // expect: guard-coverage
};
}  // namespace kernel

class Capture {
 private:
  class SCAP_CAPABILITY("mutex") Mutex {} kernel_mutex_;
  Mutex producer_mutex_;
  int* nic_ SCAP_PT_GUARDED_BY(kernel_mutex_) = nullptr;
  int* tracer_ SCAP_PT_GUARDED_BY(kernel_mutex_) = nullptr;
  long last_tick_ = 0;  // expect: guard-coverage
  int* staged_ SCAP_GUARDED_BY(producer_mutex_) = nullptr;
  struct RingPolicy {};
  RingPolicy ring_policy_;  // expect: guard-coverage
  unsigned long events_dispatched_ = 0;  // unannotated atomic: fine now
};

}  // namespace scap
