// Good twin for rule guard-coverage: every field in the pinned capability
// table carries its annotation. Zero findings. events_dispatched_ is a
// plain atomic by design (workers bump it lock-free) and is deliberately
// NOT in the table.
#define SCAP_CAPABILITY(x) __attribute__((capability(x)))
#define SCAP_GUARDED_BY(x) __attribute__((guarded_by(x)))
#define SCAP_PT_GUARDED_BY(x) __attribute__((pt_guarded_by(x)))

namespace scap {

namespace kernel {
class ScapKernel {
 private:
  class SCAP_CAPABILITY("serial domain") SerialDomain {} serial_;
  int* nic_ SCAP_PT_GUARDED_BY(serial_) = nullptr;
  int* tracer_ SCAP_PT_GUARDED_BY(serial_) = nullptr;
};

class KernelShards {
 private:
  struct Shard {
    class SCAP_CAPABILITY("mutex") Mutex {} snap_mu;
    unsigned long snapshot SCAP_GUARDED_BY(snap_mu) = 0;
  };
  class SCAP_CAPABILITY("serial domain") SerialDomain {} producer_;
  unsigned long pushed_ SCAP_GUARDED_BY(producer_) = 0;
  struct WatchdogState {};
  WatchdogState watchdog_ SCAP_GUARDED_BY(producer_);
};
}  // namespace kernel

class Capture {
 private:
  class SCAP_CAPABILITY("mutex") Mutex {} kernel_mutex_;
  Mutex producer_mutex_;
  int* nic_ SCAP_PT_GUARDED_BY(kernel_mutex_) = nullptr;
  int* tracer_ SCAP_PT_GUARDED_BY(kernel_mutex_) = nullptr;
  long last_tick_ SCAP_GUARDED_BY(producer_mutex_) = 0;
  int* staged_ SCAP_GUARDED_BY(producer_mutex_) = nullptr;
  struct RingPolicy {};
  RingPolicy ring_policy_ SCAP_GUARDED_BY(producer_mutex_);
  unsigned long events_dispatched_ = 0;  // unannotated atomic: fine
};

}  // namespace scap
