// Good twin for hot_alloc_accessor_bad.cpp: the same accessors and chained
// calls on their results, over a fixed-size filter array — the shape a
// preallocated table takes. Resolving the accessor's return type finds
// `add` and `remove`, and nothing on the path allocates.
#if defined(__clang__)
#define SCAP_HOT [[clang::annotate("scap_hot")]]
#define SCAP_COLD [[clang::annotate("scap_cold")]]
#else
#define SCAP_HOT
#define SCAP_COLD
#endif

namespace scap::nic {

class FdirTable {
 public:
  void add(int filter) { filters_[filter & 63] = filter; }
  void remove(int filter) { filters_[filter & 63] = 0; }
  void expire(int filter) { filters_[filter & 63] = -1; }

 private:
  int filters_[64] = {};
};

class Nic {
 public:
  FdirTable& fdir() { return fdir_; }

 private:
  FdirTable fdir_;
};

class Port {
 public:
  Nic& nic() { return nic_; }

 private:
  Nic nic_;
};

}  // namespace scap::nic

namespace scap::kernel {

SCAP_HOT void install_cutoff(nic::Nic& nic, int filter) {
  nic.fdir().add(filter);
}

SCAP_HOT void remove_cutoff(nic::Port* port, int filter) {
  port->nic().fdir().remove(filter);
}

SCAP_HOT void expire_cutoff(nic::Nic& nic, int filter) {
  auto& table = nic.fdir();
  table.expire(filter);
}

}  // namespace scap::kernel
