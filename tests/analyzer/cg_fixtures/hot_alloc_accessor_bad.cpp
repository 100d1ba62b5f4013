// Bad twin for rule hot-alloc, calls on an accessor's result: the filter
// table is reached only through `nic.fdir()`, so each allocating member
// is called on a call's return value: one and two accessors deep, through
// a pointer, and through an `auto&` local bound to the result. Both
// frontends must follow the accessor's declared return type to the
// std::vector member that allocates. Fixtures are hermetic (fake std
// declarations, no includes).
#if defined(__clang__)
#define SCAP_HOT [[clang::annotate("scap_hot")]]
#define SCAP_COLD [[clang::annotate("scap_cold")]]
#else
#define SCAP_HOT
#define SCAP_COLD
#endif

namespace std {
template <class T>
class vector {
 public:
  void push_back(const T& value);
};
}  // namespace std

namespace scap::nic {

class FdirTable {
 public:
  void add(int filter) {
    filters_.push_back(filter);  // expect-chain: hot-alloc: kernel::install_cutoff -> nic::FdirTable::add -> std::vector::push_back
  }
  void remove(int filter) {
    spares_.push_back(filter);  // expect-chain: hot-alloc: kernel::remove_cutoff -> nic::FdirTable::remove -> std::vector::push_back
  }
  void expire(int filter) {
    expired_.push_back(filter);  // expect-chain: hot-alloc: kernel::expire_cutoff -> nic::FdirTable::expire -> std::vector::push_back
  }

 private:
  std::vector<int> filters_;
  std::vector<int> spares_;
  std::vector<int> expired_;
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
