// Good twin for hot_alloc_alias_bad.cpp: the same alias, auto local and
// helper call, over fixed-size open-addressing storage — the shape the
// real FlowTable uses. Nothing on the path allocates.
#if defined(__clang__)
#define SCAP_HOT [[clang::annotate("scap_hot")]]
#define SCAP_COLD [[clang::annotate("scap_cold")]]
#else
#define SCAP_HOT
#define SCAP_COLD
#endif

namespace scap::kernel {

struct FlowSlots {
  int keys[64] = {};
  int values[64] = {};
  void put(int key, int value) {
    keys[key & 63] = key;
    values[key & 63] = value;
  }
};

using FlowMap = FlowSlots;

class FlowIndex {
 public:
  SCAP_HOT void record(int key) {
    flows_.put(key, 0);
    auto& view = flows_;
    view.put(key, 1);
    clear_table();
  }

 private:
  int* clear_table() {
    for (int& v : table_) v = 0;
    return table_;
  }

  FlowMap flows_;
  int table_[64] = {};
};

}  // namespace scap::kernel
