// Bad twin for rule hot-alloc, hidden allocations: the container hides
// behind a type alias and an auto-deduced local, and an array new sits
// one call below the SCAP_HOT root. Both frontends must see through the
// alias and the `auto` to the std::unordered_map member that allocates.
// Fixtures are hermetic (fake std declarations, no includes).
#if defined(__clang__)
#define SCAP_HOT [[clang::annotate("scap_hot")]]
#define SCAP_COLD [[clang::annotate("scap_cold")]]
#else
#define SCAP_HOT
#define SCAP_COLD
#endif

namespace std {
template <class K, class V>
class unordered_map {
 public:
  void insert(const K& key);
  void emplace(const K& key, const V& value);
};
}  // namespace std

namespace scap::kernel {

using FlowMap = std::unordered_map<int, int>;  // the alias itself is fine

class FlowIndex {
 public:
  SCAP_HOT void record(int key) {
    flows_.insert(key);  // expect-chain: hot-alloc: kernel::FlowIndex::record -> std::unordered_map::insert
    auto& view = flows_;
    view.emplace(key, 1);  // expect-chain: hot-alloc: kernel::FlowIndex::record -> std::unordered_map::emplace
    grow_table();
  }

 private:
  int* grow_table() {
    return new int[64];  // expect-chain: hot-alloc: kernel::FlowIndex::record -> kernel::FlowIndex::grow_table -> operator new
  }

  FlowMap flows_;
};

}  // namespace scap::kernel
