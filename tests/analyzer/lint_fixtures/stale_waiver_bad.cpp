// Bad twin for rule stale-waiver: the raw mutex this waiver once excused
// was replaced by an atomic counter, but the waiver line outlived it. A
// waiver that suppresses nothing would silently bless the next raw mutex
// someone writes on this line — it must be removed.
namespace scap {

class Counters {
 public:
  int bump(int v) {
    total_ += v;
    return total_;
  }

 private:
  // expect-next-line: stale-waiver
  // scap-lint: allow(mutex-discipline) the total used to sit behind a std::mutex
  int total_ = 0;
};

}  // namespace scap
