// Bad twin for rule mutex-discipline: a raw std::mutex smuggled behind a
// type alias plus a std::lock_guard local. Raw primitives are invisible to
// the clang thread-safety analysis — nothing can be SCAP_GUARDED_BY them —
// so only the annotated wrappers in src/base/mutex.hpp are allowed. The
// rule flags every line that spells a raw type, so the alias is caught
// where it is declared.
namespace std {
class mutex {
 public:
  void lock();
  void unlock();
};
template <class M>
class lock_guard {
 public:
  explicit lock_guard(M& m);
};
}  // namespace std

namespace scap {

using Lock = std::mutex;  // expect: mutex-discipline

class Registry {
 public:
  void touch() {
    std::lock_guard<std::mutex> hold(mu_);  // expect: mutex-discipline
    ++epoch_;
  }

 private:
  Lock mu_;
  unsigned long epoch_ = 0;
};

}  // namespace scap
