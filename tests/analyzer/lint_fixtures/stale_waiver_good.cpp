// Good twin for rule stale-waiver: the waiver sits on a live raw
// primitive and suppresses it — used waivers are honored, and neither the
// finding nor the waiver is reported.
#include <condition_variable>

namespace scap {

class Staging {
 private:
  // scap-lint: allow(mutex-discipline) waits on a third-party lock type
  std::condition_variable_any ready_;
};

}  // namespace scap
