// Bad twin for exhaustive switches, checked by the compiler: one switch
// hides a missing enumerator behind default:, which only -Wswitch-enum
// reports (plain -Wswitch accepts it), the other silently misses a case.
// The scap_* libraries build with -Wswitch-enum; this file must be
// rejected with a switch-enum diagnostic under -Werror.
namespace scap::kernel {

enum class Verdict { kStored, kDropped, kIgnored };

int with_default(Verdict v) {
  switch (v) {
    case Verdict::kStored:
      return 1;
    case Verdict::kDropped:
      return 2;
    default:  // hides kIgnored
      return 0;
  }
}

int missing_case(Verdict v) {
  switch (v) {  // misses kIgnored
    case Verdict::kStored:
      return 1;
    case Verdict::kDropped:
      return 2;
  }
  return 0;
}

}  // namespace scap::kernel
