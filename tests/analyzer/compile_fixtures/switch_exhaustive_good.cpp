// Good twin for exhaustive switches: every enumerator of every switched
// enum is listed and no switch has a default:, so the file compiles clean
// under -Wswitch-enum -Werror. -Wswitch-enum covers every enum, so a
// switch that treats several enumerators alike lists them as
// fall-through cases.
namespace scap::kernel {

enum class Verdict { kStored, kDropped, kIgnored };
enum class LocalPhase { kWarmup, kSteady, kDrain };

int exhaustive(Verdict v) {
  switch (v) {
    case Verdict::kStored:
      return 1;
    case Verdict::kDropped:
      return 2;
    case Verdict::kIgnored:
      return 3;
  }
  return 0;
}

int steady(LocalPhase p) {
  switch (p) {
    case LocalPhase::kSteady:
      return 1;
    case LocalPhase::kWarmup:
    case LocalPhase::kDrain:
      return 0;
  }
  return 0;
}

}  // namespace scap::kernel
