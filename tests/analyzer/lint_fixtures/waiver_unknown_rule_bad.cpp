// Bad twin for the waiver discipline: waivers naming rules that no tool
// owns. These three rules were retired (their checks moved to the
// compiler and the call-graph tool), so a waiver naming one of them
// suppresses nothing anywhere and would never be audited as stale.
namespace scap {

// expect-next-line: waiver
// scap-lint: allow(hot-path-alloc) the staging map is reserved up front
int* grow() { return new int[64]; }

enum class Phase { kWarmup, kSteady };

int weight(Phase p) {
  // expect-next-line: waiver
  switch (p) {  // scap-lint: allow(switch-exhaustive) only two phases
    case Phase::kWarmup:
      return 0;
    case Phase::kSteady:
      return 1;
  }
  return 0;
}

// expect-next-line: waiver
// scap-lint: allow(spsc-discipline) single producer by construction
void produce() {}

}  // namespace scap
