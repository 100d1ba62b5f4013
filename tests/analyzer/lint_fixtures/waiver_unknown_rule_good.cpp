// Good twin for the waiver discipline: a waiver naming a rule another
// tool owns (hot-alloc, tools/scap_callgraph.py) is left to that tool —
// it audits whether the waiver still suppresses anything. Zero findings
// from scap_lint.
namespace scap {

// scap-lint: allow(hot-alloc) the staging buffer is allocated once per stream
int* grow() { return new int[64]; }

}  // namespace scap
