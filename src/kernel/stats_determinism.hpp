// Types behind the KernelStats counter table (stats_determinism.inc,
// DESIGN.md §9, §15): how a row combines across shards, which C++ type its
// cell has, and how its value relates to the input trace.
#pragma once

#include <cstdint>
#include <string_view>

namespace scap::kernel {

struct KernelStats;

enum class StatDeterminism {
  kDeterministic,        // pure function of the input trace + config
  kShardGeometry,        // worker-count/allocation-pattern dependent
  kSchedulingDependent,  // thread-interleaving dependent at fixed config
};

/// How KernelStats::merge() folds one shard's cell into the aggregate.
enum class StatCombine {
  kSum,        // counters: add
  kMax,        // peaks: keep the larger
  kOr,         // 0/1 flags: set when either side is set
  kMinActive,  // cutoffs: tightest value >= 0; -1 means none active
};

/// Cell type and initial value of a row with combine rule C.
template <StatCombine C>
struct StatCell {
  using type = std::uint64_t;
  static constexpr type kInit = 0;
};
template <>
struct StatCell<StatCombine::kMinActive> {
  using type = std::int64_t;
  static constexpr type kInit = -1;
};

template <StatCombine C, typename T>
constexpr void combine_cell(T& into, T v) {
  if constexpr (C == StatCombine::kSum) {
    into += v;
  } else if constexpr (C == StatCombine::kMax) {
    if (v > into) into = v;
  } else if constexpr (C == StatCombine::kOr) {
    if (v != 0) into = 1;
  } else {
    if (v >= 0 && (into < 0 || v < into)) into = v;
  }
}

/// Copy of `s` with every field the table classifies as kShardGeometry or
/// kSchedulingDependent zeroed: what remains is the part of a snapshot that
/// must be bit-identical across worker counts and thread schedules.
/// Defined beside KernelStats::merge() in module.cpp.
KernelStats normalized(KernelStats s);

/// Determinism class of a trace::MetricsRegistry histogram by name.
constexpr StatDeterminism metric_hist_class(std::string_view name) {
#define SCAP_METRIC_HIST(hist, determinism) \
  if (name == #hist) return StatDeterminism::determinism;
#include "kernel/stats_determinism.inc"
  return StatDeterminism::kDeterministic;
}

}  // namespace scap::kernel
