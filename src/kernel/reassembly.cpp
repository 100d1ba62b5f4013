#include "kernel/reassembly.hpp"

#include <algorithm>
#include <cstring>

namespace scap::kernel {

// --- ChunkBuilder -----------------------------------------------------------

ChunkBuilder::ChunkBuilder(std::uint32_t chunk_size, std::uint32_t overlap_size,
                           bool record_packets, ChunkAllocator* buffers)
    : chunk_size_(chunk_size ? chunk_size : 1),
      overlap_size_(overlap_size),
      record_packets_(record_packets),
      buffers_(buffers) {}

void ChunkBuilder::reset(std::uint32_t chunk_size, std::uint32_t overlap_size,
                         bool record_packets, ChunkAllocator* buffers) {
  chunk_size_ = chunk_size ? chunk_size : 1;
  overlap_size_ = overlap_size;
  record_packets_ = record_packets;
  // Buffers go back to the allocator they came from before rebinding.
  drop(current_);
  current_started_ = false;
  pending_errors_ = 0;
  if (retained_) drop(*retained_);
  retained_.reset();
  completed_.clear();
  buffers_ = buffers;
}

void ChunkBuilder::drop(Chunk& chunk) {
  if (buffers_ != nullptr) {
    buffers_->recycle(chunk.data);
    buffers_->recycle(chunk.packets);
  }
  chunk = Chunk{};
}

void ChunkBuilder::put(std::vector<std::uint8_t>& dst,
                       std::span<const std::uint8_t> src) {
  const std::size_t need = dst.size() + src.size();
  if (buffers_ != nullptr && need > dst.capacity()) {
    // Climb to the class that fits: take its buffer, move the bytes over
    // and hand the outgrown one back — vector doubling without malloc.
    std::vector<std::uint8_t> bigger = buffers_->take_bytes(need);
    // scap-lint: allow(hot-alloc) copy into a buffer taken with room for it: never reallocates
    bigger.insert(bigger.end(), dst.begin(), dst.end());
    buffers_->recycle(dst);
    dst = std::move(bigger);
  }
  // scap-lint: allow(hot-alloc) THE chunk-payload copy: with an allocator the buffer was sized above and never reallocates; standalone builders grow it like any vector
  dst.insert(dst.end(), src.begin(), src.end());
}

Chunk ChunkBuilder::take_current() {
  Chunk out = std::move(current_);
  out.errors |= pending_errors_;
  pending_errors_ = 0;
  current_ = Chunk{};
  current_started_ = false;
  if (!retained_) return out;
  // A kept chunk is delivered together with the one that just completed,
  // in a buffer of the class that fits both.
  Chunk merged = std::move(*retained_);
  retained_.reset();
  merged.errors |= out.errors;
  const auto shift = static_cast<std::uint32_t>(merged.data.size());
  put(merged.data, out.data);
  for (auto& rec : out.packets) {
    rec.chunk_offset += shift;
    // scap-lint: allow(hot-alloc) per-packet records of a kept chunk, only when need_pkts is on (DESIGN.md §14 inventory)
    merged.packets.push_back(rec);
  }
  drop(out);
  return merged;
}

void ChunkBuilder::start_next(const Chunk& completed) {
  // Seed the next chunk with the overlap tail of the completed one.
  if (overlap_size_ == 0 || completed.data.empty()) return;
  const std::uint32_t tail =
      std::min<std::uint32_t>(overlap_size_,
                              static_cast<std::uint32_t>(completed.data.size()));
  put(current_.data, std::span<const std::uint8_t>(completed.data).last(tail));
  current_.overlap_len = tail;
  current_.stream_offset =
      completed.stream_offset + completed.data.size() - tail;
  current_started_ = true;
}

void ChunkBuilder::complete(Chunk&& done) {
  // scap-lint: allow(hot-alloc) completed-chunk hand-off vector: one per ChunkAllocator (kernel), keeping its capacity across calls, so it grows only until it fits the most chunks one call completes
  handoff().push_back(std::move(done));
}

std::span<Chunk> ChunkBuilder::append(std::span<const std::uint8_t> data,
                                      const SegmentMeta& meta,
                                      std::uint64_t stream_off) {
  handoff().clear();
  fill(data, meta, stream_off);
  return handoff();
}

void ChunkBuilder::fill(std::span<const std::uint8_t> data,
                        const SegmentMeta& meta, std::uint64_t stream_off) {
  std::size_t consumed = 0;
  while (consumed < data.size()) {
    if (!current_started_) {
      current_.stream_offset = stream_off + consumed;
      current_.first_ts = meta.ts;
      current_started_ = true;
    } else if (current_.first_ts.ns() == 0) {
      // Overlap-seeded chunks start with repeated bytes; the latency clock
      // starts with the first segment that contributes new data.
      current_.first_ts = meta.ts;
    }
    const std::uint32_t room =
        chunk_size_ > current_.data.size()
            ? chunk_size_ - static_cast<std::uint32_t>(current_.data.size())
            : 0;
    const std::size_t take = std::min<std::size_t>(room, data.size() - consumed);
    if (take > 0) {
      if (record_packets_) {
        PacketRecord rec;
        rec.ts = meta.ts;
        rec.chunk_offset = static_cast<std::uint32_t>(current_.data.size());
        rec.caplen = static_cast<std::uint32_t>(take);
        rec.wirelen = meta.wire_payload;
        rec.seq = meta.seq_raw + static_cast<std::uint32_t>(consumed);
        rec.tcp_flags = meta.tcp_flags;
        if (buffers_ != nullptr && current_.packets.capacity() == 0) {
          current_.packets = buffers_->take_records();
        }
        // scap-lint: allow(hot-alloc) per-packet record append (need_pkts): record vectors are recycled with their capacity, so this grows only until they fit the most packets a chunk holds (DESIGN.md §14 inventory)
        current_.packets.push_back(rec);
      }
      put(current_.data, data.subspan(consumed, take));
      consumed += take;
    }
    if (current_.data.size() >= chunk_size_) {
      Chunk done = take_current();
      start_next(done);
      complete(std::move(done));
    }
  }
}

std::optional<Chunk> ChunkBuilder::flush() {
  if (!has_data()) {
    // Nothing buffered; still surface pending errors if a chunk-less error
    // needs reporting (caller decides what to do with nullopt).
    return std::nullopt;
  }
  // A pure-overlap chunk (only the repeated tail) carries no new bytes.
  if (current_.data.size() == current_.overlap_len && !retained_) {
    drop(current_);
    current_started_ = false;
    return std::nullopt;
  }
  // No overlap seeding after an explicit flush: the next data starts clean.
  return take_current();
}

void ChunkBuilder::retain(Chunk&& kept) { retained_ = std::move(kept); }

// --- TcpReassembler ---------------------------------------------------------

TcpReassembler::TcpReassembler(const StreamParams& params, bool record_packets,
                               std::uint64_t max_ooo_bytes,
                               ChunkAllocator* buffers)
    : mode_(params.mode),
      policy_(params.policy),
      max_ooo_bytes_(max_ooo_bytes),
      builder_(params.chunk_size, params.overlap_size, record_packets,
               buffers) {}

void TcpReassembler::reset(const StreamParams& params, bool record_packets,
                           std::uint64_t max_ooo_bytes,
                           ChunkAllocator* buffers) {
  mode_ = params.mode;
  policy_ = params.policy;
  max_ooo_bytes_ = max_ooo_bytes;
  builder_.reset(params.chunk_size, params.overlap_size, record_packets,
                 buffers);
  ooo_.clear();
  have_base_ = false;
  base_raw_ = 0;
  next_off_ = 0;
}

void TcpReassembler::on_syn(std::uint32_t isn) {
  if (have_base_) return;  // retransmitted SYN
  base_raw_ = isn + 1;     // data begins one past the ISN
  have_base_ = true;
}

std::optional<std::uint64_t> TcpReassembler::offset_of(std::uint32_t seq) const {
  if (!have_base_) return std::nullopt;
  const std::uint32_t expected_raw =
      base_raw_ + static_cast<std::uint32_t>(next_off_);
  const auto delta = static_cast<std::int32_t>(seq - expected_raw);
  const std::int64_t off = static_cast<std::int64_t>(next_off_) + delta;
  return off < 0 ? 0 : static_cast<std::uint64_t>(off);
}

void TcpReassembler::deliver(std::span<const std::uint8_t> data,
                             const SegmentMeta& meta, Result& result) {
  builder_.fill(data, meta, next_off_);
  result.accepted_bytes += data.size();
  next_off_ += data.size();
  result.completed = builder_.handoff();
}

void TcpReassembler::drain_ooo(const SegmentMeta& meta, Result& result) {
  while (auto run = ooo_.pop_contiguous(next_off_)) {
    builder_.fill(*run, meta, next_off_);
    next_off_ += run->size();
  }
  result.completed = builder_.handoff();
}

void TcpReassembler::force_deliver_ooo(const SegmentMeta& meta,
                                       Result& result) {
  // Adversarial hole-flood: fall back to best-effort, flagging the gap.
  while (ooo_.buffered_bytes() > max_ooo_bytes_ / 2) {
    auto seg = ooo_.pop_front();
    if (!seg) break;
    if (seg->first > next_off_) {
      builder_.flag_error(kErrHole);
      result.errors |= kErrHole;
      next_off_ = seg->first;
    }
    std::span<const std::uint8_t> bytes(seg->second);
    if (seg->first < next_off_) {
      const std::uint64_t skip = next_off_ - seg->first;
      if (skip >= bytes.size()) continue;
      bytes = bytes.subspan(skip);
    }
    builder_.fill(bytes, meta, next_off_);
    next_off_ += bytes.size();
  }
  result.completed = builder_.handoff();
}

TcpReassembler::Result TcpReassembler::on_data(
    std::uint32_t seq, std::span<const std::uint8_t> payload,
    const SegmentMeta& meta) {
  Result result;
  builder_.handoff().clear();
  if (payload.empty()) return result;

  if (!have_base_) {
    // Mid-flow pickup: anchor stream offset 0 at this segment.
    base_raw_ = seq;
    have_base_ = true;
  }

  const std::uint32_t expected_raw =
      base_raw_ + static_cast<std::uint32_t>(next_off_);
  const auto delta = static_cast<std::int32_t>(seq - expected_raw);
  std::int64_t off = static_cast<std::int64_t>(next_off_) + delta;
  std::span<const std::uint8_t> data = payload;

  // Reject segments absurdly far from the window (likely corruption or an
  // injection attempt).
  constexpr std::int64_t kMaxJump = 1LL << 30;
  if (off < -kMaxJump || off > static_cast<std::int64_t>(next_off_) + kMaxJump) {
    result.errors |= kErrInvalidSeq;
    builder_.flag_error(kErrInvalidSeq);
    return result;
  }

  // Trim bytes that precede already-delivered data (retransmission or
  // overlap with delivered bytes: first copy wins — it is already out).
  if (off < static_cast<std::int64_t>(next_off_)) {
    const std::uint64_t skip = next_off_ - static_cast<std::uint64_t>(off);
    if (skip >= data.size()) {
      result.dup_bytes += data.size();
      return result;  // fully duplicate
    }
    result.dup_bytes += skip;
    data = data.subspan(skip);
    off = static_cast<std::int64_t>(next_off_);
  }

  const auto uoff = static_cast<std::uint64_t>(off);
  if (mode_ == ReassemblyMode::kTcpFast) {
    if (uoff > next_off_) {
      // Hole: write through without waiting (best-effort mode). The skipped
      // bytes are simply absent; flag the chunk.
      builder_.flag_error(kErrHole);
      result.errors |= kErrHole;
      next_off_ = uoff;
    }
    deliver(data, meta, result);
    return result;
  }

  // Strict mode.
  if (uoff == next_off_) {
    deliver(data, meta, result);
    drain_ooo(meta, result);
    return result;
  }
  auto ins = ooo_.insert(uoff, data, policy_);
  if (ins.failed) {
    // Buffer allocation failed: the segment is lost, leaving a hole the
    // stream's consumer learns about through the overflow flag. The store
    // itself is untouched, so already-buffered data stays deliverable.
    result.alloc_failed = true;
    result.errors |= kErrBufferOverflow;
    builder_.flag_error(kErrBufferOverflow);
    return result;
  }
  result.accepted_bytes += ins.new_bytes;
  result.dup_bytes += ins.dup_bytes;
  if (ins.conflict) {
    result.errors |= kErrOverlapConflict;
    builder_.flag_error(kErrOverlapConflict);
  }
  if (ooo_.buffered_bytes() > max_ooo_bytes_) {
    result.errors |= kErrBufferOverflow;
    builder_.flag_error(kErrBufferOverflow);
    force_deliver_ooo(meta, result);
  }
  return result;
}

TcpReassembler::Result TcpReassembler::on_datagram(
    std::span<const std::uint8_t> payload, const SegmentMeta& meta) {
  Result result;
  builder_.handoff().clear();
  if (payload.empty()) return result;
  if (!have_base_) have_base_ = true;
  deliver(payload, meta, result);
  return result;
}

std::span<Chunk> TcpReassembler::flush(std::uint32_t error_bits) {
  builder_.handoff().clear();
  if (mode_ == ReassemblyMode::kTcpStrict && !ooo_.empty()) {
    // Deliver whatever is buffered, flagging holes.
    SegmentMeta meta{};
    while (auto seg = ooo_.pop_front()) {
      if (seg->first > next_off_) {
        builder_.flag_error(kErrHole);
        next_off_ = seg->first;
      }
      std::span<const std::uint8_t> bytes(seg->second);
      if (seg->first < next_off_) {
        const std::uint64_t skip = next_off_ - seg->first;
        if (skip >= bytes.size()) continue;
        bytes = bytes.subspan(skip);
      }
      builder_.fill(bytes, meta, next_off_);
      next_off_ += bytes.size();
    }
  }
  if (error_bits) builder_.flag_error(error_bits);
  if (auto last = builder_.flush()) builder_.complete(std::move(*last));
  return builder_.handoff();
}

}  // namespace scap::kernel
