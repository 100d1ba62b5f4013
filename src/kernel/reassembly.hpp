// Chunk building and TCP stream reassembly (paper §2.3, §5.2).
//
// The reassembler turns a directional sequence of TCP segments into
// contiguous stream chunks:
//   - SCAP_TCP_FAST: best-effort. Data is written as it arrives; holes from
//     lost segments are skipped and flagged (kErrHole) instead of stalling
//     the stream — the overload-resilient mode the paper evaluates with.
//   - SCAP_TCP_STRICT: in-order delivery following the robust-reassembly
//     guidelines. Out-of-order segments are buffered in a SegmentStore and
//     released when the hole before them fills; overlap resolution follows
//     the stream's target-based OverlapPolicy. A bounded buffer protects
//     against adversarial hole-floods: on overflow the engine degrades to
//     best-effort delivery and flags kErrBufferOverflow.
//
// Chunks carry optional per-packet records so the original packets can be
// re-delivered in capture order (paper §5.7).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "base/hotpath.hpp"
#include "kernel/memory.hpp"
#include "kernel/segment_store.hpp"
#include "kernel/stream.hpp"

namespace scap::kernel {

/// Per-packet metadata threaded through to PacketRecords.
struct SegmentMeta {
  Timestamp ts;
  std::uint32_t seq_raw = 0;
  std::uint8_t tcp_flags = 0;
  std::uint32_t wire_payload = 0;
};

/// Accumulates delivered bytes into fixed-size chunks with overlap carry.
///
/// With a ChunkAllocator the chunk buffers come from its size-class free
/// lists and every buffer the builder drops goes back to them; without one
/// (standalone reassemblers) they come from and return to the heap.
/// Completed chunks are handed off through a hand-off vector whose
/// capacity persists: the allocator's, shared by every builder bound to
/// it, or the builder's own when it has none. The returned spans stay
/// valid until the next append() or flush() on a builder sharing that
/// vector (or call on its reassembler).
class ChunkBuilder {
 public:
  ChunkBuilder(std::uint32_t chunk_size, std::uint32_t overlap_size,
               bool record_packets, ChunkAllocator* buffers = nullptr);

  /// Reconfigure for a fresh stream (record-pool recycling), dropping all
  /// buffered state, and bind to `buffers`.
  void reset(std::uint32_t chunk_size, std::uint32_t overlap_size,
             bool record_packets, ChunkAllocator* buffers);

  /// Append delivered bytes; returns the chunks that filled up.
  std::span<Chunk> append(std::span<const std::uint8_t> data,
                          const SegmentMeta& meta, std::uint64_t stream_off);

  /// Raise error bits on the chunk currently being built.
  void flag_error(std::uint32_t bits) { pending_errors_ |= bits; }

  /// Emit the current partial chunk (flush timeout, cutoff, termination).
  /// Returns nullopt when nothing is buffered.
  std::optional<Chunk> flush();

  /// Re-install a delivered chunk in front of future data
  /// (scap_keep_stream_chunk): the next completed chunk will contain it.
  void retain(Chunk&& kept);

  std::uint32_t buffered_len() const {
    return static_cast<std::uint32_t>(current_.data.size());
  }
  bool has_data() const { return !current_.data.empty() || retained_.has_value(); }
  std::uint32_t chunk_size() const { return chunk_size_; }
  void set_chunk_size(std::uint32_t s) { chunk_size_ = s ? s : 1; }
  void set_overlap_size(std::uint32_t s) { overlap_size_ = s; }

 private:
  friend class TcpReassembler;

  /// append() without forgetting the chunks earlier calls completed: the
  /// reassembler collects one segment's chunks across several fills.
  void fill(std::span<const std::uint8_t> data, const SegmentMeta& meta,
            std::uint64_t stream_off);
  /// The hand-off vector: the allocator's when bound to one, else own.
  std::vector<Chunk>& handoff() {
    return buffers_ != nullptr ? buffers_->handoff() : completed_;
  }
  /// Hand a finished chunk off through the hand-off vector.
  void complete(Chunk&& done);
  Chunk take_current();
  void start_next(const Chunk& completed);
  /// Copy `src` to the end of `dst`, first moving `dst` to a buffer of the
  /// class that fits the result when it has outgrown its own.
  void put(std::vector<std::uint8_t>& dst, std::span<const std::uint8_t> src);
  /// Hand a chunk's buffers back to where they came from.
  void drop(Chunk& chunk);

  std::uint32_t chunk_size_;
  std::uint32_t overlap_size_;
  bool record_packets_;
  ChunkAllocator* buffers_;
  Chunk current_;
  bool current_started_ = false;
  std::uint32_t pending_errors_ = 0;
  std::optional<Chunk> retained_;
  std::vector<Chunk> completed_;  // hand-off vector while unbound
};

/// One direction of a TCP (or UDP) stream.
class TcpReassembler {
 public:
  static constexpr std::uint64_t kDefaultMaxOooBytes = 256 * 1024;

  /// `buffers` (optional) supplies and takes back the chunk buffers; the
  /// kernel passes its ChunkAllocator.
  TcpReassembler(const StreamParams& params, bool record_packets,
                 std::uint64_t max_ooo_bytes = kDefaultMaxOooBytes,
                 ChunkAllocator* buffers = nullptr);
  /// Default stream parameters, no allocator: the state a record slot's
  /// reassembler holds before its first stream resets it.
  TcpReassembler() : TcpReassembler(StreamParams{}, false) {}

  /// Reinitialize for a fresh stream (record-pool recycling): equivalent to
  /// destroying and reconstructing with the same arguments, but reuses
  /// grown internal buffers so steady-state stream churn allocates nothing.
  void reset(const StreamParams& params, bool record_packets,
             std::uint64_t max_ooo_bytes = kDefaultMaxOooBytes,
             ChunkAllocator* buffers = nullptr);

  struct Result {
    /// Chunks this segment completed, in the builder's hand-off vector: valid
    /// until the next call on this reassembler, or on any other bound to
    /// the same ChunkAllocator.
    std::span<Chunk> completed;
    std::uint64_t accepted_bytes = 0;  // written to a chunk or buffered
    std::uint64_t dup_bytes = 0;       // duplicate / overlap-losing bytes
    std::uint32_t errors = 0;          // error bits raised by this segment
    bool alloc_failed = false;         // segment lost to a failed allocation
  };

  /// Record the SYN's ISN: stream data starts at ISN+1.
  void on_syn(std::uint32_t isn);

  /// Process one data segment (TCP path).
  SCAP_HOT Result on_data(std::uint32_t seq,
                          std::span<const std::uint8_t> payload,
                          const SegmentMeta& meta);

  /// Process sequenced-less data (UDP path): straight append.
  SCAP_HOT Result on_datagram(std::span<const std::uint8_t> payload,
                              const SegmentMeta& meta);

  /// Flush buffered out-of-order data (strict mode) and the partial chunk.
  /// `error_bits` is OR-ed into the final chunk (e.g. at termination).
  /// May return multiple chunks when the out-of-order buffer held more than
  /// one chunk's worth of data. Valid as long as Result::completed.
  std::span<Chunk> flush(std::uint32_t error_bits = 0);

  /// Highest stream offset delivered or skipped so far — the stream "size"
  /// used for cutoff decisions.
  std::uint64_t stream_offset() const { return next_off_; }

  /// Stream offset a raw TCP sequence number maps to (for PPL / cutoff
  /// decisions before reassembly). Returns nullopt before any base is known.
  std::optional<std::uint64_t> offset_of(std::uint32_t seq) const;

  ChunkBuilder& builder() { return builder_; }
  std::uint64_t ooo_buffered() const { return ooo_.buffered_bytes(); }

 private:
  void deliver(std::span<const std::uint8_t> data, const SegmentMeta& meta,
               Result& result);
  void drain_ooo(const SegmentMeta& meta, Result& result);
  void force_deliver_ooo(const SegmentMeta& meta, Result& result);

  ReassemblyMode mode_;
  OverlapPolicy policy_;
  std::uint64_t max_ooo_bytes_;
  ChunkBuilder builder_;
  SegmentStore ooo_;
  bool have_base_ = false;
  std::uint32_t base_raw_ = 0;  // raw seq of stream offset 0
  std::uint64_t next_off_ = 0;  // next expected stream offset
};

}  // namespace scap::kernel
