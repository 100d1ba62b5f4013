#include "kernel/module.hpp"

#include <gtest/gtest.h>

#include <string>

#include "tests/kernel/test_helpers.hpp"

namespace scap::kernel {
namespace {

using testing::SessionBuilder;
using testing::bytes_of;
using testing::client_tuple;

KernelConfig small_config() {
  KernelConfig cfg;
  cfg.memory_size = 1 << 20;
  cfg.defaults.chunk_size = 64;
  cfg.defaults.inactivity_timeout = Duration::from_sec(10);
  return cfg;
}

/// Drains every event from a kernel core queue, releasing chunk memory.
/// Release empties an event's chunk, so the copy is taken first.
std::vector<Event> drain(ScapKernel& k, int core = 0) {
  std::vector<Event> events;
  auto& q = k.events(core);
  while (!q.empty()) {
    Event ev = q.pop();
    events.push_back(ev);
    k.release_chunk(ev);
  }
  return events;
}

std::string chunk_text(const Event& ev) {
  return std::string(ev.chunk.data.begin(), ev.chunk.data.end());
}

TEST(ScapKernelTest, FullSessionLifecycle) {
  ScapKernel k(small_config());
  testing::KernelInvariantGuard guard(k);
  SessionBuilder s;
  Timestamp t(0);

  auto out = k.handle_packet(s.syn(t), t);
  EXPECT_TRUE(out.created_stream);
  EXPECT_EQ(out.verdict, Verdict::kControl);

  k.handle_packet(s.syn_ack(t), t);
  k.handle_packet(s.ack(t), t);
  out = k.handle_packet(s.data("GET / HTTP/1.1\r\n", t), t);
  EXPECT_EQ(out.verdict, Verdict::kStored);
  EXPECT_EQ(out.stored_bytes, 16u);

  out = k.handle_packet(s.fin(t), t);
  EXPECT_TRUE(out.terminated_stream);

  auto events = drain(k);
  // created(orig) + created(reply) + data flush + terminated(orig).
  int created = 0, data = 0, term = 0;
  for (const auto& ev : events) {
    switch (ev.type) {
      case EventType::kCreated: ++created; break;
      case EventType::kData: ++data; break;
      case EventType::kTerminated: ++term; break;
    }
  }
  EXPECT_EQ(created, 2);
  EXPECT_EQ(data, 1);
  EXPECT_EQ(term, 1);
  for (const auto& ev : events) {
    if (ev.type == EventType::kData) {
      EXPECT_EQ(chunk_text(ev), "GET / HTTP/1.1\r\n");
      EXPECT_EQ(ev.stream.status, StreamStatus::kClosedFin);
    }
  }
  // All chunk memory returned after the drain.
  EXPECT_EQ(k.allocator().used(), 0u);
}

TEST(ScapKernelTest, HandshakeEstablishedTracked) {
  ScapKernel k(small_config());
  testing::KernelInvariantGuard guard(k);
  SessionBuilder s;
  Timestamp t(0);
  k.handle_packet(s.syn(t), t);
  k.handle_packet(s.syn_ack(t), t);
  k.handle_packet(s.ack(t), t);
  k.handle_packet(s.data("x", t), t);
  StreamRecord* rec = k.table().find(s.tuple());
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->handshake, HandshakeState::kEstablished);
  EXPECT_EQ(rec->error_bits & kErrIncompleteHandshake, 0u);
}

TEST(ScapKernelTest, MidFlowDataFlagsIncompleteHandshake) {
  ScapKernel k(small_config());
  testing::KernelInvariantGuard guard(k);
  SessionBuilder s;
  Timestamp t(0);
  k.handle_packet(s.data("no handshake", t), t);
  StreamRecord* rec = k.table().find(s.tuple());
  ASSERT_NE(rec, nullptr);
  EXPECT_NE(rec->error_bits & kErrIncompleteHandshake, 0u);
}

TEST(ScapKernelTest, RstTerminatesBothDirections) {
  ScapKernel k(small_config());
  testing::KernelInvariantGuard guard(k);
  SessionBuilder s;
  Timestamp t(0);
  k.handle_packet(s.syn(t), t);
  k.handle_packet(s.syn_ack(t), t);
  k.handle_packet(s.data("up", t), t);
  k.handle_packet(s.reply_data("down", t), t);
  EXPECT_EQ(k.table().size(), 2u);
  k.handle_packet(s.rst(t), t);
  EXPECT_EQ(k.table().size(), 0u);
  EXPECT_EQ(k.stats().streams_terminated, 2u);
}

TEST(ScapKernelTest, PureAckForUnknownStreamIgnored) {
  ScapKernel k(small_config());
  testing::KernelInvariantGuard guard(k);
  SessionBuilder s;
  auto out = k.handle_packet(s.ack(Timestamp(0)), Timestamp(0));
  EXPECT_EQ(out.verdict, Verdict::kIgnored);
  EXPECT_EQ(k.table().size(), 0u);
}

TEST(ScapKernelTest, BpfFilterDiscardsEarly) {
  KernelConfig cfg = small_config();
  cfg.filter = BpfProgram::compile("port 443");
  ScapKernel k(cfg);
  testing::KernelInvariantGuard guard(k);
  SessionBuilder s;  // port 80
  auto out = k.handle_packet(s.syn(Timestamp(0)), Timestamp(0));
  EXPECT_EQ(out.verdict, Verdict::kFilteredBpf);
  EXPECT_EQ(k.table().size(), 0u);
  EXPECT_EQ(k.stats().pkts_filtered, 1u);
}

TEST(ScapKernelTest, CutoffTruncatesStream) {
  KernelConfig cfg = small_config();
  cfg.defaults.cutoff_bytes = 10;
  ScapKernel k(cfg);
  testing::KernelInvariantGuard guard(k);
  SessionBuilder s;
  Timestamp t(0);
  k.handle_packet(s.syn(t), t);
  k.handle_packet(s.syn_ack(t), t);
  auto out = k.handle_packet(s.data("0123456789ABCDEF", t), t);  // 16 bytes
  EXPECT_EQ(out.verdict, Verdict::kStored);
  EXPECT_EQ(out.stored_bytes, 10u);  // trimmed to the cutoff

  StreamRecord* rec = k.table().find(s.tuple());
  ASSERT_NE(rec, nullptr);
  EXPECT_TRUE(rec->cutoff_exceeded);

  // Subsequent data is discarded in the kernel.
  out = k.handle_packet(s.data("more data", t), t);
  EXPECT_EQ(out.verdict, Verdict::kCutoffDiscard);
  EXPECT_EQ(k.stats().pkts_cutoff, 1u);

  // The stream record still tracks the flow for statistics.
  EXPECT_EQ(rec->stats.pkts, 3u);  // syn + 2 data
  k.handle_packet(s.fin(t), t);
  auto events = drain(k);
  bool found_final = false;
  for (const auto& ev : events) {
    if (ev.type == EventType::kData) {
      EXPECT_EQ(chunk_text(ev), "0123456789");
      found_final = true;
    }
  }
  EXPECT_TRUE(found_final);
}

TEST(ScapKernelTest, ZeroCutoffDiscardsAllData) {
  KernelConfig cfg = small_config();
  cfg.defaults.cutoff_bytes = 0;
  ScapKernel k(cfg);
  testing::KernelInvariantGuard guard(k);
  SessionBuilder s;
  Timestamp t(0);
  k.handle_packet(s.syn(t), t);
  auto out = k.handle_packet(s.data("payload", t), t);
  EXPECT_EQ(out.verdict, Verdict::kCutoffDiscard);
  k.handle_packet(s.fin(t), t);
  for (const auto& ev : drain(k)) {
    EXPECT_NE(ev.type, EventType::kData);
    if (ev.type == EventType::kTerminated) {
      // Flow statistics survive even with all data discarded (§3.3.1).
      EXPECT_EQ(ev.stream.stats.bytes, 7u);
      EXPECT_GE(ev.stream.stats.pkts, 3u);
    }
  }
  EXPECT_EQ(k.allocator().used(), 0u);
}

TEST(ScapKernelTest, CutoffClassOverridesDefault) {
  KernelConfig cfg = small_config();
  cfg.defaults.cutoff_bytes = -1;
  CutoffClass cls;
  cls.filter = BpfProgram::compile("port 80");
  cls.cutoff_bytes = 4;
  cfg.cutoff_classes.push_back(std::move(cls));
  ScapKernel k(cfg);
  testing::KernelInvariantGuard guard(k);

  SessionBuilder web(client_tuple(40000, 80));
  SessionBuilder other(client_tuple(40001, 9999));
  Timestamp t(0);
  k.handle_packet(web.syn(t), t);
  k.handle_packet(web.data("0123456789", t), t);
  k.handle_packet(other.syn(t), t);
  k.handle_packet(other.data("0123456789", t), t);

  EXPECT_TRUE(k.table().find(web.tuple())->cutoff_exceeded);
  EXPECT_FALSE(k.table().find(other.tuple())->cutoff_exceeded);
}

TEST(ScapKernelTest, PerDirectionCutoff) {
  KernelConfig cfg = small_config();
  cfg.cutoff_per_dir[static_cast<int>(Direction::kOrig)] = 4;
  cfg.cutoff_per_dir[static_cast<int>(Direction::kReply)] = -1;
  ScapKernel k(cfg);
  testing::KernelInvariantGuard guard(k);
  SessionBuilder s;
  Timestamp t(0);
  k.handle_packet(s.syn(t), t);
  k.handle_packet(s.syn_ack(t), t);
  k.handle_packet(s.data("0123456789", t), t);
  k.handle_packet(s.reply_data("0123456789", t), t);
  EXPECT_TRUE(k.table().find(s.tuple())->cutoff_exceeded);
  EXPECT_FALSE(k.table().find(s.tuple().reversed())->cutoff_exceeded);
}

TEST(ScapKernelTest, FdirInstalledOnCutoffAndPassesFinRst) {
  nic::Nic nic(1);
  KernelConfig cfg = small_config();
  cfg.defaults.cutoff_bytes = 4;
  cfg.use_fdir = true;
  ScapKernel k(cfg, &nic);
  testing::KernelInvariantGuard guard(k);
  SessionBuilder s;
  Timestamp t(0);
  k.handle_packet(s.syn(t), t);
  k.handle_packet(s.data("0123456789", t), t);
  EXPECT_EQ(k.stats().fdir_installs, 1u);
  EXPECT_EQ(nic.fdir().size(), 2u);  // ACK and ACK|PSH filters

  // Data packets for this stream now die at the NIC...
  auto r = nic.receive(s.data("dropped at nic", t));
  EXPECT_EQ(r.disposition, nic::RxDisposition::kDroppedByFilter);
  // ...but FIN still reaches the host and removes the filters.
  Packet fin = s.fin(t);
  EXPECT_EQ(nic.receive(fin).disposition, nic::RxDisposition::kToQueue);
  k.handle_packet(fin, t);
  EXPECT_EQ(nic.fdir().size(), 0u);
}

TEST(ScapKernelTest, FdirTimeoutReinstallDoublesTimeout) {
  nic::Nic nic(1);
  KernelConfig cfg = small_config();
  cfg.defaults.cutoff_bytes = 4;
  cfg.use_fdir = true;
  cfg.fdir_base_timeout = Duration::from_sec(2);
  cfg.expiry_interval = Duration::from_msec(100);
  cfg.defaults.inactivity_timeout = Duration::from_sec(1000);
  ScapKernel k(cfg, &nic);
  testing::KernelInvariantGuard guard(k);
  SessionBuilder s;
  Timestamp t(0);
  k.handle_packet(s.syn(t), t);
  k.handle_packet(s.data("0123456789", t), t);
  ASSERT_EQ(nic.fdir().size(), 2u);

  // Let the filter time out.
  k.run_maintenance(Timestamp::from_sec(3));
  EXPECT_EQ(nic.fdir().size(), 0u);
  StreamRecord* rec = k.table().find(s.tuple());
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->fdir_expires.ns(), Timestamp::from_sec(2).ns());

  // The stream is still alive: its next packet re-installs with 2x timeout.
  k.handle_packet(s.data("still flowing", Timestamp::from_sec(4)),
                  Timestamp::from_sec(4));
  EXPECT_EQ(k.stats().fdir_reinstalls, 1u);
  EXPECT_EQ(nic.fdir().size(), 2u);
  EXPECT_EQ(rec->fdir_timeout.ns(), Duration::from_sec(4).ns());
}

// Idle expiry closes a stream through the same path as termination: its
// cutoff filters leave the NIC at the next maintenance tick, long before
// their own timeout.
TEST(ScapKernelTest, FdirIdleExpiryRemovesCutoffFilters) {
  nic::Nic nic(1);
  KernelConfig cfg = small_config();
  cfg.defaults.cutoff_bytes = 4;
  cfg.use_fdir = true;
  cfg.fdir_base_timeout = Duration::from_sec(100);
  ScapKernel k(cfg, &nic);
  testing::KernelInvariantGuard guard(k);
  SessionBuilder s;
  Timestamp t(0);
  k.handle_packet(s.syn(t), t);
  k.handle_packet(s.data("0123456789", t), t);
  ASSERT_EQ(nic.fdir().size(), 2u);

  k.run_maintenance(Timestamp::from_sec(20));  // past the 10 s idle timeout
  EXPECT_EQ(k.table().find(s.tuple()), nullptr);
  EXPECT_EQ(nic.fdir().size(), 0u);
  EXPECT_EQ(k.stats().fdir_removals, 2u);
  EXPECT_EQ(k.stats().check_conservation(), "");
  drain(k);
}

// A filter the NIC rejects stays in software: the cutoff still discards,
// each rejected filter is one install failure, and the stream retries only
// once the lifetime it asked for has passed.
TEST(ScapKernelTest, RejectedFdirInstallRetriedAfterLifetime) {
  nic::Nic nic(1, symmetric_rss_key(), /*fdir_capacity=*/0);
  KernelConfig cfg = small_config();
  cfg.defaults.cutoff_bytes = 4;
  cfg.use_fdir = true;
  cfg.fdir_base_timeout = Duration::from_sec(2);
  cfg.expiry_interval = Duration::from_sec(100);
  cfg.defaults.inactivity_timeout = Duration::from_sec(1000);
  ScapKernel k(cfg, &nic);
  testing::KernelInvariantGuard guard(k);
  SessionBuilder s;
  Timestamp t(0);
  k.handle_packet(s.syn(t), t);
  k.handle_packet(s.data("0123456789", t), t);
  EXPECT_EQ(k.stats().fdir_installs, 0u);
  EXPECT_EQ(k.stats().fdir_install_failures, 2u);

  // Inside the lifetime: discarded in software, no retry.
  const Timestamp t1 = Timestamp::from_sec(1);
  auto out = k.handle_packet(s.data("more", t1), t1);
  EXPECT_EQ(out.verdict, Verdict::kCutoffDiscard);
  EXPECT_EQ(k.stats().fdir_install_failures, 2u);

  // Past it: one retry as a re-install, rejected again.
  const Timestamp t2 = Timestamp::from_sec(2);
  out = k.handle_packet(s.data("more", t2), t2);
  EXPECT_EQ(out.verdict, Verdict::kCutoffDiscard);
  EXPECT_EQ(k.stats().fdir_reinstalls, 0u);
  EXPECT_EQ(k.stats().fdir_install_failures, 4u);
  EXPECT_EQ(nic.fdir().add_failures(), 4u);
  EXPECT_EQ(k.table().find(s.tuple())->fdir_timeout.ns(),
            Duration::from_sec(4).ns());
  drain(k);
}

// A kernel that does not own a NIC can only queue: once its outbox is full
// an install is dropped, both of its filters count as install failures, and
// the stream retries after the lifetime it asked for, like a rejection.
TEST(ScapKernelTest, FullFdirOutboxDropsInstallAndRetries) {
  KernelConfig cfg = small_config();
  cfg.memory_size = 8 << 20;
  cfg.defaults.cutoff_bytes = 4;
  cfg.use_fdir = true;
  cfg.fdir_base_timeout = Duration::from_sec(2);
  cfg.expiry_interval = Duration::from_sec(100);
  cfg.defaults.inactivity_timeout = Duration::from_sec(1000);
  ScapKernel k(cfg);
  testing::KernelInvariantGuard guard(k);
  ASSERT_NE(k.fdir_outbox(), nullptr);
  const Timestamp t(0);
  const std::size_t capacity = k.fdir_outbox()->capacity();
  std::vector<SessionBuilder> sessions;
  for (std::size_t i = 0; i <= capacity; ++i) {
    sessions.emplace_back(
        client_tuple(static_cast<std::uint16_t>(10000 + i)));
  }
  for (auto& s : sessions) {
    k.handle_packet(s.syn(t), t);
    k.handle_packet(s.data("0123456789", t), t);
    drain(k);
  }
  EXPECT_EQ(k.stats().fdir_install_failures, 2u);
  const StreamRecord* last = k.table().find(sessions.back().tuple());
  ASSERT_NE(last, nullptr);
  EXPECT_FALSE(last->fdir_installed);

  nic::Nic nic(1);
  FdirApplied applied = apply_fdir_commands(*k.fdir_outbox(), nic, t);
  EXPECT_EQ(applied.installs, capacity);
  EXPECT_EQ(applied.install_failures, 0u);
  EXPECT_EQ(nic.fdir().size(), 2 * capacity);

  const Timestamp t1 = Timestamp::from_sec(2);
  k.handle_packet(sessions.back().data("more", t1), t1);
  applied = apply_fdir_commands(*k.fdir_outbox(), nic, t1);
  EXPECT_EQ(applied.installs, 0u);
  EXPECT_EQ(applied.reinstalls, 1u);
  EXPECT_EQ(nic.fdir().size(), 2 * capacity + 2);
  drain(k);
}

TEST(ScapKernelTest, FinSeqEstimatesOffloadedFlowSize) {
  nic::Nic nic(1);
  KernelConfig cfg = small_config();
  cfg.defaults.cutoff_bytes = 4;
  cfg.use_fdir = true;
  ScapKernel k(cfg, &nic);
  testing::KernelInvariantGuard guard(k);
  SessionBuilder s;
  Timestamp t(0);
  k.handle_packet(s.syn(t), t);
  k.handle_packet(s.data("0123456789", t), t);  // cutoff; FDIR installed

  // 90 more bytes flow but are dropped at the NIC (we simply never hand
  // them to the kernel). The FIN carries the final sequence number.
  for (int i = 0; i < 9; ++i) s.data("0123456789", t);
  k.handle_packet(s.fin(t), t);

  bool checked = false;
  for (const auto& ev : drain(k)) {
    if (ev.type == EventType::kTerminated) {
      EXPECT_EQ(ev.stream.stats.bytes, 100u);  // estimated from FIN seq
      checked = true;
    }
  }
  EXPECT_TRUE(checked);
}

TEST(ScapKernelTest, PplDropsLowPriorityUnderMemoryPressure) {
  KernelConfig cfg = small_config();
  cfg.memory_size = 64 * 1024;
  cfg.defaults.chunk_size = 4096;
  cfg.ppl.base_threshold = 0.25;
  cfg.ppl.priority_levels = 2;
  ScapKernel k(cfg);
  testing::KernelInvariantGuard guard(k);
  Timestamp t(0);

  // Fill memory with HIGH-priority streams whose events we never consume
  // (high priority so the fill itself is not throttled by PPL).
  std::string block(4096, 'x');
  for (std::uint16_t i = 0; i < 15; ++i) {
    SessionBuilder s(client_tuple(static_cast<std::uint16_t>(20000 + i), 80));
    k.handle_packet(s.syn(t), t);
    StreamRecord* filler = k.table().find(s.tuple());
    ASSERT_NE(filler, nullptr);
    ASSERT_TRUE(k.set_stream_priority(filler->id, 1));
    k.handle_packet(s.data(block, t), t);
  }
  EXPECT_GT(k.allocator().used_fraction(), 0.9);

  // A low-priority data packet now drops; a high-priority one still fits
  // (it may need forced chunk completion, but PPL admits it).
  SessionBuilder low(client_tuple(30000, 80));
  k.handle_packet(low.syn(t), t);
  auto out = k.handle_packet(low.data("low prio data", t), t);
  EXPECT_EQ(out.verdict, Verdict::kPplDrop);
  EXPECT_GT(k.stats().pkts_ppl_dropped, 0u);

  SessionBuilder high(client_tuple(30001, 80));
  k.handle_packet(high.syn(t), t);
  StreamRecord* rec = k.table().find(high.tuple());
  ASSERT_NE(rec, nullptr);
  ASSERT_TRUE(k.set_stream_priority(rec->id, 1));
  out = k.handle_packet(high.data("high prio data", t), t);
  EXPECT_EQ(out.verdict, Verdict::kStored);
}

TEST(ScapKernelTest, ControlPacketsBypassPpl) {
  KernelConfig cfg = small_config();
  cfg.memory_size = 8 * 1024;
  cfg.defaults.chunk_size = 4096;
  cfg.ppl.base_threshold = 0.0;
  ScapKernel k(cfg);
  testing::KernelInvariantGuard guard(k);
  Timestamp t(0);
  std::string block(4096, 'x');
  SessionBuilder a(client_tuple(1000, 80));
  k.handle_packet(a.syn(t), t);
  k.handle_packet(a.data(block, t), t);
  k.handle_packet(a.data(block, t), t);
  // Memory is now full; a new SYN must still create a stream.
  SessionBuilder b(client_tuple(1001, 80));
  auto out = k.handle_packet(b.syn(t), t);
  EXPECT_TRUE(out.created_stream);
}

TEST(ScapKernelTest, InactivityTimeoutTerminatesStreams) {
  KernelConfig cfg = small_config();
  cfg.defaults.inactivity_timeout = Duration::from_sec(10);
  cfg.expiry_interval = Duration::from_sec(1);
  ScapKernel k(cfg);
  testing::KernelInvariantGuard guard(k);
  SessionBuilder s;
  Timestamp t(0);
  k.handle_packet(s.syn(t), t);
  k.handle_packet(s.data("hello", t), t);
  EXPECT_EQ(k.table().size(), 1u);

  // Another stream's packet 15 (virtual) seconds later triggers the scan.
  SessionBuilder other(client_tuple(50000, 80));
  k.handle_packet(other.syn(Timestamp::from_sec(15)), Timestamp::from_sec(15));
  EXPECT_EQ(k.table().find(s.tuple()), nullptr);

  bool term_seen = false;
  for (const auto& ev : drain(k)) {
    if (ev.type == EventType::kTerminated &&
        ev.stream.status == StreamStatus::kClosedTimeout) {
      term_seen = true;
      EXPECT_EQ(ev.stream.stats.bytes, 5u);
    }
  }
  EXPECT_TRUE(term_seen);
}

TEST(ScapKernelTest, UdpStreamsConcatenateAndExpire) {
  KernelConfig cfg = small_config();
  cfg.expiry_interval = Duration::from_sec(1);
  ScapKernel k(cfg);
  testing::KernelInvariantGuard guard(k);
  FiveTuple t5{0x0a000001, 0x0a000002, 5000, 53, kProtoUdp};
  Timestamp t(0);
  k.handle_packet(make_udp_packet(t5, bytes_of("query-1|"), t), t);
  k.handle_packet(make_udp_packet(t5, bytes_of("query-2|"), t), t);
  k.terminate_all(Timestamp::from_sec(60));
  std::string all;
  for (const auto& ev : drain(k)) {
    if (ev.type == EventType::kData) all += chunk_text(ev);
  }
  EXPECT_EQ(all, "query-1|query-2|");
}

TEST(ScapKernelTest, DiscardStreamStopsCollection) {
  ScapKernel k(small_config());
  testing::KernelInvariantGuard guard(k);
  SessionBuilder s;
  Timestamp t(0);
  k.handle_packet(s.syn(t), t);
  k.handle_packet(s.data("first", t), t);
  StreamRecord* rec = k.table().find(s.tuple());
  ASSERT_NE(rec, nullptr);
  EXPECT_TRUE(k.discard_stream(rec->id));
  auto out = k.handle_packet(s.data("second", t), t);
  EXPECT_EQ(out.verdict, Verdict::kCutoffDiscard);
}

TEST(ScapKernelTest, EvictionOnRecordBudgetKeepsNewestStreams) {
  KernelConfig cfg = small_config();
  cfg.max_streams = 100;
  ScapKernel k(cfg);
  testing::KernelInvariantGuard guard(k);
  Timestamp t(0);
  for (std::uint16_t i = 0; i < 300; ++i) {
    SessionBuilder s(client_tuple(static_cast<std::uint16_t>(1000 + i), 80));
    k.handle_packet(s.syn(Timestamp(i)), Timestamp(i));
  }
  EXPECT_EQ(k.table().size(), 100u);
  EXPECT_EQ(k.stats().streams_evicted, 200u);
  // The newest stream is still present.
  EXPECT_NE(k.table().find(client_tuple(1299, 80)), nullptr);
  EXPECT_EQ(k.table().find(client_tuple(1000, 80)), nullptr);
}

TEST(ScapKernelTest, MultiAppMaskFollowsFilters) {
  KernelConfig cfg = small_config();
  cfg.app_filters.push_back(BpfProgram::compile("port 80"));
  cfg.app_filters.push_back(BpfProgram::compile("port 443"));
  ScapKernel k(cfg);
  testing::KernelInvariantGuard guard(k);
  SessionBuilder web(client_tuple(40000, 80));
  Timestamp t(0);
  k.handle_packet(web.syn(t), t);
  k.handle_packet(web.data("http data", t), t);
  k.handle_packet(web.fin(t), t);
  for (const auto& ev : drain(k)) {
    EXPECT_EQ(ev.app_mask, 1u);  // only app 0 wants port 80
  }
}

TEST(ScapKernelTest, NeedPktsProducesPacketRecords) {
  KernelConfig cfg = small_config();
  cfg.need_pkts = true;
  ScapKernel k(cfg);
  testing::KernelInvariantGuard guard(k);
  SessionBuilder s;
  Timestamp t(0);
  k.handle_packet(s.syn(t), t);
  k.handle_packet(s.data("aaa", Timestamp::from_usec(10)),
                  Timestamp::from_usec(10));
  k.handle_packet(s.data("bbbb", Timestamp::from_usec(20)),
                  Timestamp::from_usec(20));
  k.handle_packet(s.fin(Timestamp::from_usec(30)), Timestamp::from_usec(30));
  for (const auto& ev : drain(k)) {
    if (ev.type != EventType::kData) continue;
    ASSERT_EQ(ev.chunk.packets.size(), 2u);
    EXPECT_EQ(ev.chunk.packets[0].caplen, 3u);
    EXPECT_EQ(ev.chunk.packets[0].ts.usec(), 10);
    EXPECT_EQ(ev.chunk.packets[1].chunk_offset, 3u);
    EXPECT_EQ(ev.chunk.packets[1].caplen, 4u);
  }
}

TEST(ScapKernelTest, StatsConsistency) {
  ScapKernel k(small_config());
  testing::KernelInvariantGuard guard(k);
  SessionBuilder s;
  Timestamp t(0);
  k.handle_packet(s.syn(t), t);
  k.handle_packet(s.syn_ack(t), t);
  k.handle_packet(s.ack(t), t);
  k.handle_packet(s.data("0123456789", t), t);
  k.handle_packet(s.fin(t), t);
  const auto& st = k.stats();
  EXPECT_EQ(st.pkts_seen, 5u);
  EXPECT_EQ(st.pkts_stored, 1u);
  EXPECT_EQ(st.bytes_stored, 10u);
  EXPECT_EQ(st.streams_created, 2u);
  EXPECT_EQ(st.streams_terminated, 1u);
}

TEST(ScapKernelTest, TerminateAllFlushesEverything) {
  ScapKernel k(small_config());
  testing::KernelInvariantGuard guard(k);
  Timestamp t(0);
  for (std::uint16_t i = 0; i < 10; ++i) {
    SessionBuilder s(client_tuple(static_cast<std::uint16_t>(7000 + i), 80));
    k.handle_packet(s.syn(t), t);
    k.handle_packet(s.data("some data", t), t);
  }
  k.terminate_all(Timestamp::from_sec(1));
  EXPECT_EQ(k.table().size(), 0u);
  int term = 0, data = 0;
  for (const auto& ev : drain(k)) {
    if (ev.type == EventType::kTerminated) ++term;
    if (ev.type == EventType::kData) ++data;
  }
  EXPECT_EQ(term, 10);
  EXPECT_EQ(data, 10);
  EXPECT_EQ(k.allocator().used(), 0u);
}


// Shard aggregation folds each row with its combine rule: counters and
// arrays add, the ring-depth peak keeps the max, the overload flag is set
// when any shard is overloaded, and the effective cutoff is the tightest
// one any shard has active (-1 = none active).
TEST(KernelStatsMerge, EachRowCombinesByItsRule) {
  KernelStats a;
  a.pkts_seen = 3;
  a.verdicts[1] = 2;
  a.ring_occupancy_peak = 9;
  a.ppl_overload_active = 0;
  KernelStats b;
  b.pkts_seen = 4;
  b.verdicts[1] = 5;
  b.ring_occupancy_peak = 7;
  b.ppl_overload_active = 1;
  b.ppl_effective_cutoff = 4096;

  KernelStats total;
  EXPECT_EQ(total.ppl_effective_cutoff, -1);
  total.merge(a);
  EXPECT_EQ(total.ppl_effective_cutoff, -1);  // no shard has a cutoff
  total.merge(b);
  EXPECT_EQ(total.pkts_seen, 7u);
  EXPECT_EQ(total.verdicts[1], 7u);
  EXPECT_EQ(total.ring_occupancy_peak, 9u);
  EXPECT_EQ(total.ppl_overload_active, 1u);
  EXPECT_EQ(total.ppl_effective_cutoff, 4096);

  KernelStats tighter;
  tighter.ppl_effective_cutoff = 1024;
  total.merge(tighter);
  EXPECT_EQ(total.ppl_effective_cutoff, 1024);
  KernelStats looser;
  looser.ppl_effective_cutoff = 8192;
  total.merge(looser);
  EXPECT_EQ(total.ppl_effective_cutoff, 1024);
  total.merge(KernelStats{});  // an idle shard changes nothing
  EXPECT_EQ(total.ppl_effective_cutoff, 1024);
  EXPECT_EQ(total.ppl_overload_active, 1u);
  EXPECT_EQ(total.ring_occupancy_peak, 9u);
}

/// Sends one 100-byte segment on a fresh session and returns the 64-byte
/// chunk it completes; the events before it are released.
Event deliver_one_chunk(ScapKernel& k) {
  SessionBuilder s;
  Timestamp t(0);
  k.handle_packet(s.syn(t), t);
  k.handle_packet(s.syn_ack(t), t);
  k.handle_packet(s.data(std::string(100, 'x'), t), t);
  auto& q = k.events(0);
  while (!q.empty()) {
    Event ev = q.pop();
    if (ev.type == EventType::kData) return ev;
    k.release_chunk(ev);
  }
  ADD_FAILURE() << "no data event";
  return Event{};
}

// Release hands the chunk's budget and buffers back and empties the event,
// so releasing the same event again neither subtracts the budget twice nor
// puts a buffer on a free list twice.
TEST(ScapKernelTest, ReleasingAnEventTwiceChangesNothing) {
  KernelConfig cfg = small_config();
  cfg.need_pkts = true;  // the packet-record list too
  ScapKernel k(cfg);
  Event ev = deliver_one_chunk(k);
  ASSERT_EQ(ev.chunk.data.size(), 64u);
  ASSERT_EQ(ev.chunk.packets.size(), 1u);
  ASSERT_NE(ev.chunk_alloc, 0u);

  k.release_chunk(ev);
  EXPECT_TRUE(ev.chunk.data.empty());
  EXPECT_TRUE(ev.chunk.packets.empty());
  EXPECT_EQ(ev.chunk_alloc, 0u);
  const std::uint64_t used = k.allocator().used();
  const std::size_t free_buffers = k.allocator().free_buffers();
  EXPECT_EQ(free_buffers, 2u);  // the byte buffer and the record vector

  k.release_chunk(ev);
  EXPECT_EQ(k.allocator().used(), used);
  EXPECT_EQ(k.allocator().free_buffers(), free_buffers);
}

// Under AddressSanitizer a buffer on a free list is poisoned, so a read
// through a released event's stale data pointer is reported instead of
// silently seeing whatever the next chunk writes there.
TEST(ScapKernelDeathTest, ReadingReleasedChunkBytesDies) {
#if !defined(SCAP_ASAN)
  GTEST_SKIP() << "needs an AddressSanitizer build";
#else
  ScapKernel k(small_config());
  Event ev = deliver_one_chunk(k);
  ASSERT_FALSE(ev.chunk.data.empty());
  const volatile std::uint8_t* stale = ev.chunk.data.data();
  EXPECT_EQ(stale[0], 'x');
  k.release_chunk(ev);
  EXPECT_DEATH((void)stale[0], "use-after-poison");
#endif
}

}  // namespace
}  // namespace scap::kernel
