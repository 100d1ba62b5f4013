// Exercises the C API exactly as the paper's use cases (§3.3) do.
#include "scap/scap.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "packet/pcap.hpp"
#include "scap/capture.hpp"
#include "tests/kernel/test_helpers.hpp"

namespace {

using scap::Packet;
using scap::Timestamp;
using scap::kernel::testing::SessionBuilder;
using scap::kernel::testing::client_tuple;

// Globals for the C-style callbacks.
struct Collected {
  std::vector<std::string> chunks;
  std::vector<std::uint64_t> closed_bytes;
  int creations = 0;
  int packets = 0;
  std::vector<int> param_rcs;
  std::vector<std::int64_t> stream_timeout_ms;
};
Collected* g_collected = nullptr;

void on_data(stream_t* sd) {
  g_collected->chunks.emplace_back(
      reinterpret_cast<const char*>(scap_stream_data(sd)),
      scap_stream_data_len(sd));
}

void on_close(stream_t* sd) {
  g_collected->closed_bytes.push_back(sd->stats().bytes);
}

void on_create(stream_t*) { ++g_collected->creations; }

// Per-stream parameter calls from a creation callback: one valid, one
// unknown id, one capture-wide id; then reads back the stream's timeout.
scap_t* g_sc = nullptr;
void on_create_set_params(stream_t* sd) {
  ++g_collected->creations;
  auto& rcs = g_collected->param_rcs;
  rcs.push_back(scap_set_stream_parameter(
      g_sc, sd, SCAP_PARAM_INACTIVITY_TIMEOUT_MS, 777));
  rcs.push_back(scap_set_stream_parameter(g_sc, sd, 99, 5));
  rcs.push_back(scap_set_stream_parameter(g_sc, sd, SCAP_PARAM_WORKERS, 5));
  const scap::kernel::StreamRecord* rec = g_sc->kernel().find_stream(sd->id());
  ASSERT_NE(rec, nullptr);
  g_collected->stream_timeout_ms.push_back(
      rec->params.inactivity_timeout.ns() / 1'000'000);
}

void on_data_packets(stream_t* sd) {
  scap_pkthdr hdr;
  while (scap_next_stream_packet(sd, &hdr) != nullptr) {
    ++g_collected->packets;
  }
}

class CApiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    collected_ = Collected{};
    g_collected = &collected_;
  }
  void TearDown() override { g_collected = nullptr; }

  /// Asserts the kernel conservation suite, then closes the handle; used
  /// instead of bare scap_close so every C-API scenario proves the
  /// invariants at teardown.
  static void close_checked(scap_t* sc) {
    if (sc != nullptr && sc->has_kernel()) {
      scap::kernel::testing::expect_invariants_hold(sc->kernel());
    }
    scap_close(sc);
  }

  Collected collected_;
};

TEST_F(CApiTest, PaperUseCaseFlowStatsExport) {
  // §3.3.1 nearly verbatim.
  scap_t* sc = scap_create("sim0", SCAP_DEFAULT, SCAP_TCP_FAST, 0);
  ASSERT_NE(sc, nullptr);
  ASSERT_EQ(scap_set_cutoff(sc, 0), 0);
  ASSERT_EQ(scap_dispatch_termination(sc, on_close), 0);
  ASSERT_EQ(scap_start_capture(sc), 0);

  SessionBuilder s;
  Timestamp t(0);
  scap_inject(sc, s.syn(t));
  scap_inject(sc, s.data("0123456789", t));
  scap_inject(sc, s.fin(t));
  scap_flush(sc);

  ASSERT_GE(collected_.closed_bytes.size(), 1u);
  EXPECT_EQ(collected_.closed_bytes[0], 10u);

  scap_stats_t stats{};
  ASSERT_EQ(scap_get_stats(sc, &stats), 0);
  EXPECT_EQ(stats.pkts_seen, 3u);
  EXPECT_GE(stats.streams_created, 1u);
  close_checked(sc);
}

// scap_get_stats mirrors every kernel counter under its own name and
// derives the paper's aggregates from them. The capture below reaches the
// three paths the aggregates single out: a cutoff discard in the kernel,
// the FDIR filter that cutoff installs dropping later packets at the NIC
// (subzero copy), and an undecodable frame.
TEST_F(CApiTest, StatsMirrorKernelCountersAndDeriveAggregates) {
  scap_t* sc = scap_create("sim0", SCAP_DEFAULT, SCAP_TCP_FAST, 0);
  ASSERT_NE(sc, nullptr);
  sc->set_use_fdir(true);
  ASSERT_EQ(scap_set_cutoff(sc, 4), 0);
  ASSERT_EQ(scap_start_capture(sc), 0);

  SessionBuilder s;
  Timestamp t(0);
  scap_inject(sc, s.syn(t));
  // Lands 100 bytes into the stream: discarded by the kernel's cutoff,
  // which installs the FDIR filter that drops the next two at the NIC.
  scap_inject(sc, s.data_at(1101, "past the cutoff", t));
  scap_inject(sc, s.data("0123456789", t));
  scap_inject(sc, s.data("0123456789", t));
  const std::uint8_t junk[] = {0xde, 0xad, 0xbe, 0xef};
  scap_inject(sc, Packet::from_bytes(junk, t));
  scap_flush(sc);

  scap_stats_t stats{};
  ASSERT_EQ(scap_get_stats(sc, &stats), 0);
  const scap::CaptureStats cs = sc->stats();
  const scap::kernel::KernelStats& k = cs.kernel;
  ASSERT_GT(k.pkts_cutoff, 0u);
  ASSERT_GT(cs.nic_dropped_by_filter, 0u);
  ASSERT_GT(k.pkts_invalid, 0u);

  EXPECT_EQ(stats.pkts_seen, k.pkts_seen + cs.nic_dropped_by_filter);
  EXPECT_EQ(stats.pkts_dropped, k.pkts_ppl_dropped + k.pkts_nomem_dropped);
  EXPECT_EQ(stats.bytes_dropped,
            k.bytes_ppl_dropped + k.bytes_nomem_dropped);
  EXPECT_EQ(stats.pkts_discarded,
            k.pkts_cutoff + k.pkts_dup + k.pkts_filtered);
  EXPECT_EQ(stats.pkts_filtered_nic, cs.nic_dropped_by_filter);
  EXPECT_EQ(stats.pkts_parse_error, k.pkts_invalid);

  // pkts_seen is the one mirrored name that also counts NIC drops.
#define SCAP_STATS_FIELD(name, combine, determinism) \
  if (std::string_view(#name) != "pkts_seen") {      \
    EXPECT_EQ(stats.name, k.name) << #name;          \
  }
#define SCAP_STATS_ARRAY(name, combine, determinism, kernel_size, c_capacity) \
  for (std::size_t i = 0; i < c_capacity; ++i) {                              \
    EXPECT_EQ(stats.name[i], i < kernel_size ? k.name[i] : 0u)                \
        << #name "[" << i << "]";                                             \
  }
#include "kernel/stats_determinism.inc"
  close_checked(sc);
}

TEST_F(CApiTest, PaperUseCaseStreamProcessing) {
  // §3.3.2 shape: dispatch data, receive reassembled chunks.
  scap_t* sc = scap_create("sim0", SCAP_DEFAULT, SCAP_TCP_FAST, 0);
  ASSERT_NE(sc, nullptr);
  ASSERT_EQ(scap_dispatch_data(sc, on_data), 0);
  ASSERT_EQ(scap_dispatch_creation(sc, on_create), 0);
  ASSERT_EQ(scap_start_capture(sc), 0);

  SessionBuilder s;
  Timestamp t(0);
  scap_inject(sc, s.syn(t));
  scap_inject(sc, s.data("GET /index.html", t));
  scap_inject(sc, s.fin(t));
  scap_flush(sc);

  ASSERT_EQ(collected_.chunks.size(), 1u);
  EXPECT_EQ(collected_.chunks[0], "GET /index.html");
  EXPECT_EQ(collected_.creations, 1);
  close_checked(sc);
}

TEST_F(CApiTest, FileDeviceReplaysToCompletion) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "scap_capi_replay.pcap")
          .string();
  {
    scap::PcapWriter w(path);
    SessionBuilder s;
    w.write(s.syn(Timestamp(0)));
    w.write(s.data("file replay data", Timestamp(1000)));
    w.write(s.fin(Timestamp(2000)));
  }
  scap_t* sc = scap_create(("file:" + path).c_str(), SCAP_DEFAULT,
                           SCAP_TCP_FAST, 0);
  ASSERT_NE(sc, nullptr);
  scap_dispatch_data(sc, on_data);
  ASSERT_EQ(scap_start_capture(sc), 0);
  ASSERT_EQ(collected_.chunks.size(), 1u);
  EXPECT_EQ(collected_.chunks[0], "file replay data");
  close_checked(sc);
  std::filesystem::remove(path);
}

TEST_F(CApiTest, PacketDeliveryApi) {
  scap_t* sc = scap_create("sim0", SCAP_DEFAULT, SCAP_TCP_FAST, 1);
  scap_dispatch_data(sc, on_data_packets);
  scap_start_capture(sc);
  SessionBuilder s;
  Timestamp t(0);
  scap_inject(sc, s.syn(t));
  scap_inject(sc, s.data("one", t));
  scap_inject(sc, s.data("two", t));
  scap_inject(sc, s.data("three", t));
  scap_inject(sc, s.fin(t));
  scap_flush(sc);
  EXPECT_EQ(collected_.packets, 3);
  close_checked(sc);
}

TEST_F(CApiTest, ParameterAndFilterValidation) {
  scap_t* sc = scap_create("sim0", SCAP_DEFAULT, SCAP_TCP_FAST, 0);
  EXPECT_EQ(scap_set_filter(sc, "tcp and port 80"), 0);
  EXPECT_EQ(scap_set_filter(sc, "not a filter !!!"), -1);
  EXPECT_EQ(scap_set_parameter(sc, SCAP_PARAM_CHUNK_SIZE, 4096), 0);
  EXPECT_EQ(scap_set_worker_threads(sc, -1), -1);
  EXPECT_EQ(scap_set_worker_threads(sc, 4), 0);
  EXPECT_EQ(scap_set_parameter(sc, SCAP_PARAM_WORKERS, 2), 0);
  EXPECT_EQ(scap_set_parameter(sc, SCAP_PARAM_WORKERS, -1), -1);
  EXPECT_EQ(scap_set_parameter(sc, SCAP_PARAM_RING_CAPACITY, 1024), 0);
  EXPECT_EQ(scap_set_parameter(sc, SCAP_PARAM_RING_CAPACITY, 0), -1);
  EXPECT_EQ(scap_set_parameter(sc, SCAP_PARAM_WORKERS, 0), 0);
  EXPECT_EQ(scap_add_cutoff_direction(sc, 100, SCAP_DIR_ORIG), 0);
  EXPECT_EQ(scap_add_cutoff_direction(sc, 100, 7), -1);
  EXPECT_EQ(scap_add_cutoff_class(sc, 100, "port 80"), 0);

  // Unknown ids and modes are rejected and change nothing, never remapped
  // to some other parameter or mode.
  EXPECT_EQ(scap_create("sim0", SCAP_DEFAULT, 7, 0), nullptr);
  EXPECT_EQ(scap_create("sim0", SCAP_DEFAULT, -1, 0), nullptr);
  ASSERT_EQ(scap_set_parameter(sc, SCAP_PARAM_INACTIVITY_TIMEOUT_MS, 1234),
            0);
  EXPECT_EQ(scap_set_parameter(sc, 99, 5), -1);
  EXPECT_EQ(scap_set_parameter(sc, -1, 5), -1);
  g_sc = sc;
  ASSERT_EQ(scap_dispatch_creation(sc, on_create_set_params), 0);
  ASSERT_EQ(scap_start_capture(sc), 0);
  EXPECT_EQ(sc->kernel().config().defaults.inactivity_timeout.ns(),
            1234'000'000);

  SessionBuilder s;
  Timestamp t(0);
  scap_inject(sc, s.syn(t));
  scap_inject(sc, s.data("0123456789", t));
  scap_flush(sc);
  g_sc = nullptr;
  ASSERT_EQ(collected_.creations, 1);
  EXPECT_EQ(collected_.param_rcs, (std::vector<int>{0, -1, -1}));
  EXPECT_EQ(collected_.stream_timeout_ms, std::vector<std::int64_t>{777});
  close_checked(sc);
}

TEST_F(CApiTest, NullSafety) {
  EXPECT_EQ(scap_set_filter(nullptr, "tcp"), -1);
  EXPECT_EQ(scap_set_cutoff(nullptr, 0), -1);
  EXPECT_EQ(scap_get_stats(nullptr, nullptr), -1);
  EXPECT_EQ(scap_stream_data(nullptr), nullptr);
  EXPECT_EQ(scap_stream_data_len(nullptr), 0u);
  scap_close(nullptr);  // must not crash
}

TEST_F(CApiTest, MissingFileDeviceFailsStart) {
  scap_t* sc = scap_create("file:/does/not/exist.pcap", SCAP_DEFAULT,
                           SCAP_TCP_FAST, 0);
  ASSERT_NE(sc, nullptr);
  EXPECT_EQ(scap_start_capture(sc), -1);
  close_checked(sc);
}

}  // namespace
