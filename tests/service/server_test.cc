// Socket dispatch loop contract: answers over UDS/TCP are bit-equal to
// direct Submit, hostile bytes elicit typed rejects (fatal ones close the
// stream, recoverable ones don't), torn writes reassemble, the admission
// verdict taxonomy crosses the wire intact, and the deadline that crosses is
// RELATIVE — the TSan CI job runs this test over the dispatch loop's
// thread + the service workers + concurrent client threads.
#include "service/server.h"

#include <dirent.h>
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "algos/algos.h"
#include "core/checkpoint.h"
#include "core/fingerprint.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "service/client.h"

namespace simdx::service {
namespace {

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = std::make_unique<Graph>(
        Graph::FromEdges(GenerateRmat(7, 8, 3), false));
    ServiceOptions so;
    so.workers = 2;
    service_ = std::make_unique<GraphService>(*graph_, so);
    ServerOptions opts;
    // Lifecycle limits armed but generous (the torn write pauses 20 ms), so
    // every hostile-frame and concurrency case also runs with them on.
    opts.header_timeout_ms = 2000.0;
    opts.idle_timeout_ms = 10000.0;
    opts.max_pipeline = 64;
    opts.uds_path = "/tmp/simdx_server_test_" + std::to_string(::getpid()) +
                    "_" + std::to_string(++instance_) + ".sock";
    opts.tcp = true;  // ephemeral loopback port
    server_ = std::make_unique<SocketServer>(*service_, opts);
    std::string err;
    ASSERT_TRUE(server_->Start(&err)) << err;
  }

  void TearDown() override {
    server_->Stop();
    service_->Shutdown();
  }

  uint64_t OracleVfp(VertexId source) {
    ServiceOptions so;
    const auto r = RunBfs(*graph_, source, so.device, so.engine);
    return ValueBytesFingerprint(r.values.data(),
                                 r.values.size() * sizeof(uint32_t));
  }

  static wire::RequestFrame BfsRequest(VertexId source) {
    Query q;
    q.kind = QueryKind::kBfs;
    q.source = source;
    q.want_values = true;
    return ToRequestFrame(q);
  }

  static int instance_;
  std::unique_ptr<Graph> graph_;
  std::unique_ptr<GraphService> service_;
  std::unique_ptr<SocketServer> server_;
};

int ServerTest::instance_ = 0;

TEST_F(ServerTest, UdsAnswerIsBitEqualToDirectSubmit) {
  BlockingClient cli;
  std::string err;
  ASSERT_EQ(cli.ConnectUds(server_->uds_path(), &err), ClientStatus::kOk)
      << err;
  wire::Frame reply;
  ASSERT_EQ(cli.Call(BfsRequest(0), &reply, &err), ClientStatus::kOk) << err;
  ASSERT_EQ(reply.type, wire::MsgType::kResponse);
  const uint64_t oracle = OracleVfp(0);
  EXPECT_EQ(reply.response.value_fingerprint, oracle);
  EXPECT_EQ(ValueBytesFingerprint(reply.response.value_bytes.data(),
                                  reply.response.value_bytes.size()),
            oracle);
}

TEST_F(ServerTest, TcpAnswerMatchesToo) {
  BlockingClient cli;
  std::string err;
  ASSERT_EQ(cli.ConnectTcp("127.0.0.1", server_->tcp_port(), &err),
            ClientStatus::kOk)
      << err;
  wire::Frame reply;
  ASSERT_EQ(cli.Call(BfsRequest(1), &reply, &err), ClientStatus::kOk) << err;
  ASSERT_EQ(reply.type, wire::MsgType::kResponse);
  EXPECT_EQ(reply.response.value_fingerprint, OracleVfp(1));
}

TEST_F(ServerTest, ConcurrentClientsAllGetTheirOwnAnswers) {
  constexpr int kClients = 4;
  constexpr int kPerClient = 16;
  std::vector<uint64_t> oracle;
  for (int s = 0; s < kClients * kPerClient; ++s) {
    oracle.push_back(OracleVfp(static_cast<VertexId>(s)));
  }
  std::vector<std::thread> threads;
  std::vector<int> failures(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      BlockingClient cli;
      std::string err;
      if (cli.ConnectUds(server_->uds_path(), &err) != ClientStatus::kOk) {
        failures[c] = kPerClient;
        return;
      }
      for (int i = 0; i < kPerClient; ++i) {
        const int s = c * kPerClient + i;
        wire::Frame reply;
        if (cli.Call(BfsRequest(static_cast<VertexId>(s)), &reply, &err) !=
                ClientStatus::kOk ||
            reply.type != wire::MsgType::kResponse) {
          ++failures[c];
          continue;
        }
        // The carried fingerprint AND the decoded value bytes.
        const auto& vb = reply.response.value_bytes;
        if (reply.response.value_fingerprint != oracle[s] ||
            ValueBytesFingerprint(vb.data(), vb.size()) != oracle[s]) {
          ++failures[c];
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], 0) << "client " << c;
  }
}

// Every hostile frame is ANSWERED with a typed reject, and the
// fatal/recoverable split follows the codec's IsFatal contract: header-level
// corruption closes the stream (frame sync is gone), while after a body-level
// or admission reject the SAME connection still answers a real query.
TEST_F(ServerTest, HostileFramesGetTypedRejectsThenCloseOrContinue) {
  const auto request_bytes = [](uint8_t kind_byte) {
    wire::RequestFrame f = BfsRequest(0);
    f.request_id = 7;
    f.kind = kind_byte;
    std::vector<uint8_t> b;
    wire::EncodeRequest(f, &b);
    return b;
  };
  const auto framed = [](uint16_t msg_type, const std::vector<uint8_t>& body) {
    std::vector<uint8_t> b;
    ByteWriter w(&b);
    w.Pod(wire::kFrameMagic);
    w.Pod(wire::kWireVersion);
    w.Pod(msg_type);
    w.Pod(static_cast<uint32_t>(body.size()));
    w.Pod(Crc32(body.data(), body.size()));
    w.Bytes(body.data(), body.size());
    return b;
  };
  const uint8_t bfs = static_cast<uint8_t>(QueryKind::kBfs);
  struct Case {
    const char* name;
    std::vector<uint8_t> bytes;
    wire::RejectCode expect;
    bool fatal;
  };
  std::vector<Case> cases;
  {
    const std::string http = "GET / HTTP/1.1\r\n\r\n";  // wrong protocol
    cases.push_back({"http-garbage", {http.begin(), http.end()},
                     wire::RejectCode::kBadFrame, true});
  }
  {
    auto b = request_bytes(bfs);
    b[0] ^= 0xFF;
    cases.push_back({"bad-magic", b, wire::RejectCode::kBadFrame, true});
  }
  {
    auto b = request_bytes(bfs);
    b[4] ^= 0xFF;
    cases.push_back({"bad-version", b, wire::RejectCode::kBadFrame, true});
  }
  {
    auto b = request_bytes(bfs);
    b.back() ^= 0xFF;  // body no longer matches the header CRC
    cases.push_back({"bad-crc", b, wire::RejectCode::kBadFrame, true});
  }
  {
    // A 4 GiB body_length is refused from the header alone, before any
    // allocation: no body byte ever arrives.
    auto b = request_bytes(bfs);
    b.resize(wire::kFrameHeaderBytes);
    const uint32_t huge = 0xFFFFFFFFu;
    std::memcpy(&b[8], &huge, sizeof(huge));
    cases.push_back({"oversized-length", b, wire::RejectCode::kBadFrame, true});
  }
  cases.push_back({"unknown-msg-type", framed(99, {}),
                   wire::RejectCode::kMalformedBody, false});
  cases.push_back(
      {"garbage-body",
       framed(static_cast<uint16_t>(wire::MsgType::kRequest), {1, 2, 3}),
       wire::RejectCode::kMalformedBody, false});
  // The codec carries an out-of-range kind byte intact (structure, not
  // range); admission refuses it before any per-kind array is indexed.
  cases.push_back({"out-of-range-kind", request_bytes(200),
                   wire::RejectCode::kInvalidQuery, false});

  const uint64_t oracle = OracleVfp(0);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    BlockingClient cli;
    std::string err;
    ASSERT_EQ(cli.ConnectUds(server_->uds_path(), &err), ClientStatus::kOk)
        << err;
    ASSERT_EQ(cli.SendRaw(c.bytes.data(), c.bytes.size(), &err),
              ClientStatus::kOk)
        << err;
    wire::Frame reply;
    ASSERT_EQ(cli.ReadFrame(&reply, &err), ClientStatus::kOk) << err;
    ASSERT_EQ(reply.type, wire::MsgType::kReject);
    EXPECT_EQ(reply.reject.code, static_cast<uint8_t>(c.expect));
    if (c.fatal) {
      EXPECT_EQ(cli.ReadFrame(&reply, &err), ClientStatus::kRecvFailed);
    } else {
      ASSERT_EQ(cli.Call(BfsRequest(0), &reply, &err), ClientStatus::kOk)
          << err;
      ASSERT_EQ(reply.type, wire::MsgType::kResponse);
      EXPECT_EQ(reply.response.value_fingerprint, oracle);
    }
  }
}

TEST_F(ServerTest, InvalidSourceMapsToInvalidQueryReject) {
  BlockingClient cli;
  std::string err;
  ASSERT_EQ(cli.ConnectUds(server_->uds_path(), &err), ClientStatus::kOk);
  wire::RequestFrame rf = BfsRequest(0);
  rf.source = 0xFFFFFFFFu;  // far beyond the loaded graph
  wire::Frame reply;
  ASSERT_EQ(cli.Call(rf, &reply, &err), ClientStatus::kOk) << err;
  ASSERT_EQ(reply.type, wire::MsgType::kReject);
  EXPECT_EQ(reply.reject.code,
            static_cast<uint8_t>(wire::RejectCode::kInvalidQuery));
}

TEST_F(ServerTest, TornWriteReassemblesIntoANormalAnswer) {
  BlockingClient cli;
  std::string err;
  ASSERT_EQ(cli.ConnectUds(server_->uds_path(), &err), ClientStatus::kOk);
  wire::RequestFrame rf = BfsRequest(2);
  rf.request_id = 77;
  std::vector<uint8_t> bytes;
  wire::EncodeRequest(rf, &bytes);
  ASSERT_EQ(cli.SendRaw(bytes.data(), 9, &err), ClientStatus::kOk);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_EQ(cli.SendRaw(bytes.data() + 9, bytes.size() - 9, &err),
            ClientStatus::kOk);
  wire::Frame reply;
  ASSERT_EQ(cli.ReadFrame(&reply, &err), ClientStatus::kOk) << err;
  ASSERT_EQ(reply.type, wire::MsgType::kResponse);
  EXPECT_EQ(reply.response.request_id, 77u);
  EXPECT_EQ(reply.response.value_fingerprint, OracleVfp(2));
}

TEST_F(ServerTest, GenerousRelativeDeadlineCompletesDespiteTransitDelay) {
  // The wire deadline is relative to SERVER admission: a client-side pause
  // between encoding and sending must not erode it (absolute semantics
  // would make this flaky; relative semantics make it a non-event).
  BlockingClient cli;
  std::string err;
  ASSERT_EQ(cli.ConnectUds(server_->uds_path(), &err), ClientStatus::kOk);
  wire::RequestFrame rf = BfsRequest(0);
  rf.deadline_rel_ms = 60000.0;
  std::vector<uint8_t> bytes;
  wire::EncodeRequest(rf, &bytes);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));  // "transit"
  ASSERT_EQ(cli.SendRaw(bytes.data(), bytes.size(), &err), ClientStatus::kOk);
  wire::Frame reply;
  ASSERT_EQ(cli.ReadFrame(&reply, &err), ClientStatus::kOk) << err;
  ASSERT_EQ(reply.type, wire::MsgType::kResponse);
  EXPECT_EQ(reply.response.value_fingerprint, OracleVfp(0));
}

TEST_F(ServerTest, ServerStatsLedgerAddsUp) {
  BlockingClient cli;
  std::string err;
  ASSERT_EQ(cli.ConnectUds(server_->uds_path(), &err), ClientStatus::kOk);
  wire::Frame reply;
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(cli.Call(BfsRequest(static_cast<VertexId>(i)), &reply, &err),
              ClientStatus::kOk);
  }
  wire::RequestFrame bad = BfsRequest(0);
  bad.kind = 200;
  ASSERT_EQ(cli.Call(bad, &reply, &err), ClientStatus::kOk);
  const ServerStats s = server_->stats();
  EXPECT_GE(s.accepted, 1u);
  EXPECT_EQ(s.requests, 4u);
  EXPECT_EQ(s.responses, 3u);
  EXPECT_EQ(s.rejects, 1u);
  EXPECT_EQ(s.decode_errors, 0u);
  EXPECT_GT(s.bytes_rx, 0u);
  EXPECT_GT(s.bytes_tx, 0u);
}

// ---------------------------------------------------------------------------
// Transport resilience (PR 10): lifecycle timeouts, pipeline caps, drain.

// Open-fd count via /proc/self/fd — the leak gate for connection churn.
// Includes ".", ".." and the dirfd itself, consistently across calls.
int CountOpenFds() {
  DIR* d = ::opendir("/proc/self/fd");
  if (d == nullptr) {
    return -1;
  }
  int n = 0;
  while (::readdir(d) != nullptr) {
    ++n;
  }
  ::closedir(d);
  return n;
}

// Standalone graph + service + server with caller-chosen options, for the
// tests that need non-default lifecycle knobs.
struct Harness {
  std::unique_ptr<Graph> graph;
  std::unique_ptr<GraphService> service;
  std::unique_ptr<SocketServer> server;
  std::string uds;
  std::string error;
  bool ok = false;

  explicit Harness(ServerOptions opts, ServiceOptions so = {}) {
    static int counter = 0;
    graph = std::make_unique<Graph>(
        Graph::FromEdges(GenerateRmat(7, 8, 3), false));
    service = std::make_unique<GraphService>(*graph, so);
    uds = "/tmp/simdx_harness_" + std::to_string(::getpid()) + "_" +
          std::to_string(++counter) + ".sock";
    opts.uds_path = uds;
    server = std::make_unique<SocketServer>(*service, opts);
    ok = server->Start(&error);
  }
  ~Harness() {
    server->Stop();
    service->Shutdown();
  }

  uint64_t OracleVfp(VertexId source) const {
    ServiceOptions so;
    const auto r = RunBfs(*graph, source, so.device, so.engine);
    return ValueBytesFingerprint(r.values.data(),
                                 r.values.size() * sizeof(uint32_t));
  }
};

wire::RequestFrame HarnessBfsRequest(VertexId source, uint64_t id) {
  Query q;
  q.kind = QueryKind::kBfs;
  q.source = source;
  q.want_values = true;
  wire::RequestFrame f = ToRequestFrame(q);
  f.request_id = id;
  return f;
}

TEST_F(ServerTest, CloseMidWriteDoesNotKillServer) {
  // The SIGPIPE regression: clients that slam the connection shut while the
  // server owes them bytes. A reply written into the dead socket must be an
  // EPIPE errno under MSG_NOSIGNAL — a single raw write() here would kill
  // the whole process on the first iteration.
  std::string err;
  for (int i = 0; i < 30; ++i) {
    BlockingClient cli;
    ASSERT_EQ(cli.ConnectUds(server_->uds_path(), &err), ClientStatus::kOk);
    std::vector<uint8_t> bytes;
    wire::EncodeRequest(BfsRequest(static_cast<VertexId>(i % 64)), &bytes);
    ASSERT_EQ(cli.SendRaw(bytes.data(), bytes.size(), &err), ClientStatus::kOk);
    cli.Close();  // gone before the reply can flush
  }
  for (int i = 0; i < 10; ++i) {
    // The between-header-and-body variant: leave the decoder mid-frame.
    BlockingClient cli;
    ASSERT_EQ(cli.ConnectUds(server_->uds_path(), &err), ClientStatus::kOk);
    std::vector<uint8_t> bytes;
    wire::EncodeRequest(BfsRequest(0), &bytes);
    ASSERT_EQ(cli.SendRaw(bytes.data(), 10, &err), ClientStatus::kOk);
    cli.Close();
  }
  // The process survived; the server still answers.
  BlockingClient cli;
  ASSERT_EQ(cli.ConnectUds(server_->uds_path(), &err), ClientStatus::kOk);
  wire::Frame reply;
  ASSERT_EQ(cli.Call(BfsRequest(1), &reply, &err), ClientStatus::kOk) << err;
  ASSERT_EQ(reply.type, wire::MsgType::kResponse);
  EXPECT_EQ(reply.response.value_fingerprint, OracleVfp(1));
}

TEST_F(ServerTest, RecvTimeoutOnSilentServerIsTyped) {
  // The unbounded-ReadFrame fix: a server that legitimately never replies
  // (here: we sent half a frame, so it is WAITING, correctly) must cost the
  // client its recv budget, not forever.
  ClientTimeouts t;
  t.recv_ms = 150.0;
  BlockingClient cli(t);
  std::string err;
  ASSERT_EQ(cli.ConnectUds(server_->uds_path(), &err), ClientStatus::kOk);
  std::vector<uint8_t> bytes;
  wire::EncodeRequest(BfsRequest(0), &bytes);
  ASSERT_EQ(cli.SendRaw(bytes.data(), 10, &err), ClientStatus::kOk);
  const auto t0 = std::chrono::steady_clock::now();
  wire::Frame reply;
  EXPECT_EQ(cli.ReadFrame(&reply, &err), ClientStatus::kTimedOut);
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
  EXPECT_GE(elapsed_ms, 100.0);
  EXPECT_LT(elapsed_ms, 5000.0);
}

TEST_F(ServerTest, FdChurnSoakReturnsToBaseline) {
  std::string err;
  {
    // Warm-up: first query initializes lazy process state (thread pool,
    // arenas) whose fds must not count against the churn.
    BlockingClient cli;
    ASSERT_EQ(cli.ConnectUds(server_->uds_path(), &err), ClientStatus::kOk);
    wire::Frame reply;
    ASSERT_EQ(cli.Call(BfsRequest(0), &reply, &err), ClientStatus::kOk);
  }
  // Let the server retire the warm-up connection before the baseline.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const int baseline = CountOpenFds();
  ASSERT_GT(baseline, 0);
  for (int i = 0; i < 300; ++i) {
    BlockingClient cli;
    ASSERT_EQ(cli.ConnectUds(server_->uds_path(), &err), ClientStatus::kOk);
    wire::Frame reply;
    ASSERT_EQ(cli.Call(BfsRequest(static_cast<VertexId>(i % 128)), &reply,
                       &err),
              ClientStatus::kOk)
        << "churn " << i << ": " << err;
    cli.Close();
  }
  // Server-side closes trail the client by a poll cycle; wait them out.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (CountOpenFds() > baseline &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_LE(CountOpenFds(), baseline);
}

TEST(ServerLifecycleTest, ConnectionSlotsRecycleAfterOverflow) {
  ServerOptions opts;
  opts.max_connections = 2;
  Harness h(opts);
  ASSERT_TRUE(h.ok) << h.error;
  std::string err;
  BlockingClient a;
  BlockingClient b;
  ASSERT_EQ(a.ConnectUds(h.uds, &err), ClientStatus::kOk);
  ASSERT_EQ(b.ConnectUds(h.uds, &err), ClientStatus::kOk);
  wire::Frame reply;
  // Calls force both connections through accept before the overflow probe.
  ASSERT_EQ(a.Call(HarnessBfsRequest(0, 1), &reply, &err), ClientStatus::kOk);
  ASSERT_EQ(b.Call(HarnessBfsRequest(1, 2), &reply, &err), ClientStatus::kOk);

  // Third connection: connect() lands in the backlog, then the dispatch
  // loop closes it at the cap — the client's next read sees the EOF.
  BlockingClient c;
  ClientTimeouts t;
  t.recv_ms = 3000.0;
  c.set_timeouts(t);
  ASSERT_EQ(c.ConnectUds(h.uds, &err), ClientStatus::kOk);
  const ClientStatus over = c.Call(HarnessBfsRequest(2, 3), &reply, &err);
  // EPIPE on the send or EOF on the read, depending on who raced whom —
  // either way a typed transport failure, never a hang.
  EXPECT_TRUE(over == ClientStatus::kRecvFailed ||
              over == ClientStatus::kSendFailed)
      << ToString(over);

  // Freeing a slot lets a NEW connection in (the loop must notice the close
  // and recycle — a leaked slot would refuse forever).
  a.Close();
  bool recycled = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!recycled && std::chrono::steady_clock::now() < deadline) {
    BlockingClient d;
    d.set_timeouts(t);
    if (d.ConnectUds(h.uds, &err) == ClientStatus::kOk &&
        d.Call(HarnessBfsRequest(3, 4), &reply, &err) == ClientStatus::kOk &&
        reply.type == wire::MsgType::kResponse) {
      recycled = true;
    }
    if (!recycled) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  EXPECT_TRUE(recycled);
  const ServerStats s = h.server->stats();
  EXPECT_GE(s.overflow_closed, 1u);
  EXPECT_GE(s.accepted, 3u);  // a, b, and the recycled d (c never got a slot)
  EXPECT_GE(s.closed, 1u);    // at least a's retirement
}

TEST(ServerLifecycleTest, PipelineCapRejectsTyped) {
  ServiceOptions so;
  so.start_paused = true;  // admitted queries queue; nothing resolves yet
  ServerOptions opts;
  opts.max_pipeline = 2;
  Harness h(opts, so);
  ASSERT_TRUE(h.ok) << h.error;
  std::string err;
  ClientTimeouts t;
  t.recv_ms = 10000.0;
  BlockingClient cli(t);
  ASSERT_EQ(cli.ConnectUds(h.uds, &err), ClientStatus::kOk);
  for (uint64_t id = 1; id <= 3; ++id) {
    std::vector<uint8_t> bytes;
    wire::EncodeRequest(HarnessBfsRequest(static_cast<VertexId>(id), id),
                        &bytes);
    ASSERT_EQ(cli.SendRaw(bytes.data(), bytes.size(), &err),
              ClientStatus::kOk);
  }
  // With two requests parked in the paused service, the third must bounce
  // off the per-connection cap immediately — a typed answer, not a queue.
  wire::Frame reply;
  ASSERT_EQ(cli.ReadFrame(&reply, &err), ClientStatus::kOk) << err;
  ASSERT_EQ(reply.type, wire::MsgType::kReject);
  EXPECT_EQ(reply.reject.request_id, 3u);
  EXPECT_EQ(reply.reject.code,
            static_cast<uint8_t>(wire::RejectCode::kPipelineFull));
  h.service->Resume();
  uint64_t got = 0;
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(cli.ReadFrame(&reply, &err), ClientStatus::kOk) << err;
    ASSERT_EQ(reply.type, wire::MsgType::kResponse);
    got |= uint64_t{1} << reply.response.request_id;
  }
  EXPECT_EQ(got, (uint64_t{1} << 1) | (uint64_t{1} << 2));
  EXPECT_EQ(h.server->stats().pipeline_rejects, 1u);
}

TEST(ServerLifecycleTest, SlowLorisPartialFrameGetsTimedOutReject) {
  ServerOptions opts;
  opts.header_timeout_ms = 100.0;
  Harness h(opts);
  ASSERT_TRUE(h.ok) << h.error;
  std::string err;
  ClientTimeouts t;
  t.recv_ms = 5000.0;
  BlockingClient cli(t);
  ASSERT_EQ(cli.ConnectUds(h.uds, &err), ClientStatus::kOk);
  std::vector<uint8_t> bytes;
  wire::EncodeRequest(HarnessBfsRequest(0, 1), &bytes);
  ASSERT_EQ(cli.SendRaw(bytes.data(), 6, &err), ClientStatus::kOk);
  // The server must answer the stall itself: a typed kTimedOut reject, then
  // the close — not an open-ended wait for bytes that never come.
  wire::Frame reply;
  ASSERT_EQ(cli.ReadFrame(&reply, &err), ClientStatus::kOk) << err;
  ASSERT_EQ(reply.type, wire::MsgType::kReject);
  EXPECT_EQ(reply.reject.code,
            static_cast<uint8_t>(wire::RejectCode::kTimedOut));
  EXPECT_EQ(cli.ReadFrame(&reply, &err), ClientStatus::kRecvFailed);
  EXPECT_EQ(h.server->stats().header_timeout_closed, 1u);
}

TEST(ServerLifecycleTest, IdleConnectionsAreReaped) {
  ServerOptions opts;
  opts.idle_timeout_ms = 100.0;
  Harness h(opts);
  ASSERT_TRUE(h.ok) << h.error;
  std::string err;
  ClientTimeouts t;
  t.recv_ms = 5000.0;
  BlockingClient cli(t);
  ASSERT_EQ(cli.ConnectUds(h.uds, &err), ClientStatus::kOk);
  // Say nothing, owe nothing: the reap is a plain close (EOF), no reject —
  // there is no request to answer.
  wire::Frame reply;
  EXPECT_EQ(cli.ReadFrame(&reply, &err), ClientStatus::kRecvFailed);
  EXPECT_EQ(h.server->stats().idle_closed, 1u);
}

TEST(ServerLifecycleTest, SlowReaderOverOutbufCapIsClosed) {
  ServerOptions opts;
  opts.sndbuf_bytes = 4096;      // shrink the kernel's slack
  opts.max_outbuf_bytes = 8192;  // user-space backlog cap
  opts.write_stall_timeout_ms = 200.0;
  Harness h(opts);
  ASSERT_TRUE(h.ok) << h.error;
  std::string err;
  BlockingClient cli;
  ASSERT_EQ(cli.ConnectUds(h.uds, &err), ClientStatus::kOk);
  // 64 want_values requests, never reading a byte back: ~36 KB of replies
  // pile up behind a 4 KB kernel buffer, blow the 8 KB cap, and the stall
  // clock runs out. Read-side flow control means the server stops taking
  // new requests from us first; the axe falls 200 ms later.
  for (uint64_t id = 1; id <= 64; ++id) {
    std::vector<uint8_t> bytes;
    wire::EncodeRequest(
        HarnessBfsRequest(static_cast<VertexId>(id % 128), id), &bytes);
    ASSERT_EQ(cli.SendRaw(bytes.data(), bytes.size(), &err),
              ClientStatus::kOk);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (h.server->stats().slow_reader_closed == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(h.server->stats().slow_reader_closed, 1u);
}

TEST(ServerDrainTest, DrainAnswersPendingThenCloses) {
  ServiceOptions so;
  so.start_paused = true;
  Harness h({}, so);
  ASSERT_TRUE(h.ok) << h.error;
  std::string err;
  ClientTimeouts t;
  t.recv_ms = 15000.0;
  BlockingClient cli(t);
  ASSERT_EQ(cli.ConnectUds(h.uds, &err), ClientStatus::kOk);
  for (uint64_t id = 1; id <= 2; ++id) {
    std::vector<uint8_t> bytes;
    wire::EncodeRequest(HarnessBfsRequest(static_cast<VertexId>(id), id),
                        &bytes);
    ASSERT_EQ(cli.SendRaw(bytes.data(), bytes.size(), &err),
              ClientStatus::kOk);
  }
  // Both admitted (and parked — the service is paused) before Drain starts.
  auto wait_requests = [&](uint64_t n) {
    const auto dl = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (h.server->stats().requests < n &&
           std::chrono::steady_clock::now() < dl) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  };
  wait_requests(2);
  ASSERT_EQ(h.server->stats().requests, 2u);

  bool clean = false;
  std::thread drainer([&] { clean = h.server->Drain(15000.0); });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  // A request arriving MID-drain is answered with the typed stopping
  // reject — the connection is still being read precisely for this.
  {
    std::vector<uint8_t> bytes;
    wire::EncodeRequest(HarnessBfsRequest(3, 9), &bytes);
    ASSERT_EQ(cli.SendRaw(bytes.data(), bytes.size(), &err),
              ClientStatus::kOk);
  }
  h.service->Resume();  // now the two parked queries run and resolve

  // Ids 1 and 2 asked for sources 1 and 2: a drained answer must be the
  // right one, not merely delivered.
  const uint64_t oracle[3] = {0, h.OracleVfp(1), h.OracleVfp(2)};
  int responses = 0;
  int stopping = 0;
  for (int i = 0; i < 3; ++i) {
    wire::Frame reply;
    ASSERT_EQ(cli.ReadFrame(&reply, &err), ClientStatus::kOk) << err;
    if (reply.type == wire::MsgType::kResponse) {
      const uint64_t id = reply.response.request_id;
      ASSERT_TRUE(id == 1 || id == 2) << id;
      const auto& vb = reply.response.value_bytes;
      EXPECT_EQ(reply.response.value_fingerprint, oracle[id]);
      EXPECT_EQ(ValueBytesFingerprint(vb.data(), vb.size()), oracle[id]);
      ++responses;
    } else if (reply.type == wire::MsgType::kReject &&
               reply.reject.code ==
                   static_cast<uint8_t>(wire::RejectCode::kServerStopping)) {
      EXPECT_EQ(reply.reject.request_id, 9u);
      ++stopping;
    }
  }
  EXPECT_EQ(responses, 2);
  EXPECT_EQ(stopping, 1);
  // Everything owed was delivered; the server closes the connection.
  wire::Frame reply;
  EXPECT_EQ(cli.ReadFrame(&reply, &err), ClientStatus::kRecvFailed);
  drainer.join();
  EXPECT_TRUE(clean);
  const ServerStats s = h.server->stats();
  EXPECT_EQ(s.drained_replies, 2u);
  EXPECT_EQ(s.drain_dropped, 0u);
}

TEST(ServerDrainTest, DrainDeadlineDropsStuckReplies) {
  ServiceOptions so;
  so.start_paused = true;  // never resumed: the reply can never resolve
  Harness h({}, so);
  ASSERT_TRUE(h.ok) << h.error;
  std::string err;
  BlockingClient cli;
  ASSERT_EQ(cli.ConnectUds(h.uds, &err), ClientStatus::kOk);
  std::vector<uint8_t> bytes;
  wire::EncodeRequest(HarnessBfsRequest(1, 1), &bytes);
  ASSERT_EQ(cli.SendRaw(bytes.data(), bytes.size(), &err), ClientStatus::kOk);
  const auto dl = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (h.server->stats().requests < 1 &&
         std::chrono::steady_clock::now() < dl) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(h.server->stats().requests, 1u);
  const auto t0 = std::chrono::steady_clock::now();
  const bool clean = h.server->Drain(300.0);
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
  EXPECT_FALSE(clean);
  EXPECT_GE(elapsed_ms, 250.0);
  EXPECT_LT(elapsed_ms, 5000.0);  // bounded: the deadline cuts it loose
  EXPECT_EQ(h.server->stats().drain_dropped, 1u);
}

// Direct (in-process) admission must enforce the same kind-byte bound guard
// the wire path relies on — the service-side half of the sweep.
TEST(AdmissionKindGuardTest, OutOfRangeKindIsRejectedInvalid) {
  const Graph g = Graph::FromEdges(GenerateRmat(6, 8, 3), false);
  ServiceOptions so;
  so.workers = 1;
  GraphService svc(g, so);
  Query q;
  q.kind = static_cast<QueryKind>(200);
  q.source = 0;
  auto ticket = svc.Submit(q);
  EXPECT_EQ(ticket.verdict, AdmissionVerdict::kRejectedInvalid);
  Query sentinel;
  sentinel.kind = QueryKind::kCount;  // the sentinel itself is not a kind
  auto t2 = svc.Submit(sentinel);
  EXPECT_EQ(t2.verdict, AdmissionVerdict::kRejectedInvalid);
  svc.Shutdown();
}

}  // namespace
}  // namespace simdx::service
