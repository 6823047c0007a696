// The benchmark's own tests: its statistics against hand-computed values, Erlang-C
// against textbook values, and every output checker against a corrupted answer, a
// reordered answer and a broken TPC-C consistency condition.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/checks.h"
#include "src/client.h"
#include "src/db/record.h"
#include "src/db/txn.h"
#include "src/kvstore/service.h"
#include "src/runtime/runtime.h"
#include "src/runtime/tcp_transport.h"
#include "src/services/tpcc_service.h"
#include "src/stats.h"

namespace perfbench {
namespace {

// --- statistics --------------------------------------------------------------------

TEST(QuantileTest, NearestRankOnAHandComputedList) {
  // The textbook nearest-rank example: ranks ceil(q·n) of {15, 20, 35, 40, 50}.
  std::vector<int> values = {50, 15, 40, 20, 35};
  EXPECT_EQ(Quantile(values, 0.05), 15);
  EXPECT_EQ(Quantile(values, 0.30), 20);
  EXPECT_EQ(Quantile(values, 0.40), 20);
  EXPECT_EQ(Quantile(values, 0.50), 35);
  EXPECT_EQ(Quantile(values, 0.99), 50);
  EXPECT_EQ(Quantile(values, 1.00), 50);
  EXPECT_EQ(Quantile(values, 0.0), 15);
  std::vector<int> empty;
  EXPECT_EQ(Quantile(empty, 0.5), 0.0);
}

TEST(QuantileTest, P99NeedsTheHundredthSampleOfAHundred) {
  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) {
    values.push_back(i);
  }
  EXPECT_EQ(Quantile(values, 0.99), 99);
  EXPECT_EQ(Quantile(values, 0.995), 100);
}

TEST(ErlangCTest, TextbookValues) {
  EXPECT_NEAR(ErlangC(1, 0.5), 0.5, 1e-12);         // M/M/1: P(wait) = rho
  EXPECT_NEAR(ErlangC(2, 1.0), 1.0 / 3.0, 1e-12);   // two servers, one Erlang
  EXPECT_NEAR(ErlangC(10, 8.0), 0.409180, 1e-6);    // call-centre table value
  EXPECT_NEAR(ErlangC(16, 14.4), 0.591343, 1e-6);
}

TEST(ErlangCTest, WaitQuantileOfMm1AndTheAtomAtZero) {
  // M/M/1, rho = 0.5, mu = 1: P(W > t) = 0.5·exp(-0.5·t).
  EXPECT_NEAR(MmcWaitQuantile(1, 0.5, 1.0, 0.99), std::log(50.0) / 0.5, 1e-9);
  EXPECT_EQ(MmcWaitQuantile(1, 0.5, 1.0, 0.4), 0.0);
  EXPECT_EQ(MmcWaitQuantile(16, 0.3 * 16, 1.0, 0.99), 0.0);
}

// --- answer checkers ---------------------------------------------------------------

TEST(KvProtocolTest, AcceptsTheModelValueAndRejectsCorruptionAndMisses) {
  KvProtocol protocol(/*seed=*/7, /*connections=*/2, /*keys_per_conn=*/100);
  zygos::KvService service;
  protocol.Populate(service);
  std::string payload;
  int gets = 0;
  for (int i = 0; i < 2000; ++i) {
    Tag tag;
    protocol.NextRequest(i % 2, payload, tag);
    std::string answer = service.Handle(payload);
    ASSERT_EQ(protocol.Check(i % 2, tag, answer), nullptr) << "request " << i;
    if (tag.kind == KvProtocol::kGet) {
      gets++;
      std::string corrupted = answer;
      corrupted[1] ^= 0x01;
      EXPECT_NE(protocol.Check(i % 2, tag, corrupted), nullptr);
      EXPECT_NE(protocol.Check(i % 2, tag, std::string(1, '\x01')), nullptr);  // miss
      EXPECT_NE(protocol.Check(i % 2, tag, answer.substr(0, 2)), nullptr);
    }
  }
  EXPECT_GT(gets, 1900);
}

TEST(KvProtocolTest, RejectsAValueThatASetHasReplaced) {
  // One key: every SET replaces the value the next GET must return.
  KvProtocol protocol(/*seed=*/3, /*connections=*/1, /*keys_per_conn=*/1);
  zygos::KvService service;
  protocol.Populate(service);
  std::string payload;
  std::string previous_answer;
  int stale_checks = 0;
  for (int i = 0; i < 20000; ++i) {
    Tag tag;
    protocol.NextRequest(0, payload, tag);
    std::string answer = service.Handle(payload);
    ASSERT_EQ(protocol.Check(0, tag, answer), nullptr);
    if (tag.kind != KvProtocol::kGet) {
      continue;
    }
    if (!previous_answer.empty() && previous_answer != answer) {
      EXPECT_NE(protocol.Check(0, tag, previous_answer), nullptr);
      stale_checks++;
    }
    previous_answer = answer;
  }
  EXPECT_GT(stale_checks, 0);
}

TEST(EchoProtocolTest, RejectsACorruptedOrTruncatedEcho) {
  EchoProtocol protocol(/*seed=*/5, /*connections=*/1, /*mean_ns=*/1000);
  std::string payload;
  Tag tag;
  protocol.NextRequest(0, payload, tag);
  EXPECT_EQ(protocol.Check(0, tag, payload), nullptr);
  std::string corrupted = payload;
  corrupted[EchoProtocol::kPayloadBytes - 1] ^= 0x40;
  EXPECT_NE(protocol.Check(0, tag, corrupted), nullptr);
  EXPECT_NE(protocol.Check(0, tag, payload.substr(1)), nullptr);
  zygos::ResponseBuilder builder;
  SpinEcho(payload, builder);
  EXPECT_EQ(protocol.Check(0, tag, std::string_view(builder.payload_data(),
                                                    builder.payload_size())),
            nullptr);
}

TEST(TpccProtocolTest, RejectsWrongTypesStatusesAndLengths) {
  zygos::LoaderOptions scale = zygos::LoaderOptions::Tiny(1);
  TpccProtocol protocol(/*seed=*/9, /*connections=*/1, scale);
  std::string payload;
  bool saw_rollback = false;
  for (int i = 0; i < 3000; ++i) {
    Tag tag;
    protocol.NextRequest(0, payload, tag);
    ASSERT_TRUE(zygos::DecodeTpccRequest(payload).has_value());
    std::string committed = {static_cast<char>(zygos::TpccWireStatus::kCommitted),
                             static_cast<char>(tag.kind), 0, 0};
    std::string aborted = committed;
    aborted[0] = static_cast<char>(zygos::TpccWireStatus::kUserAbort);
    std::string malformed = committed;
    malformed[0] = static_cast<char>(zygos::TpccWireStatus::kMalformed);
    std::string other_type = committed;
    other_type[1] = static_cast<char>((tag.kind + 1) % zygos::kTpccTxnTypes);
    EXPECT_NE(protocol.Check(0, tag, malformed), nullptr);
    EXPECT_NE(protocol.Check(0, tag, other_type), nullptr);
    EXPECT_NE(protocol.Check(0, tag, committed.substr(0, 3)), nullptr);
    if (tag.flag != 0) {
      saw_rollback = true;
      EXPECT_NE(protocol.Check(0, tag, committed), nullptr);
      EXPECT_EQ(protocol.Check(0, tag, aborted), nullptr);
    } else if (tag.kind == static_cast<uint8_t>(zygos::TpccTxnType::kNewOrder)) {
      EXPECT_EQ(protocol.Check(0, tag, committed), nullptr);
    } else {
      EXPECT_EQ(protocol.Check(0, tag, committed), nullptr);
      EXPECT_NE(protocol.Check(0, tag, aborted), nullptr);
    }
  }
  EXPECT_TRUE(saw_rollback);
}

// Answers `count` NewOrders (none asked to roll back), the first `aborted` of them as
// user aborts, and returns the protocol's verdict on the unrequested-abort share.
std::string UnrequestedAbortVerdict(int count, int aborted) {
  TpccProtocol protocol(/*seed=*/5, /*connections=*/1, zygos::LoaderOptions::Tiny(1));
  std::string payload;
  int answered = 0;
  while (answered < count) {
    Tag tag;
    protocol.NextRequest(0, payload, tag);
    if (tag.kind != static_cast<uint8_t>(zygos::TpccTxnType::kNewOrder) || tag.flag != 0) {
      continue;
    }
    auto status = answered < aborted ? zygos::TpccWireStatus::kUserAbort
                                     : zygos::TpccWireStatus::kCommitted;
    std::string answer = {static_cast<char>(status), static_cast<char>(tag.kind), 0, 0};
    EXPECT_EQ(protocol.Check(0, tag, answer), nullptr);
    answered++;
  }
  EXPECT_EQ(protocol.new_orders(), static_cast<uint64_t>(count));
  EXPECT_EQ(protocol.unrequested_aborts(), static_cast<uint64_t>(aborted));
  return protocol.CheckUnrequestedAborts();
}

TEST(TpccProtocolTest, BoundsTheShareOfNewOrdersRolledBackUnasked) {
  EXPECT_EQ(UnrequestedAbortVerdict(1000, 0), "");
  EXPECT_EQ(UnrequestedAbortVerdict(1000, 21), "");  // the share seen in real runs
  EXPECT_EQ(UnrequestedAbortVerdict(1000, 40), "");  // exactly at the limit
  EXPECT_NE(UnrequestedAbortVerdict(1000, 41), "");
  EXPECT_NE(UnrequestedAbortVerdict(1000, 800), "");  // most NewOrders turned into aborts
}

// --- TPC-C consistency -------------------------------------------------------------

class ConsistencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    scale_ = zygos::LoaderOptions::Tiny(1);
    tables_ = zygos::LoadTpcc(db_, scale_);
  }

  template <typename Row>
  void Rewrite(zygos::TableId table, const std::string& key, void (*edit)(Row&)) {
    zygos::Transaction txn(db_);
    Row row = zygos::DecodeRow<Row>(*txn.Read(table, key));
    edit(row);
    txn.Write(table, key, zygos::EncodeRow(row));
    uint64_t tid = 0;
    ASSERT_EQ(txn.Commit(&tid), zygos::TxnStatus::kCommitted);
  }

  zygos::Database db_;
  zygos::LoaderOptions scale_;
  zygos::TpccTables tables_;
};

TEST_F(ConsistencyTest, HoldsAfterLoadingAndAfterServedTransactions) {
  EXPECT_EQ(CheckTpccConsistency(db_, tables_, scale_), "");
  zygos::TpccService service(db_, tables_, scale_);
  TpccProtocol protocol(/*seed=*/4, /*connections=*/1, scale_);
  std::string payload;
  for (int i = 0; i < 500; ++i) {
    Tag tag;
    protocol.NextRequest(0, payload, tag);
    zygos::ResponseBuilder builder;
    service.HandleView(payload, builder);
    ASSERT_EQ(protocol.Check(0, tag, std::string_view(builder.payload_data(),
                                                      builder.payload_size())),
              nullptr);
  }
  EXPECT_EQ(protocol.commits(), service.commits());
  EXPECT_EQ(CheckTpccConsistency(db_, tables_, scale_), "");
}

TEST_F(ConsistencyTest, CatchesABrokenWarehouseYtd) {
  Rewrite<zygos::WarehouseRow>(tables_.warehouse, zygos::WarehouseKey(1),
                               [](zygos::WarehouseRow& w) { w.w_ytd_cents += 1; });
  EXPECT_NE(CheckTpccConsistency(db_, tables_, scale_).find("w_ytd"), std::string::npos);
}

TEST_F(ConsistencyTest, CatchesABrokenNextOrderId) {
  Rewrite<zygos::DistrictRow>(tables_.district, zygos::DistrictKey(1, 3),
                              [](zygos::DistrictRow& d) { d.d_next_o_id += 1; });
  EXPECT_NE(CheckTpccConsistency(db_, tables_, scale_).find("d_next_o_id"),
            std::string::npos);
}

TEST_F(ConsistencyTest, CatchesAGapInNewOrders) {
  zygos::DistrictRow district;
  {
    zygos::Transaction txn(db_);
    district = zygos::DecodeRow<zygos::DistrictRow>(
        *txn.Read(tables_.district, zygos::DistrictKey(1, 2)));
    txn.Abort();
  }
  zygos::Transaction txn(db_);
  txn.Delete(tables_.new_order, zygos::NewOrderKey(1, 2, district.d_next_o_id - 2));
  uint64_t tid = 0;
  ASSERT_EQ(txn.Commit(&tid), zygos::TxnStatus::kCommitted);
  EXPECT_NE(CheckTpccConsistency(db_, tables_, scale_).find("contiguous"), std::string::npos);
}

// --- the client's order and echo checks, against a misbehaving server -------------

// Accepts one connection and echoes each request frame; `swap` answers requests in
// reversed pairs, `corrupt` flips a payload byte of the first answer of each batch.
class FakeServer {
 public:
  FakeServer(bool swap, bool corrupt) {
    listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    listen(listen_fd_, 1);
    socklen_t len = sizeof addr;
    getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this, swap, corrupt] { Serve(swap, corrupt); });
  }
  ~FakeServer() {
    thread_.join();
    close(listen_fd_);
  }
  FakeServer(const FakeServer&) = delete;
  FakeServer& operator=(const FakeServer&) = delete;

  uint16_t port() const { return port_; }

 private:
  void Serve(bool swap, bool corrupt) {
    int fd = accept(listen_fd_, nullptr, nullptr);
    std::string in;
    char buf[4096];
    for (;;) {
      ssize_t n = recv(fd, buf, sizeof buf, 0);
      if (n <= 0) {
        break;
      }
      in.append(buf, static_cast<size_t>(n));
      std::vector<std::string> frames;
      size_t off = 0;
      while (in.size() - off >= 12) {
        uint32_t len = 0;
        std::memcpy(&len, in.data() + off, 4);
        if (in.size() - off < 12 + len) {
          break;
        }
        frames.push_back(in.substr(off, 12 + len));
        off += 12 + len;
      }
      if (frames.empty() || (swap && frames.size() < 2)) {
        continue;  // a swap needs a pair; otherwise answer whatever is complete
      }
      in.erase(0, off);
      if (swap) {
        std::swap(frames[0], frames[1]);
      }
      if (corrupt) {
        frames[0].back() ^= 0x01;
      }
      for (const std::string& f : frames) {
        send(fd, f.data(), f.size(), MSG_NOSIGNAL);
      }
    }
    close(fd);
  }

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
};

std::string RunAgainstFakeServer(bool swap, bool corrupt) {
  FakeServer server(swap, corrupt);
  EchoProtocol protocol(/*seed=*/1, /*connections=*/1, /*mean_ns=*/0);
  ClosedLoopClient client(protocol, nullptr);
  EXPECT_TRUE(client.Connect(server.port(), 1));
  client.RunPhase(/*window=*/2, 0.0, 0.2, true);
  client.Close();
  return client.error();
}

TEST(ClientTest, AcceptsAWellBehavedServer) { EXPECT_EQ(RunAgainstFakeServer(false, false), ""); }

TEST(ClientTest, RejectsAReorderedAnswer) {
  EXPECT_NE(RunAgainstFakeServer(true, false).find("out of order"), std::string::npos);
}

TEST(ClientTest, RejectsACorruptedAnswer) {
  EXPECT_NE(RunAgainstFakeServer(false, true).find("echo differs"), std::string::npos);
}

// The whole live path on the real runtime: a correct KV server passes, and a handler
// that corrupts every hundredth GET answer is caught.
std::string RunKvServer(bool corrupt) {
  zygos::KvService service;
  KvProtocol protocol(/*seed=*/11, /*connections=*/2, /*keys_per_conn=*/500);
  protocol.Populate(service);
  zygos::RuntimeOptions options;
  options.num_workers = 2;
  options.num_flows = 16;
  options.max_flows = 16;
  auto transport = std::make_unique<zygos::TcpTransport>(zygos::TcpOptionsFor(options));
  zygos::TcpTransport* tcp = transport.get();
  std::atomic<int> gets{0};
  zygos::Runtime runtime(options, std::move(transport),
                         [&](uint64_t, std::string_view request, zygos::ResponseBuilder& out) {
                           service.HandleView(request, out);
                           if (corrupt && request[0] == 0 && ++gets % 100 == 0) {
                             out.payload_data()[1] ^= 0x01;
                           }
                         });
  runtime.Start();
  ClosedLoopClient client(protocol, nullptr);
  EXPECT_TRUE(client.Connect(tcp->port(), 1));
  client.RunPhase(/*window=*/4, 0.0, 0.3, false);
  client.Close();
  runtime.Shutdown();
  if (client.error().empty()) {
    EXPECT_EQ(client.answered(), runtime.Completed());
  }
  return client.error();
}

TEST(LiveKvTest, CorrectServerPassesAndCorruptedGetIsCaught) {
  EXPECT_EQ(RunKvServer(false), "");
  EXPECT_NE(RunKvServer(true).find("GET returned"), std::string::npos);
}

}  // namespace
}  // namespace perfbench
