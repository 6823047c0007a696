// The live workloads' request generators and answer checkers, and the TPC-C
// consistency check run on the tables after the server stops.
//
// Every generator draws from the benchmark's own seeded random numbers (stats.h), one
// stream per connection, so a connection's request sequence is a pure function of the
// seed however the connections interleave.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/client.h"
#include "src/db/database.h"
#include "src/db/tpcc_loader.h"
#include "src/db/tpcc_schema.h"
#include "src/kvstore/service.h"
#include "src/net/message.h"
#include "src/stats.h"

namespace perfbench {

// kv-usr: the memcached USR mix (99.8 % GET, 19-21 byte keys, 2-byte values, uniform
// keys). Connection c owns keys [c·keys_per_conn, (c+1)·keys_per_conn), so its SETs are
// the only writes its GETs can observe: the model map kept here is exact, and every
// GET must return the model's value and never miss.
class KvProtocol final : public Protocol {
 public:
  static constexpr uint8_t kGet = 0;
  static constexpr uint8_t kSet = 1;

  KvProtocol(uint64_t seed, int connections, uint64_t keys_per_conn);

  // Loads every key with its generated value into the server's table.
  void Populate(zygos::KvService& service) const;

  void NextRequest(int conn, std::string& payload, Tag& tag) override;
  const char* Check(int conn, const Tag& tag, std::string_view response) override;

  uint64_t num_keys() const { return keys_.size(); }

 private:
  uint16_t RandomValue(SplitMix& rng);

  uint64_t keys_per_conn_;
  std::vector<std::string> keys_;
  std::vector<uint16_t> values_;  // the model: current 2-byte value of every key
  std::vector<SplitMix> rngs_;
};

// spin-skew: the paper's synthetic task. A request carries its spin time (exponential,
// mean `mean_ns`) and random filler; the server spins that long and echoes the request.
class EchoProtocol final : public Protocol {
 public:
  static constexpr size_t kPayloadBytes = 32;

  EchoProtocol(uint64_t seed, int connections, double mean_ns);

  void NextRequest(int conn, std::string& payload, Tag& tag) override;
  const char* Check(int conn, const Tag& tag, std::string_view response) override;

 private:
  double mean_ns_;
  std::vector<SplitMix> rngs_;
};

// The spin-skew server's application: spin for the requested time, echo the request.
void SpinEcho(std::string_view request, zygos::ResponseBuilder& response);

// tpcc-mix: the standard five-transaction deck (45/43/4/4/4) against one warehouse,
// inputs drawn per the spec (NURand customers and items, 60 % by-name selections, 1 %
// NewOrder rollbacks). An answer must carry the request's transaction type and be
// committed; a requested rollback must come back as a user abort, and a NewOrder may,
// up to kMaxUnrequestedAbortShare of the NewOrders answered (CheckUnrequestedAborts).
class TpccProtocol final : public Protocol {
 public:
  // A NewOrder that races another on its district's next order id can come back as a
  // user abort although no rollback was asked for (`TxnExecutor::Run` ends the
  // transaction when its insert finds the order id taken, instead of retrying it).
  // 1.7-2.1 % of NewOrders did in forty 25 s runs of this benchmark, and up to 3.0 %
  // in earlier 15 s runs; the limit is about twice the usual share, so a run fails
  // when the program turns clearly more NewOrders into aborts than it did when the
  // limit was set.
  static constexpr double kMaxUnrequestedAbortShare = 0.04;

  TpccProtocol(uint64_t seed, int connections, const zygos::LoaderOptions& scale);

  void NextRequest(int conn, std::string& payload, Tag& tag) override;
  const char* Check(int conn, const Tag& tag, std::string_view response) override;

  uint64_t commits() const { return commits_; }
  uint64_t user_aborts() const { return user_aborts_; }
  // NewOrders that came back rolled back although no rollback was requested.
  uint64_t unrequested_aborts() const { return unrequested_aborts_; }
  uint64_t new_orders() const { return new_orders_; }
  // Empty when at most kMaxUnrequestedAbortShare of the NewOrders answered so far came
  // back rolled back unasked, else why not.
  std::string CheckUnrequestedAborts() const;

 private:
  int32_t NuRand(SplitMix& rng, int32_t a, int32_t x, int32_t y) const;

  zygos::LoaderOptions scale_;
  std::vector<SplitMix> rngs_;
  uint64_t commits_ = 0;
  uint64_t user_aborts_ = 0;
  uint64_t unrequested_aborts_ = 0;
  uint64_t new_orders_ = 0;  // NewOrders answered, committed or rolled back
};

// TPC-C clause 3.3 consistency conditions 1-3 over every district of the loaded
// warehouses: w_ytd = Σ d_ytd; d_next_o_id − 1 = max(o_id) = max(no_o_id); NEW-ORDER
// ids of a district are contiguous. Run on a quiesced database. Empty when all hold,
// else the first violation.
std::string CheckTpccConsistency(zygos::Database& db, const zygos::TpccTables& tables,
                                 const zygos::LoaderOptions& scale);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
