#include "src/checks.h"

#include <climits>
#include <cstring>

#include "src/client.h"
#include "src/db/record.h"
#include "src/db/tpcc_random.h"
#include "src/db/txn.h"
#include "src/services/tpcc_service.h"

namespace perfbench {
namespace {

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : bytes) {
    h = (h ^ static_cast<uint8_t>(c)) * 0x100000001b3ULL;
  }
  return h;
}

std::vector<SplitMix> ConnectionStreams(uint64_t seed, uint64_t salt, int connections) {
  std::vector<SplitMix> rngs;
  SplitMix seeder(seed ^ salt);
  for (int c = 0; c < connections; ++c) {
    rngs.emplace_back(seeder.Next());
  }
  return rngs;
}

// USR keys are 19-21 bytes: a numeric core padded with letters derived from the index.
std::string UsrKey(uint64_t index) {
  std::string key = "u" + std::to_string(index);
  size_t target = 19 + index % 3;
  while (key.size() < target) {
    key.push_back(static_cast<char>('a' + (key.size() * 7 + index) % 26));
  }
  return key;
}

}  // namespace

// ---------------------------------------------------------------------------------
// kv-usr

KvProtocol::KvProtocol(uint64_t seed, int connections, uint64_t keys_per_conn)
    : keys_per_conn_(keys_per_conn), rngs_(ConnectionStreams(seed, 0x6b76, connections)) {
  SplitMix values(seed ^ 0x76616c);
  uint64_t total = keys_per_conn * static_cast<uint64_t>(connections);
  keys_.reserve(total);
  values_.reserve(total);
  for (uint64_t i = 0; i < total; ++i) {
    keys_.push_back(UsrKey(i));
    values_.push_back(RandomValue(values));
  }
}

uint16_t KvProtocol::RandomValue(SplitMix& rng) {
  // Two printable bytes.
  uint64_t r = rng.Next();
  return static_cast<uint16_t>((0x21 + r % 94) | ((0x21 + (r >> 8) % 94) << 8));
}

void KvProtocol::Populate(zygos::KvService& service) const {
  for (size_t i = 0; i < keys_.size(); ++i) {
    service.table().Set(keys_[i], std::string_view(
                                      reinterpret_cast<const char*>(&values_[i]), 2));
  }
}

void KvProtocol::NextRequest(int conn, std::string& payload, Tag& tag) {
  SplitMix& rng = rngs_[static_cast<size_t>(conn)];
  uint64_t index = static_cast<uint64_t>(conn) * keys_per_conn_ + rng.Below(keys_per_conn_);
  const std::string& key = keys_[index];
  bool get = rng.Below(1000) < 998;
  payload.clear();
  payload.push_back(static_cast<char>(get ? kGet : kSet));
  auto key_len = static_cast<uint16_t>(key.size());
  payload.append(reinterpret_cast<const char*>(&key_len), sizeof key_len);
  payload.append(key);
  tag.kind = get ? kGet : kSet;
  if (!get) {
    values_[index] = RandomValue(rng);
    payload.append(reinterpret_cast<const char*>(&values_[index]), 2);
  }
  tag.word = values_[index];
}

const char* KvProtocol::Check(int, const Tag& tag, std::string_view response) {
  if (response.empty()) {
    return "empty KV answer";
  }
  if (response[0] == static_cast<char>(zygos::KvStatus::kMiss)) {
    return "GET missed a populated key";
  }
  if (response[0] != static_cast<char>(zygos::KvStatus::kOk)) {
    return "KV answer carries an error status";
  }
  if (tag.kind == kSet) {
    return response.size() == 1 ? nullptr : "SET answer carries a value";
  }
  auto expected = static_cast<uint16_t>(tag.word);
  if (response.size() != 3 ||
      std::memcmp(response.data() + 1, &expected, sizeof expected) != 0) {
    return "GET returned a value other than the last one written";
  }
  return nullptr;
}

// ---------------------------------------------------------------------------------
// spin-skew

EchoProtocol::EchoProtocol(uint64_t seed, int connections, double mean_ns)
    : mean_ns_(mean_ns), rngs_(ConnectionStreams(seed, 0x7370, connections)) {}

void EchoProtocol::NextRequest(int conn, std::string& payload, Tag& tag) {
  SplitMix& rng = rngs_[static_cast<size_t>(conn)];
  auto spin_ns = static_cast<uint32_t>(std::min(rng.Exponential(mean_ns_), 1e9));
  payload.assign(reinterpret_cast<const char*>(&spin_ns), sizeof spin_ns);
  while (payload.size() < kPayloadBytes) {
    uint64_t filler = rng.Next();
    payload.append(reinterpret_cast<const char*>(&filler), sizeof filler);
  }
  payload.resize(kPayloadBytes);
  tag.len = static_cast<uint16_t>(payload.size());
  tag.word = Fnv1a(payload);
}

const char* EchoProtocol::Check(int, const Tag& tag, std::string_view response) {
  if (response.size() != tag.len || Fnv1a(response) != tag.word) {
    return "echo differs from its request";
  }
  return nullptr;
}

void SpinEcho(std::string_view request, zygos::ResponseBuilder& response) {
  uint32_t spin_ns = 0;
  if (request.size() >= sizeof spin_ns) {
    std::memcpy(&spin_ns, request.data(), sizeof spin_ns);
  }
  int64_t until = NowNs() + spin_ns;
  while (NowNs() < until) {
  }
  response.Append(request);
}

// ---------------------------------------------------------------------------------
// tpcc-mix

TpccProtocol::TpccProtocol(uint64_t seed, int connections,
                           const zygos::LoaderOptions& scale)
    : scale_(scale), rngs_(ConnectionStreams(seed, 0x7470, connections)) {}

int32_t TpccProtocol::NuRand(SplitMix& rng, int32_t a, int32_t x, int32_t y) const {
  // NURand's run-time constants C (clause 2.1.6), fixed so that every seed puts its
  // hot spots on the same customers and items.
  int32_t c = a == 255 ? 157 : a == 1023 ? 259 : 7911;
  auto r = static_cast<int32_t>(rng.Range(0, a) | rng.Range(x, y));
  return (r + c) % (y - x + 1) + x;
}

void TpccProtocol::NextRequest(int conn, std::string& payload, Tag& tag) {
  SplitMix& rng = rngs_[static_cast<size_t>(conn)];
  const int32_t customers = scale_.customers_per_district;
  const int32_t items = scale_.items;
  const int32_t w = static_cast<int32_t>(rng.Range(1, scale_.num_warehouses));
  zygos::TpccRequest request;
  int64_t deck = rng.Range(1, 100);
  tag.flag = 0;
  if (deck <= 45) {
    request.type = zygos::TpccTxnType::kNewOrder;
    auto& p = request.new_order;
    p.w = w;
    p.d = static_cast<int32_t>(rng.Range(1, zygos::kTpccDistrictsPerWarehouse));
    p.c = NuRand(rng, 1023, 1, customers);
    p.ol_cnt = static_cast<int32_t>(rng.Range(5, zygos::kTpccMaxOrderLines));
    for (int32_t i = 0; i < p.ol_cnt; ++i) {
      p.lines[static_cast<size_t>(i)] = {NuRand(rng, 8191, 1, items), w,
                                         static_cast<int32_t>(rng.Range(1, 10))};
    }
    if (rng.Range(1, 100) == 1) {
      // The spec's 1 % rollback: the last line names an item that does not exist.
      p.lines[static_cast<size_t>(p.ol_cnt - 1)].i_id = items + 1;
      tag.flag = 1;
    }
  } else if (deck <= 88) {
    request.type = zygos::TpccTxnType::kPayment;
    auto& p = request.payment;
    p.w = w;
    p.d = static_cast<int32_t>(rng.Range(1, zygos::kTpccDistrictsPerWarehouse));
    p.c_w = w;
    p.c_d = p.d;
    p.by_name = rng.Range(1, 100) <= 60;
    if (p.by_name) {
      p.last = zygos::TpccRandom::LastName(NuRand(rng, 255, 0, std::min(999, customers - 1)));
    }
    p.c_id = NuRand(rng, 1023, 1, customers);
    p.amount_cents = rng.Range(100, 500000);
  } else if (deck <= 92) {
    request.type = zygos::TpccTxnType::kOrderStatus;
    auto& p = request.order_status;
    p.w = w;
    p.d = static_cast<int32_t>(rng.Range(1, zygos::kTpccDistrictsPerWarehouse));
    p.by_name = rng.Range(1, 100) <= 60;
    if (p.by_name) {
      p.last = zygos::TpccRandom::LastName(NuRand(rng, 255, 0, std::min(999, customers - 1)));
    }
    p.c_id = NuRand(rng, 1023, 1, customers);
  } else if (deck <= 96) {
    request.type = zygos::TpccTxnType::kDelivery;
    request.delivery = {w, static_cast<int32_t>(rng.Range(1, 10))};
  } else {
    request.type = zygos::TpccTxnType::kStockLevel;
    request.stock_level = {w, static_cast<int32_t>(rng.Range(1, zygos::kTpccDistrictsPerWarehouse)),
                           static_cast<int32_t>(rng.Range(10, 20))};
  }
  tag.kind = static_cast<uint8_t>(request.type);
  payload.clear();
  zygos::EncodeTpccRequest(request, payload);
}

const char* TpccProtocol::Check(int, const Tag& tag, std::string_view response) {
  if (response.size() != 4) {
    return "TPC-C answer is not 4 bytes";
  }
  auto status = static_cast<zygos::TpccWireStatus>(response[0]);
  if (static_cast<uint8_t>(response[1]) != tag.kind) {
    return "TPC-C answer names another transaction type";
  }
  if (tag.flag != 0 && status != zygos::TpccWireStatus::kUserAbort) {
    return "requested NewOrder rollback was not rolled back";
  }
  bool new_order = tag.kind == static_cast<uint8_t>(zygos::TpccTxnType::kNewOrder);
  // A NewOrder that raced another on its district's next order id can come back as a
  // user abort too (an insert that finds the order id taken ends the transaction
  // instead of retrying it); it is a clean rollback, so it counts as answered, and
  // CheckUnrequestedAborts bounds how many there may be.
  if (status == zygos::TpccWireStatus::kUserAbort && new_order) {
    new_orders_++;
    user_aborts_++;
    unrequested_aborts_ += tag.flag == 0 ? 1 : 0;
    return nullptr;
  }
  if (status != zygos::TpccWireStatus::kCommitted) {
    static const char* const kAborted[zygos::kTpccTxnTypes] = {
        "NewOrder aborted", "Payment aborted", "OrderStatus aborted", "Delivery aborted",
        "StockLevel aborted"};
    return status == zygos::TpccWireStatus::kMalformed ? "TPC-C request refused as malformed"
                                                      : kAborted[tag.kind];
  }
  new_orders_ += new_order ? 1 : 0;
  commits_++;
  return nullptr;
}

std::string TpccProtocol::CheckUnrequestedAborts() const {
  if (static_cast<double>(unrequested_aborts_) <=
      kMaxUnrequestedAbortShare * static_cast<double>(new_orders_)) {
    return "";
  }
  return std::to_string(unrequested_aborts_) + " of " + std::to_string(new_orders_) +
         " NewOrders rolled back unasked, above the " +
         std::to_string(kMaxUnrequestedAbortShare) + " share allowed";
}

// ---------------------------------------------------------------------------------
// TPC-C consistency

namespace {

int32_t TrailingId(const std::string& key) {
  size_t n = key.size();
  return static_cast<int32_t>((static_cast<uint32_t>(static_cast<uint8_t>(key[n - 4])) << 24) |
                              (static_cast<uint32_t>(static_cast<uint8_t>(key[n - 3])) << 16) |
                              (static_cast<uint32_t>(static_cast<uint8_t>(key[n - 2])) << 8) |
                              static_cast<uint32_t>(static_cast<uint8_t>(key[n - 1])));
}

template <typename Row>
bool ReadRow(zygos::Database& db, zygos::TableId table, const std::string& key, Row& row) {
  zygos::Transaction txn(db);
  auto raw = txn.Read(table, key);
  txn.Abort();
  if (!raw.has_value() || raw->size() != sizeof(Row)) {
    return false;
  }
  row = zygos::DecodeRow<Row>(*raw);
  return true;
}

}  // namespace

std::string CheckTpccConsistency(zygos::Database& db, const zygos::TpccTables& tables,
                                 const zygos::LoaderOptions& scale) {
  for (int32_t w = 1; w <= scale.num_warehouses; ++w) {
    std::string where = "warehouse " + std::to_string(w);
    zygos::WarehouseRow warehouse;
    if (!ReadRow(db, tables.warehouse, zygos::WarehouseKey(w), warehouse)) {
      return where + " is missing";
    }
    int64_t district_ytd = 0;
    for (int32_t d = 1; d <= zygos::kTpccDistrictsPerWarehouse; ++d) {
      std::string here = where + " district " + std::to_string(d);
      zygos::DistrictRow district;
      if (!ReadRow(db, tables.district, zygos::DistrictKey(w, d), district)) {
        return here + " is missing";
      }
      district_ytd += district.d_ytd_cents;

      int32_t max_order = 0;
      std::vector<int32_t> new_orders;
      zygos::Transaction txn(db);
      txn.Scan(tables.order, zygos::OrderKey(w, d, 0), zygos::OrderKey(w, d, INT32_MAX), true,
               1, [&max_order](const std::string& key, const std::string&) {
                 max_order = TrailingId(key);
                 return false;
               });
      txn.Scan(tables.new_order, zygos::NewOrderKey(w, d, 0),
               zygos::NewOrderKey(w, d, INT32_MAX), false, 0,
               [&new_orders](const std::string& key, const std::string&) {
                 new_orders.push_back(TrailingId(key));
                 return true;
               });
      txn.Abort();
      // Condition 2: d_next_o_id - 1 = max(o_id) = max(no_o_id).
      if (max_order != district.d_next_o_id - 1) {
        return here + ": d_next_o_id - 1 = " + std::to_string(district.d_next_o_id - 1) +
               " but max(o_id) = " + std::to_string(max_order);
      }
      if (!new_orders.empty() && new_orders.back() != max_order) {
        return here + ": max(no_o_id) = " + std::to_string(new_orders.back()) +
               " but max(o_id) = " + std::to_string(max_order);
      }
      // Condition 3: NEW-ORDER ids are contiguous.
      if (!new_orders.empty() &&
          new_orders.back() - new_orders.front() + 1 != static_cast<int32_t>(new_orders.size())) {
        return here + ": NEW-ORDER ids are not contiguous";
      }
    }
    // Condition 1: w_ytd = Σ d_ytd.
    if (warehouse.w_ytd_cents != district_ytd) {
      return where + ": w_ytd = " + std::to_string(warehouse.w_ytd_cents) +
             " but sum(d_ytd) = " + std::to_string(district_ytd);
    }
  }
  return "";
}

}  // namespace perfbench
