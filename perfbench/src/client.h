// The benchmark's closed-loop client: one thread driving up to four loopback TCP
// connections to an in-process server, speaking the program's wire framing
// ([u32 payload_len][u64 request_id][payload], little-endian).
//
// Each connection keeps a fixed window of requests outstanding: a new request goes
// out only when an answer comes back, so a slow server receives less load and no
// backlog can build up outside the server (the property that keeps the figures
// repeatable on a small host, where open-loop tails are not). Every answer is checked
// by the workload's Protocol, in per-connection order: an answer must carry the id of
// the oldest request outstanding on its connection.
//
// Request ids carry their connection and per-connection sequence number
// (RequestId), which is how the tracing decorator (trace.h) files server-side stamps
// against the client's own.
#ifndef PERFBENCH_CLIENT_H_
#define PERFBENCH_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class SpanTable;

inline constexpr int kMaxConnections = 4;
inline constexpr int kMaxWindow = 64;
inline constexpr int kSeqBits = 48;
inline constexpr int kSlices = 10;

inline uint64_t RequestId(int conn, uint64_t seq) {
  return (static_cast<uint64_t>(conn) << kSeqBits) | seq;
}
inline int ConnOf(uint64_t request_id) { return static_cast<int>(request_id >> kSeqBits); }
inline uint64_t SeqOf(uint64_t request_id) {
  return request_id & ((uint64_t{1} << kSeqBits) - 1);
}

// What a protocol remembers about one outstanding request to check its answer.
struct Tag {
  uint8_t kind = 0;  // protocol-defined request class (KV op, TPC-C transaction)
  uint8_t flag = 0;  // protocol-defined (TPC-C: rollback requested)
  uint16_t len = 0;  // protocol-defined (echo: payload length; KV: value length)
  uint64_t word = 0; // protocol-defined (echo: payload hash; KV: expected value)
};

// A workload's request generator and answer checker. Requests on one connection are
// generated, sent and checked in order.
class Protocol {
 public:
  virtual ~Protocol() = default;
  // Writes the next request payload for `conn` into `payload` (cleared first).
  virtual void NextRequest(int conn, std::string& payload, Tag& tag) = 0;
  // nullptr when `response` is the right answer to the request `tag` describes,
  // else a short description of what is wrong.
  virtual const char* Check(int conn, const Tag& tag, std::string_view response) = 0;
};

struct PhaseResult {
  // Answers received inside the measurement window (after warm-up), and its length.
  uint64_t measured = 0;
  double measured_seconds = 0.0;
  // The measured window split into kSlices equal slices: answers received in each.
  std::vector<uint64_t> slice_answered;
  // Round trips (ns) of requests sent inside the window, when latency is recorded,
  // and the slice each was sent in.
  std::vector<uint32_t> latency_ns;
  std::vector<uint8_t> latency_slice;
  // Per-connection sequence numbers [first, last) of the requests sent inside the
  // window: the requests whose spans the traced run analyses.
  uint64_t first_seq[kMaxConnections] = {};
  uint64_t end_seq[kMaxConnections] = {};
};

class ClosedLoopClient {
 public:
  // `spans` may be null (untraced run).
  ClosedLoopClient(Protocol& protocol, SpanTable* spans);
  ~ClosedLoopClient();
  ClosedLoopClient(const ClosedLoopClient&) = delete;
  ClosedLoopClient& operator=(const ClosedLoopClient&) = delete;

  // Opens `connections` (≤ kMaxConnections) connections to 127.0.0.1:`port`, one
  // after the other, so the server mints their flow ids in connection order.
  bool Connect(uint16_t port, int connections);

  // Runs one phase: `window` requests outstanding per connection for warm-up plus
  // measurement time, then stops sending and collects every outstanding answer.
  PhaseResult RunPhase(int window, double warmup_s, double measure_s, bool record_latency);

  // Closes every connection.
  void Close();

  uint64_t attempted() const { return attempted_; }
  uint64_t answered() const { return answered_; }
  // First failure seen (wrong answer, lost connection, unanswered requests); empty
  // while everything checked out.
  const std::string& error() const { return error_; }

 private:
  struct Conn;

  void Fail(const std::string& what);
  // Sends what is queued on `c`; false when the connection broke.
  bool Flush(Conn& c);
  // Reads and checks every complete answer on `c`; returns answers consumed.
  uint64_t Receive(Conn& c, int64_t window_begin, int64_t window_end, PhaseResult& out,
                   bool record_latency);

  Protocol& protocol_;
  SpanTable* spans_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::string payload_;
  uint64_t attempted_ = 0;
  uint64_t answered_ = 0;
  std::string error_;
};

// Monotonic clock in ns, the same clock the program stamps its segments with.
int64_t NowNs();

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_H_
