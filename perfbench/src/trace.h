// Per-layer tracing from outside the program, for the traced run of a workload.
//
// Nothing here reaches inside the program: every stamp is taken around a call into a
// public interface.
//   - TracingTransport wraps the real Transport (src/runtime/transport.h) and times
//     each PollBatch and TransmitBatch. It walks the frame headers of the bytes
//     PollBatch hands up, so it learns which request ids arrived, and when.
//   - TracedHandler wraps the application's ViewHandler and times each call. The
//     runtime executes a flow's requests in arrival order (the §4.3 guarantee), so the
//     k-th handler call on a flow is the k-th frame the transport delivered on it.
//   - The client stamps its own send and receipt (client.h).
//
// A request's spans run from stamp to stamp along the request path:
//   send → PollBatch return → handler start → handler end → TransmitBatch entry →
//   TransmitBatch return → receipt.
// Stamps are kept in memory (SpanTable) and analysed when the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/concurrency/cache_line.h"
#include "src/runtime/runtime.h"
#include "src/runtime/transport.h"
#include "src/client.h"

namespace perfbench {

enum Stamp : int {
  kSend,
  kRx,
  kHandlerStart,
  kHandlerEnd,
  kTxEntry,
  kTxReturn,
  kReceipt,
  kStamps
};

struct Span {
  int64_t t[kStamps] = {};
  uint8_t kind = 0;  // the request's Tag::kind, set by the client
};

// Stamps for the first `capacity` requests of each connection, indexed by request id.
// Each stamp of a request is written by exactly one thread (client, home worker, or
// the worker that ran the handler), and read only after the server has shut down.
class SpanTable {
 public:
  SpanTable(int connections, size_t capacity);

  void Mark(uint64_t request_id, Stamp stamp, int64_t ns) {
    int conn = ConnOf(request_id);
    uint64_t seq = SeqOf(request_id);
    if (conn < connections_ && seq < capacity_) {
      spans_[static_cast<size_t>(conn) * capacity_ + seq].t[stamp] = ns;
    }
  }
  void SetKind(uint64_t request_id, uint8_t kind) {
    int conn = ConnOf(request_id);
    uint64_t seq = SeqOf(request_id);
    if (conn < connections_ && seq < capacity_) {
      spans_[static_cast<size_t>(conn) * capacity_ + seq].kind = kind;
    }
  }
  // nullptr when the request was beyond capacity.
  const Span* Find(int conn, uint64_t seq) const {
    return conn < connections_ && seq < capacity_
               ? &spans_[static_cast<size_t>(conn) * capacity_ + seq]
               : nullptr;
  }

 private:
  int connections_;
  size_t capacity_;
  std::vector<Span> spans_;
};

// Counters the decorator keeps per queue, per client phase (0 light, 1 saturated).
struct TransportCounters {
  uint64_t polls = 0;
  uint64_t empty_polls = 0;  // PollBatch passes that returned no segment
  uint64_t poll_ns = 0;
  uint64_t segments = 0;
  uint64_t frames_out = 0;
  uint64_t tx_ns = 0;

  TransportCounters& operator+=(const TransportCounters& o);
};

class TracingTransport final : public zygos::Transport {
 public:
  // `phase` is the client's current phase index (0 or 1), read on every call.
  TracingTransport(std::unique_ptr<zygos::Transport> inner, SpanTable& spans,
                   size_t max_flows, const std::atomic<int>& phase);

  int num_queues() const override { return inner_->num_queues(); }
  int QueueOf(uint64_t flow_id) const override { return inner_->QueueOf(flow_id); }
  const zygos::RssTable& rss() const override { return inner_->rss(); }
  zygos::RssTable& mutable_rss() override { return inner_->mutable_rss(); }
  void Start() override { inner_->Start(); }
  void Stop() override { inner_->Stop(); }
  size_t PollBatch(int queue, std::span<zygos::Segment> out,
                   std::vector<zygos::ControlEvent>& control) override;
  size_t TransmitBatch(int queue, std::span<zygos::TxSegment> batch) override;
  bool ApproxNonEmpty(int queue) const override { return inner_->ApproxNonEmpty(queue); }
  void CloseFlow(int queue, uint64_t flow_id) override { inner_->CloseFlow(queue, flow_id); }
  void ReleaseFlowId(uint64_t flow_id) override { inner_->ReleaseFlowId(flow_id); }
  uint64_t Drops() const override { return inner_->Drops(); }
  uint64_t IoSyscalls() const override { return inner_->IoSyscalls(); }

  // Sum over queues of the counters for `phase`. Exact once the runtime has stopped.
  TransportCounters Totals(int phase) const;

  // Wraps `handler` so each call is timed and filed against its request.
  zygos::ViewHandler TracedHandler(zygos::ViewHandler handler);

 private:
  static constexpr size_t kRingSize = 256;  // > kMaxWindow: ids a flow has in flight

  // Frame-header walker and arrival-order id ring for one flow. The walker and the
  // ring's producer run on the flow's home worker; the consumer (`handled`) runs on
  // whichever worker owns the flow, one at a time.
  struct FlowTrace {
    char header[zygos::kFrameHeaderSize] = {};
    size_t header_filled = 0;
    size_t payload_left = 0;
    uint64_t delivered = 0;
    uint64_t handled = 0;
    std::atomic<uint64_t> ids[kRingSize] = {};
  };

  struct alignas(zygos::kCacheLineSize) QueueCounters {
    TransportCounters phase[2];
  };

  // Walks one segment's bytes, stamping each request id whose header completes.
  void WalkSegment(const zygos::Segment& segment, int64_t now);

  std::unique_ptr<zygos::Transport> inner_;
  SpanTable& spans_;
  const std::atomic<int>& phase_;
  std::vector<std::unique_ptr<FlowTrace>> flows_;
  std::vector<QueueCounters> counters_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
