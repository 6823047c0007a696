#include "src/trace.h"

#include <cstring>
#include <utility>

#include "src/net/message.h"

namespace perfbench {

SpanTable::SpanTable(int connections, size_t capacity)
    : connections_(connections),
      capacity_(capacity),
      spans_(static_cast<size_t>(connections) * capacity) {}

TransportCounters& TransportCounters::operator+=(const TransportCounters& o) {
  polls += o.polls;
  empty_polls += o.empty_polls;
  poll_ns += o.poll_ns;
  segments += o.segments;
  frames_out += o.frames_out;
  tx_ns += o.tx_ns;
  return *this;
}

TracingTransport::TracingTransport(std::unique_ptr<zygos::Transport> inner,
                                   SpanTable& spans, size_t max_flows,
                                   const std::atomic<int>& phase)
    : inner_(std::move(inner)),
      spans_(spans),
      phase_(phase),
      counters_(static_cast<size_t>(inner_->num_queues())) {
  for (size_t f = 0; f < max_flows; ++f) {
    flows_.push_back(std::make_unique<FlowTrace>());
  }
}

void TracingTransport::WalkSegment(const zygos::Segment& segment, int64_t now) {
  if (segment.flow_id >= flows_.size()) {
    return;
  }
  FlowTrace& flow = *flows_[segment.flow_id];
  std::string_view bytes = segment.buf.view();
  while (!bytes.empty()) {
    if (flow.payload_left > 0) {
      size_t skip = std::min(flow.payload_left, bytes.size());
      flow.payload_left -= skip;
      bytes.remove_prefix(skip);
      continue;
    }
    size_t take = std::min(zygos::kFrameHeaderSize - flow.header_filled, bytes.size());
    std::memcpy(flow.header + flow.header_filled, bytes.data(), take);
    flow.header_filled += take;
    bytes.remove_prefix(take);
    if (flow.header_filled < zygos::kFrameHeaderSize) {
      break;
    }
    uint32_t len_word = 0;
    uint64_t request_id = 0;
    std::memcpy(&len_word, flow.header, sizeof len_word);
    std::memcpy(&request_id, flow.header + sizeof len_word, sizeof request_id);
    flow.header_filled = 0;
    flow.payload_left = len_word & zygos::kFrameLenMask;
    flow.ids[flow.delivered++ % kRingSize].store(request_id, std::memory_order_relaxed);
    spans_.Mark(request_id, kRx, now);
  }
}

size_t TracingTransport::PollBatch(int queue, std::span<zygos::Segment> out,
                                   std::vector<zygos::ControlEvent>& control) {
  int64_t start = NowNs();
  size_t n = inner_->PollBatch(queue, out, control);
  int64_t end = NowNs();
  TransportCounters& counters =
      counters_[static_cast<size_t>(queue)].phase[phase_.load(std::memory_order_relaxed)];
  counters.polls++;
  counters.poll_ns += static_cast<uint64_t>(end - start);
  if (n == 0) {
    counters.empty_polls++;
  }
  counters.segments += n;
  for (size_t i = 0; i < n; ++i) {
    WalkSegment(out[i], end);
  }
  return n;
}

size_t TracingTransport::TransmitBatch(int queue, std::span<zygos::TxSegment> batch) {
  // Ids are read before the call: the transport may release the frames.
  uint64_t ids[64];
  size_t noted = std::min(batch.size(), std::size(ids));
  for (size_t i = 0; i < noted; ++i) {
    ids[i] = batch[i].request_id;
  }
  int64_t start = NowNs();
  size_t n = inner_->TransmitBatch(queue, batch);
  int64_t end = NowNs();
  TransportCounters& counters =
      counters_[static_cast<size_t>(queue)].phase[phase_.load(std::memory_order_relaxed)];
  counters.frames_out += batch.size();
  counters.tx_ns += static_cast<uint64_t>(end - start);
  for (size_t i = 0; i < noted; ++i) {
    spans_.Mark(ids[i], kTxEntry, start);
    spans_.Mark(ids[i], kTxReturn, end);
  }
  return n;
}

TransportCounters TracingTransport::Totals(int phase) const {
  TransportCounters total;
  for (const QueueCounters& q : counters_) {
    total += q.phase[phase];
  }
  return total;
}

zygos::ViewHandler TracingTransport::TracedHandler(zygos::ViewHandler handler) {
  return [this, handler = std::move(handler)](uint64_t flow_id, std::string_view request,
                                              zygos::ResponseBuilder& response) {
    if (flow_id >= flows_.size()) {
      handler(flow_id, request, response);
      return;
    }
    FlowTrace& flow = *flows_[flow_id];
    uint64_t request_id = flow.ids[flow.handled++ % kRingSize].load(std::memory_order_relaxed);
    int64_t start = NowNs();
    handler(flow_id, request, response);
    int64_t end = NowNs();
    spans_.Mark(request_id, kHandlerStart, start);
    spans_.Mark(request_id, kHandlerEnd, end);
  };
}

}  // namespace perfbench
