#include "src/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <ctime>

#include "src/trace.h"

namespace perfbench {

int64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

namespace {

constexpr size_t kHeaderSize = 12;  // [u32 payload_len][u64 request_id]
constexpr uint32_t kShedFlag = 0x8000'0000u;
constexpr int64_t kDrainTimeoutNs = 5'000'000'000;

size_t SliceOf(int64_t t, int64_t begin, int64_t end) {
  return static_cast<size_t>((t - begin) * kSlices / (end - begin));
}

struct InFlight {
  uint64_t id = 0;
  int64_t sent_ns = 0;
  Tag tag;
};

}  // namespace

struct ClosedLoopClient::Conn {
  int fd = -1;
  int index = 0;
  uint64_t next_seq = 0;
  // Outstanding requests, oldest first: ring[head % kMaxWindow] .. count entries.
  InFlight ring[kMaxWindow];
  uint64_t head = 0;
  uint64_t count = 0;
  std::string tx;
  size_t tx_off = 0;
  std::string rx;
  size_t rx_off = 0;
};

ClosedLoopClient::ClosedLoopClient(Protocol& protocol, SpanTable* spans)
    : protocol_(protocol), spans_(spans) {}

ClosedLoopClient::~ClosedLoopClient() { Close(); }

void ClosedLoopClient::Fail(const std::string& what) {
  if (error_.empty()) {
    error_ = what;
  }
}

bool ClosedLoopClient::Connect(uint16_t port, int connections) {
  for (int i = 0; i < connections && i < kMaxConnections; ++i) {
    int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      Fail(std::string("socket: ") + std::strerror(errno));
      return false;
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      Fail(std::string("connect: ") + std::strerror(errno));
      close(fd);
      return false;
    }
    fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->index = i;
    conns_.push_back(std::move(conn));
  }
  return true;
}

void ClosedLoopClient::Close() {
  for (auto& c : conns_) {
    if (c->fd >= 0) {
      close(c->fd);
      c->fd = -1;
    }
  }
}

bool ClosedLoopClient::Flush(Conn& c) {
  while (c.tx_off < c.tx.size()) {
    ssize_t n = send(c.fd, c.tx.data() + c.tx_off, c.tx.size() - c.tx_off,
                     MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n > 0) {
      c.tx_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;  // the rest goes out on a later pass
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    Fail(std::string("send: ") + std::strerror(errno));
    return false;
  }
  c.tx.clear();
  c.tx_off = 0;
  return true;
}

uint64_t ClosedLoopClient::Receive(Conn& c, int64_t window_begin, int64_t window_end,
                                   PhaseResult& out, bool record_latency) {
  char buf[16384];
  ssize_t n = recv(c.fd, buf, sizeof buf, MSG_DONTWAIT);
  if (n == 0) {
    Fail("server closed connection " + std::to_string(c.index));
    return 0;
  }
  if (n < 0) {
    if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      Fail(std::string("recv: ") + std::strerror(errno));
    }
    return 0;
  }
  int64_t now = NowNs();
  c.rx.append(buf, static_cast<size_t>(n));
  uint64_t consumed = 0;
  while (c.rx.size() - c.rx_off >= kHeaderSize) {
    const char* head = c.rx.data() + c.rx_off;
    uint32_t len_word = 0;
    uint64_t id = 0;
    std::memcpy(&len_word, head, sizeof len_word);
    std::memcpy(&id, head + sizeof len_word, sizeof id);
    size_t len = len_word & ~kShedFlag;
    if (c.rx.size() - c.rx_off < kHeaderSize + len) {
      break;
    }
    std::string_view payload(head + kHeaderSize, len);
    c.rx_off += kHeaderSize + len;
    if (c.count == 0) {
      Fail("unsolicited answer on connection " + std::to_string(c.index));
      continue;
    }
    InFlight& req = c.ring[c.head % kMaxWindow];
    if (id != req.id) {
      Fail("answer out of order on connection " + std::to_string(c.index) + ": got seq " +
           std::to_string(SeqOf(id)) + ", expected " + std::to_string(SeqOf(req.id)));
    } else if ((len_word & kShedFlag) != 0) {
      Fail("request shed by the server");
    } else if (const char* wrong = protocol_.Check(c.index, req.tag, payload)) {
      Fail(std::string(wrong) + " (connection " + std::to_string(c.index) + ", seq " +
           std::to_string(SeqOf(id)) + ")");
    }
    c.head++;
    c.count--;
    consumed++;
    if (spans_ != nullptr) {
      spans_->Mark(req.id, kReceipt, now);
    }
    if (now >= window_begin && now < window_end) {
      out.measured++;
      out.slice_answered[SliceOf(now, window_begin, window_end)]++;
    }
    if (record_latency && req.sent_ns >= window_begin && req.sent_ns < window_end) {
      out.latency_ns.push_back(static_cast<uint32_t>(
          std::min<int64_t>(now - req.sent_ns, UINT32_MAX)));
      out.latency_slice.push_back(
          static_cast<uint8_t>(SliceOf(req.sent_ns, window_begin, window_end)));
    }
  }
  if (c.rx_off == c.rx.size()) {
    c.rx.clear();
    c.rx_off = 0;
  } else if (c.rx_off > 65536) {
    c.rx.erase(0, c.rx_off);
    c.rx_off = 0;
  }
  return consumed;
}

PhaseResult ClosedLoopClient::RunPhase(int window, double warmup_s, double measure_s,
                                       bool record_latency) {
  PhaseResult out;
  out.slice_answered.assign(kSlices, 0);
  window = std::min(window, kMaxWindow);
  int64_t start = NowNs();
  int64_t window_begin = start + static_cast<int64_t>(warmup_s * 1e9);
  int64_t window_end = window_begin + static_cast<int64_t>(measure_s * 1e9);
  bool in_window_marked[kMaxConnections] = {};
  uint64_t outstanding = 0;
  while (error_.empty()) {
    int64_t now = NowNs();
    bool sending = now < window_end;
    if (!sending && outstanding == 0) {
      break;
    }
    if (!sending && now > window_end + kDrainTimeoutNs) {
      Fail(std::to_string(outstanding) + " requests unanswered after the phase");
      break;
    }
    for (auto& cp : conns_) {
      Conn& c = *cp;
      if (sending && c.count < static_cast<uint64_t>(window)) {
        size_t first_new = c.count;
        while (c.count < static_cast<uint64_t>(window)) {
          InFlight& req = c.ring[(c.head + c.count) % kMaxWindow];
          req.id = RequestId(c.index, c.next_seq++);
          protocol_.NextRequest(c.index, payload_, req.tag);
          uint32_t len = static_cast<uint32_t>(payload_.size());
          char header[kHeaderSize];
          std::memcpy(header, &len, sizeof len);
          std::memcpy(header + sizeof len, &req.id, sizeof req.id);
          c.tx.append(header, kHeaderSize);
          c.tx.append(payload_);
          c.count++;
        }
        int64_t sent_ns = NowNs();
        for (size_t k = first_new; k < c.count; ++k) {
          InFlight& req = c.ring[(c.head + k) % kMaxWindow];
          req.sent_ns = sent_ns;
          if (spans_ != nullptr) {
            spans_->Mark(req.id, kSend, sent_ns);
            spans_->SetKind(req.id, req.tag.kind);
          }
          if (sent_ns >= window_begin && !in_window_marked[c.index]) {
            in_window_marked[c.index] = true;
            out.first_seq[c.index] = SeqOf(req.id);
          }
          if (sent_ns < window_end) {
            out.end_seq[c.index] = SeqOf(req.id) + 1;
          }
        }
        uint64_t added = c.count - first_new;
        attempted_ += added;
        outstanding += added;
      }
      if (!c.tx.empty() && !Flush(c)) {
        break;
      }
      uint64_t got = Receive(c, window_begin, window_end, out, record_latency);
      answered_ += got;
      outstanding -= got;
    }
  }
  out.measured_seconds = static_cast<double>(window_end - window_begin) / 1e9;
  return out;
}

}  // namespace perfbench
