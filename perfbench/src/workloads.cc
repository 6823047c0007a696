#include "src/workloads.h"

#include <sys/resource.h>

#include <atomic>
#include <cmath>
#include <functional>
#include <map>
#include <memory>

#include "src/checks.h"
#include "src/client.h"
#include "src/common/buffer_pool.h"
#include "src/common/histogram.h"
#include "src/common/distribution.h"
#include "src/db/database.h"
#include "src/db/tpcc_loader.h"
#include "src/kvstore/service.h"
#include "src/queueing/models.h"
#include "src/queueing/slo_search.h"
#include "src/runtime/runtime.h"
#include "src/runtime/tcp_transport.h"
#include "src/runtime/uring_transport.h"
#include "src/services/tpcc_service.h"
#include "src/stats.h"
#include "src/sysmodel/system_model.h"
#include "src/trace.h"

namespace perfbench {
namespace {

// Live geometry: server workers plus the one client thread stay below the host's
// four CPUs, so the figures measure the program and not the scheduler.
constexpr int kWorkers = 2;
constexpr int kConnections = 4;
constexpr int kSaturatedWindow = 16;
constexpr size_t kMaxFlows = 16;
constexpr size_t kSpanCapacity = size_t{1} << 18;  // traced requests per connection
constexpr uint64_t kUsrKeysPerConnection = 25'000;
constexpr double kSpinMeanNs = 10'000.0;

// DES headline (§6.1): 16 cores, exponential service with a 10 µs mean, SLO 10·S̄.
constexpr int kDesCores = 16;
constexpr zygos::Nanos kDesMean = 10 * zygos::kMicrosecond;
constexpr uint64_t kDesSearchRequests = 4'000;  // per model run of either search
constexpr uint64_t kDesErlangRequests = 100'000;  // per round, pooled over the run
constexpr double kDesErlangLoad = 0.8;

// Relative tolerance on the pooled M/M/16 waiting-time p99 against Erlang-C. Waiting
// times in a queue are strongly correlated: over 40 seeds one 100k-request run at
// load 0.8 missed by up to 26 %, so the allowance shrinks with the square root of the
// rounds pooled, above a 3 % floor for the histogram's bucket edges.
double ErlangTolerance(uint64_t rounds) {
  return 0.03 + 0.3 / std::sqrt(static_cast<double>(std::max<uint64_t>(rounds, 1)));
}

double MaxRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double Seconds(int64_t from, int64_t to) { return static_cast<double>(to - from) / 1e9; }

template <typename T>
double QuantileOf(std::vector<T> values, double q) {
  return Quantile(values, q);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Per-layer metrics by name, starting from all zeros.
class LayerMetrics {
 public:
  LayerMetrics() {
    for (const Metric& m : PerLayerMetrics()) {
      values_[m.name] = 0.0;
    }
  }
  void Set(const std::string& name, double value) { values_.at(name) = value; }
  std::vector<Metric> Take() const {
    std::vector<Metric> out = PerLayerMetrics();
    for (Metric& m : out) {
      m.value = values_.at(m.name);
    }
    return out;
  }

 private:
  std::map<std::string, double> values_;
};

void SetEndToEnd(RunResult& result, double setup_s, double throughput, double p50_us,
                 double p99_us) {
  result.metrics = EndToEndMetrics();
  for (Metric& m : result.metrics) {
    if (m.name == "setup_s") m.value = setup_s;
    if (m.name == "throughput_rps") m.value = throughput;
    if (m.name == "latency_p50_us") m.value = p50_us;
    if (m.name == "latency_p99_us") m.value = p99_us;
    if (m.name == "max_rss_mb") m.value = MaxRssMb();
  }
}

void Check(RunResult& result, bool ok, const std::string& what) {
  if (!ok && result.error.empty()) {
    result.error = what;
  }
  if (!ok) {
    result.correct = false;
  }
}

// ---------------------------------------------------------------------------------
// Live serving

enum class Backend { kTcp, kUring };

struct Counters {
  zygos::WorkerStats stats;
  zygos::ShuffleStats shuffle;
  uint64_t syscalls = 0;
  zygos::BufferPoolStats pool;
};

Counters Snap(const zygos::Runtime& runtime) {
  return {runtime.TotalStats(), runtime.TotalShuffleStats(),
          runtime.transport().IoSyscalls(), zygos::BufferPool::GlobalSnapshot()};
}

struct LiveSpec {
  Backend backend = Backend::kTcp;
  bool skew = false;  // every flow group homed on core 0; else flows split evenly
  int connections = kConnections;
  Protocol* protocol = nullptr;
  zygos::ViewHandler handler;
  // Called just before and just after the saturated phase (service ledgers).
  std::function<void()> before_saturated = [] {};
  std::function<void()> after_saturated = [] {};
};

struct LiveRun {
  std::string error;
  double setup_s = 0.0;
  PhaseResult light;
  PhaseResult saturated;
  Counters before;  // around the saturated phase
  Counters after;
  uint64_t completed = 0;  // Runtime::Completed() after shutdown
  uint64_t attempted = 0;
  uint64_t answered = 0;
  std::unique_ptr<SpanTable> spans;
  TransportCounters light_io;
  TransportCounters saturated_io;
};

// Programs the RSS indirection table before the runtime starts. Flow ids are minted
// in connection order (0, 1, ...), so the table decides each connection's home core.
std::string ProgramRss(zygos::RssTable& rss, bool skew, int connections) {
  std::vector<int> table(static_cast<size_t>(rss.NumFlowGroups()));
  for (size_t g = 0; g < table.size(); ++g) {
    table[g] = skew ? 0 : static_cast<int>(g) % kWorkers;
  }
  if (!skew) {
    for (int f = 0; f < connections; ++f) {
      table[static_cast<size_t>(rss.FlowGroupOf(static_cast<uint64_t>(f)))] = f % kWorkers;
    }
  }
  rss.SetIndirection(table);
  if (!skew) {
    int per_core[kWorkers] = {};
    for (int f = 0; f < connections; ++f) {
      per_core[rss.HomeCoreOf(static_cast<uint64_t>(f))]++;
    }
    for (int c = 0; c < kWorkers; ++c) {
      if (per_core[c] != connections / kWorkers) {
        return "RSS table cannot split the connections evenly over the workers";
      }
    }
  }
  return "";
}

LiveRun RunLive(const RunOptions& options, LiveSpec& spec) {
  LiveRun run;
  zygos::RuntimeOptions runtime_options;
  runtime_options.num_workers = kWorkers;
  runtime_options.num_flows = static_cast<int>(kMaxFlows);
  runtime_options.max_flows = kMaxFlows;
  zygos::TcpTransportOptions tcp = zygos::TcpOptionsFor(runtime_options);

  std::unique_ptr<zygos::SocketTransportBase> socket_transport;
  if (spec.backend == Backend::kUring) {
    if (!zygos::UringTransport::Available()) {
      run.error = "io_uring unavailable: " + zygos::UringTransport::UnavailableReason();
      return run;
    }
    socket_transport = std::make_unique<zygos::UringTransport>(tcp);
  } else {
    socket_transport = std::make_unique<zygos::TcpTransport>(tcp);
  }
  zygos::SocketTransportBase* sockets = socket_transport.get();

  std::atomic<int> phase{0};
  std::unique_ptr<zygos::Transport> transport = std::move(socket_transport);
  zygos::ViewHandler handler = spec.handler;
  TracingTransport* tracer = nullptr;
  if (options.trace) {
    run.spans = std::make_unique<SpanTable>(kConnections, kSpanCapacity);
    auto traced = std::make_unique<TracingTransport>(std::move(transport), *run.spans,
                                                     kMaxFlows, phase);
    tracer = traced.get();
    handler = traced->TracedHandler(std::move(handler));
    transport = std::move(traced);
  }

  zygos::Runtime runtime(runtime_options, std::move(transport), std::move(handler));
  run.error = ProgramRss(runtime.mutable_rss(), spec.skew, spec.connections);
  if (!run.error.empty()) {
    return run;
  }
  runtime.Start();
  ClosedLoopClient client(*spec.protocol, run.spans.get());
  if (client.Connect(sockets->port(), spec.connections)) {
    run.setup_s = Seconds(options.process_start_ns, NowNs());
    // Each phase is half the run; its first tenth (at most 0.5 s) is warm-up.
    double phase_s = options.seconds / 2.0;
    double warmup_s = std::min(0.5, phase_s / 10.0);
    run.light = client.RunPhase(1, warmup_s, phase_s - warmup_s, true);
    phase.store(1, std::memory_order_relaxed);
    run.before = Snap(runtime);
    spec.before_saturated();
    run.saturated = client.RunPhase(kSaturatedWindow, warmup_s, phase_s - warmup_s, false);
    run.after = Snap(runtime);
    spec.after_saturated();
  }
  client.Close();
  runtime.Shutdown();
  run.completed = runtime.Completed();
  run.attempted = client.attempted();
  run.answered = client.answered();
  if (run.error.empty()) {
    run.error = client.error();
  }
  if (tracer != nullptr) {
    run.light_io = tracer->Totals(0);
    run.saturated_io = tracer->Totals(1);
  }
  return run;
}

// The results every live workload reports: end-to-end metrics, the checks common to
// all of them, and the runtime/core/common per-layer metrics of a traced run.
RunResult FinishLive(const RunOptions& options, const LiveRun& run, LayerMetrics& layers) {
  RunResult result;
  result.attempted = std::max<uint64_t>(run.attempted, 1);
  result.failed = run.attempted - run.answered;
  Check(result, run.error.empty(), run.error);
  Check(result, run.answered == run.completed,
        "client answered " + std::to_string(run.answered) + " but Runtime::Completed() = " +
            std::to_string(run.completed));

  // Each figure is the median over the measured window's slices, so one slow slice
  // (a scheduler hiccup, a burst of long transactions) cannot move it alone.
  std::vector<std::vector<uint32_t>> by_slice(kSlices);
  for (size_t i = 0; i < run.light.latency_ns.size(); ++i) {
    by_slice[run.light.latency_slice[i]].push_back(run.light.latency_ns[i]);
  }
  std::vector<double> slice_p50, slice_p99;
  for (std::vector<uint32_t>& slice : by_slice) {
    if (slice.size() >= 1000) {  // ten samples beyond the p99
      slice_p50.push_back(Quantile(slice, 0.50));
      slice_p99.push_back(Quantile(slice, 0.99));
    }
  }
  std::vector<uint32_t> latency = run.light.latency_ns;
  double p50 = QuantileOf(latency, 0.50) / 1e3;
  double p99 = QuantileOf(latency, 0.99) / 1e3;
  double p999 = QuantileOf(latency, 0.999) / 1e3;
  double slice_s = run.saturated.measured_seconds / kSlices;
  double throughput = Ratio(QuantileOf(run.saturated.slice_answered, 0.5), slice_s);
  SetEndToEnd(result, run.setup_s, throughput,
              slice_p50.empty() ? p50 : QuantileOf(slice_p50, 0.5) / 1e3,
              slice_p99.empty() ? p99 : QuantileOf(slice_p99, 0.5) / 1e3);
  result.notes.push_back("light phase: " + std::to_string(latency.size()) + " round trips in " +
                         std::to_string(slice_p99.size()) + " slices; whole-phase p50 " +
                         std::to_string(p50) + " us, p99 " + std::to_string(p99) +
                         " us, p99.9 " + std::to_string(p999) + " us");
  std::string per_slice;
  for (uint64_t answered : run.saturated.slice_answered) {
    per_slice += " " + std::to_string(answered);
  }
  result.notes.push_back("saturated phase: " + std::to_string(run.saturated.measured) +
                         " answers in " + std::to_string(run.saturated.measured_seconds) +
                         " s; per slice:" + per_slice);
  if (!options.trace) {
    return result;
  }

  // Span percentiles over the light phase's measured requests.
  std::vector<double> wire_in, queue_wait, egress, wire_out;
  for (int c = 0; c < kConnections; ++c) {
    for (uint64_t seq = run.light.first_seq[c]; seq < run.light.end_seq[c]; ++seq) {
      const Span* s = run.spans->Find(c, seq);
      if (s == nullptr) {
        break;
      }
      bool complete = true;
      for (int64_t t : s->t) {
        complete = complete && t != 0;
      }
      if (!complete) {
        continue;
      }
      wire_in.push_back(static_cast<double>(s->t[kRx] - s->t[kSend]));
      queue_wait.push_back(static_cast<double>(s->t[kHandlerStart] - s->t[kRx]));
      egress.push_back(static_cast<double>(s->t[kTxEntry] - s->t[kHandlerEnd]));
      wire_out.push_back(static_cast<double>(s->t[kReceipt] - s->t[kTxReturn]));
    }
  }
  result.notes.push_back("traced light-phase requests with every stamp: " +
                         std::to_string(wire_in.size()));
  layers.Set("runtime.wire_in_us_p50", QuantileOf(wire_in, 0.5) / 1e3);
  layers.Set("runtime.wire_out_us_p50", QuantileOf(wire_out, 0.5) / 1e3);
  layers.Set("runtime.egress_us_p50", QuantileOf(egress, 0.5) / 1e3);
  layers.Set("runtime.egress_us_p99", QuantileOf(egress, 0.99) / 1e3);
  layers.Set("core.queue_wait_us_p50", QuantileOf(queue_wait, 0.5) / 1e3);
  layers.Set("core.queue_wait_us_p99", QuantileOf(queue_wait, 0.99) / 1e3);

  // Counters over the saturated phase.
  const TransportCounters& io = run.saturated_io;
  double requests = static_cast<double>(run.after.stats.app_events - run.before.stats.app_events);
  layers.Set("runtime.rx_poll_ns_per_req", Ratio(static_cast<double>(io.poll_ns), requests));
  layers.Set("runtime.tx_ns_per_req",
             Ratio(static_cast<double>(io.tx_ns), static_cast<double>(io.frames_out)));
  layers.Set("runtime.segments_per_rx_batch",
             Ratio(static_cast<double>(io.segments),
                   static_cast<double>(io.polls - io.empty_polls)));
  layers.Set("runtime.empty_poll_ratio",
             Ratio(static_cast<double>(run.light_io.empty_polls),
                   static_cast<double>(run.light_io.polls)));
  layers.Set("runtime.syscalls_per_req",
             Ratio(static_cast<double>(run.after.syscalls - run.before.syscalls), requests));
  const zygos::WorkerStats& a = run.after.stats;
  const zygos::WorkerStats& b = run.before.stats;
  layers.Set("core.stolen_event_ratio",
             Ratio(static_cast<double>(a.stolen_events - b.stolen_events), requests));
  uint64_t steals = run.after.shuffle.steals - run.before.shuffle.steals;
  uint64_t failed_probes =
      run.after.shuffle.failed_steal_probes - run.before.shuffle.failed_steal_probes;
  layers.Set("core.failed_steal_probe_ratio",
             Ratio(static_cast<double>(failed_probes), static_cast<double>(steals + failed_probes)));
  layers.Set("core.remote_syscalls_per_req",
             Ratio(static_cast<double>(a.remote_syscalls - b.remote_syscalls), requests));
  layers.Set("core.doorbells_per_req",
             Ratio(static_cast<double>(a.doorbells_sent - b.doorbells_sent), requests));
  layers.Set("common.pool_misses_per_req",
             Ratio(static_cast<double>(run.after.pool.misses() - run.before.pool.misses()),
                   requests));
  layers.Set("common.pool_remote_frees_per_req",
             Ratio(static_cast<double>(run.after.pool.remote_frees - run.before.pool.remote_frees),
                   requests));
  result.notes.push_back("traced run light-phase latency_p50_us " + std::to_string(p50) +
                         " (tracing overhead: compare with an untraced run)");
  return result;
}

// Handler durations (ns) of the light phase's traced requests, by request kind.
std::vector<std::vector<double>> HandlerNsByKind(const LiveRun& run, size_t kinds) {
  std::vector<std::vector<double>> out(kinds);
  for (int c = 0; c < kConnections; ++c) {
    for (uint64_t seq = run.light.first_seq[c]; seq < run.light.end_seq[c]; ++seq) {
      const Span* s = run.spans->Find(c, seq);
      if (s == nullptr) {
        break;
      }
      if (s->t[kHandlerStart] != 0 && s->t[kHandlerEnd] != 0 && s->kind < kinds) {
        out[s->kind].push_back(static_cast<double>(s->t[kHandlerEnd] - s->t[kHandlerStart]));
      }
    }
  }
  return out;
}

RunResult RunKvUsr(const RunOptions& options) {
  zygos::KvService service;
  KvProtocol protocol(options.seed, kConnections, kUsrKeysPerConnection);
  protocol.Populate(service);
  LiveSpec spec;
  spec.backend = Backend::kUring;
  spec.protocol = &protocol;
  spec.handler = [&service](uint64_t, std::string_view request,
                            zygos::ResponseBuilder& response) {
    service.HandleView(request, response);
  };
  LiveRun run = RunLive(options, spec);
  LayerMetrics layers;
  RunResult result = FinishLive(options, run, layers);
  if (options.trace) {
    auto by_kind = HandlerNsByKind(run, 2);
    layers.Set("kvstore.get_ns_p50", QuantileOf(by_kind[KvProtocol::kGet], 0.5));
    layers.Set("kvstore.set_ns_p50", QuantileOf(by_kind[KvProtocol::kSet], 0.5));
    result.metrics = layers.Take();
  }
  return result;
}

RunResult RunSpinSkew(const RunOptions& options) {
  EchoProtocol protocol(options.seed, kConnections, kSpinMeanNs);
  LiveSpec spec;
  spec.backend = Backend::kTcp;
  spec.skew = true;
  spec.protocol = &protocol;
  spec.handler = [](uint64_t, std::string_view request, zygos::ResponseBuilder& response) {
    SpinEcho(request, response);
  };
  LiveRun run = RunLive(options, spec);
  LayerMetrics layers;
  RunResult result = FinishLive(options, run, layers);
  double capacity = kWorkers * 1e9 / kSpinMeanNs;
  double throughput = static_cast<double>(run.saturated.measured) /
                      std::max(run.saturated.measured_seconds, 1e-9);
  Check(result, throughput <= capacity,
        "spin throughput " + std::to_string(throughput) + " exceeds the spin capacity " +
            std::to_string(capacity));
  if (options.trace) {
    result.metrics = layers.Take();
  }
  return result;
}

RunResult RunTpccMix(const RunOptions& options) {
  zygos::Database db;
  zygos::LoaderOptions scale;  // one warehouse at the spec's full scale
  scale.num_warehouses = 1;  // loaded with the loader's fixed seed: one dataset
  zygos::TpccTables tables = zygos::LoadTpcc(db, scale);
  zygos::TpccService service(db, tables, scale);
  // One connection per worker: in the light phase a transaction then waits for no
  // other, so the latencies are the service's own (with four, p99 was set by whichever
  // long Delivery a request happened to queue behind, and varied by 20 % run to run).
  constexpr int kTpccConnections = kWorkers;
  TpccProtocol protocol(options.seed, kTpccConnections, scale);

  LiveSpec spec;
  spec.backend = Backend::kTcp;
  spec.connections = kTpccConnections;
  spec.protocol = &protocol;
  spec.handler = service.Handler();
  uint64_t commits[2] = {}, aborts[2] = {}, retries[2] = {};
  spec.before_saturated = [&] {
    commits[0] = service.commits();
    aborts[0] = service.user_aborts();
    retries[0] = service.occ_retries();
  };
  spec.after_saturated = [&] {
    commits[1] = service.commits();
    aborts[1] = service.user_aborts();
    retries[1] = service.occ_retries();
  };
  LiveRun run = RunLive(options, spec);
  LayerMetrics layers;
  RunResult result = FinishLive(options, run, layers);
  Check(result, protocol.commits() == service.commits(),
        "client counted " + std::to_string(protocol.commits()) +
            " commits but TpccService::commits() = " + std::to_string(service.commits()));
  Check(result, service.malformed() == 0, "the service refused requests as malformed");
  std::string unrequested = protocol.CheckUnrequestedAborts();
  Check(result, unrequested.empty(), unrequested);
  std::string consistency = CheckTpccConsistency(db, tables, scale);
  Check(result, consistency.empty(), "TPC-C consistency: " + consistency);
  result.notes.push_back("commits " + std::to_string(service.commits()) + ", user aborts " +
                         std::to_string(service.user_aborts()) + " (" +
                         std::to_string(protocol.unrequested_aborts()) + " of " +
                         std::to_string(protocol.new_orders()) +
                         " NewOrders not asked to roll back), occ retries " +
                         std::to_string(service.occ_retries()));
  if (options.trace) {
    auto by_kind = HandlerNsByKind(run, zygos::kTpccTxnTypes);
    const char* names[] = {"db.new_order_us_p50", "db.payment_us_p50",
                           "db.order_status_us_p50", "db.delivery_us_p50",
                           "db.stock_level_us_p50"};
    for (size_t t = 0; t < by_kind.size(); ++t) {
      layers.Set(names[t], QuantileOf(by_kind[t], 0.5) / 1e3);
    }
    double commits_sat = static_cast<double>(commits[1] - commits[0]);
    double aborts_sat = static_cast<double>(aborts[1] - aborts[0]);
    layers.Set("db.occ_retries_per_commit",
               Ratio(static_cast<double>(retries[1] - retries[0]), commits_sat));
    layers.Set("db.user_abort_ratio", Ratio(aborts_sat, commits_sat + aborts_sat));
    result.metrics = layers.Take();
  }
  return result;
}

// ---------------------------------------------------------------------------------
// des-headline: ZygOS's maximum load at the SLO and the M/G/16/FCFS bound, computed
// round after round; a round is one full headline computation with its own seeds.

RunResult RunDesHeadline(const RunOptions& options) {
  RunResult result;
  auto service = zygos::MakeDistribution("exponential", kDesMean);
  const zygos::Nanos slo = 10 * kDesMean;
  const zygos::QueueingModelId fcfs{zygos::Discipline::kFcfs, zygos::Topology::kCentralized};

  zygos::SystemRunParams zygos_params;
  zygos_params.num_cores = kDesCores;
  zygos_params.num_requests = kDesSearchRequests;
  zygos_params.warmup = kDesSearchRequests / 10;
  zygos::QueueingRunParams fcfs_params;
  fcfs_params.num_servers = kDesCores;
  fcfs_params.num_requests = kDesSearchRequests;
  fcfs_params.warmup = kDesSearchRequests / 10;

  // Warm-up: one small run of each model, so lazy allocation is not timed. Its seed is
  // fixed: a model run's cost varies with its seed, and set-up is the same work in
  // every run.
  zygos_params.load = 0.5;
  zygos_params.seed = 1;
  zygos::RunSystemModel(zygos::SystemKind::kZygos, zygos_params, *service);
  fcfs_params.load = 0.5;
  fcfs_params.seed = 1;
  zygos::RunQueueingModel(fcfs, fcfs_params, *service);
  double setup_s = Seconds(options.process_start_ns, NowNs());

  // Wall time of each ZygOS model run. The host's speed for this single thread swings
  // by a quarter over a few seconds, so a median over runs (or over searches) lands in
  // whichever speed held most of the run; latency_p50_us is therefore the mean run
  // time over the whole run, which weighs every stretch by its length.
  std::vector<double> zygos_run_ns;
  double zygos_ns = 0, fcfs_ns = 0;
  uint64_t zygos_requests = 0, fcfs_requests = 0, searches = 0, search_runs = 0;
  uint64_t rounds = 0;
  std::vector<double> zygos_max, ideal_max;
  zygos::LatencyHistogram erlang_wait;
  int64_t begin = NowNs();
  int64_t deadline = begin + static_cast<int64_t>(options.seconds * 1e9);
  while (NowNs() < deadline) {
    uint64_t round_seed = options.seed * 1'000'003 + rounds;
    zygos_params.seed = round_seed;
    auto zygos_p99 = [&](double load) {
      zygos_params.load = load;
      int64_t t0 = NowNs();
      zygos::Nanos p99 =
          zygos::RunSystemModel(zygos::SystemKind::kZygos, zygos_params, *service).latency.P99();
      int64_t t1 = NowNs();
      zygos_run_ns.push_back(static_cast<double>(t1 - t0));
      zygos_ns += static_cast<double>(t1 - t0);
      zygos_requests += zygos_params.num_requests;
      search_runs++;
      return p99;
    };
    fcfs_params.seed = round_seed;
    auto fcfs_p99 = [&](double load) {
      fcfs_params.load = load;
      int64_t t0 = NowNs();
      zygos::Nanos p99 = zygos::RunQueueingModel(fcfs, fcfs_params, *service).sojourn.P99();
      fcfs_ns += static_cast<double>(NowNs() - t0);
      fcfs_requests += fcfs_params.num_requests;
      search_runs++;
      return p99;
    };
    zygos_max.push_back(zygos::FindMaxLoadAtSlo(zygos_p99, slo));
    ideal_max.push_back(zygos::FindMaxLoadAtSlo(fcfs_p99, slo, {.max_load = 0.995}));
    searches += 2;

    // M/M/16/FCFS waiting times, pooled over the run for the Erlang-C check.
    zygos::QueueingRunParams erlang_params;
    erlang_params.num_servers = kDesCores;
    erlang_params.load = kDesErlangLoad;
    erlang_params.num_requests = kDesErlangRequests;
    erlang_params.warmup = kDesErlangRequests / 10;
    erlang_params.seed = round_seed;
    int64_t t0 = NowNs();
    erlang_wait.Merge(zygos::RunQueueingModel(fcfs, erlang_params, *service).wait);
    fcfs_ns += static_cast<double>(NowNs() - t0);
    fcfs_requests += kDesErlangRequests;
    rounds++;
  }
  double elapsed = Seconds(begin, NowNs());

  double median_zygos = QuantileOf(zygos_max, 0.5);
  double median_ideal = QuantileOf(ideal_max, 0.5);
  Check(result, median_zygos <= median_ideal,
        "ZygOS max load at the SLO " + std::to_string(median_zygos) +
            " exceeds the M/G/16/FCFS bound " + std::to_string(median_ideal));
  double mu = 1.0 / static_cast<double>(kDesMean);
  double expected = MmcWaitQuantile(kDesCores, kDesErlangLoad * kDesCores * mu, mu, 0.99);
  double simulated = static_cast<double>(erlang_wait.P99());
  double tolerance = ErlangTolerance(rounds);
  Check(result, std::abs(simulated - expected) <= tolerance * expected,
        "M/M/16 waiting-time p99 " + std::to_string(simulated) + " ns vs Erlang-C " +
            std::to_string(expected) + " ns, beyond the " + std::to_string(tolerance) +
            " tolerance");
  double simulated_requests = static_cast<double>(zygos_requests + fcfs_requests);
  SetEndToEnd(result, setup_s, simulated_requests / elapsed,
              Ratio(zygos_ns, static_cast<double>(zygos_run_ns.size())) / 1e3,
              QuantileOf(zygos_run_ns, 0.99) / 1e3);
  result.attempted = rounds;
  result.notes.push_back("rounds " + std::to_string(rounds) + ", ZygOS model runs " +
                         std::to_string(zygos_run_ns.size()) + ", median ZygOS max load " +
                         std::to_string(median_zygos) + " vs bound " +
                         std::to_string(median_ideal) + ", M/M/16 wait p99 " +
                         std::to_string(simulated) + " ns vs Erlang-C " +
                         std::to_string(expected) + " ns");
  if (options.trace) {
    LayerMetrics layers;
    layers.Set("sysmodel.zygos_ns_per_request",
               Ratio(zygos_ns, static_cast<double>(zygos_requests)));
    layers.Set("queueing.fcfs_ns_per_request", Ratio(fcfs_ns, static_cast<double>(fcfs_requests)));
    layers.Set("queueing.slo_search_runs",
               Ratio(static_cast<double>(search_runs), static_cast<double>(searches)));
    result.metrics = layers.Take();
  }
  return result;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"kv-usr", "spin-skew", "tpcc-mix",
                                                 "des-headline"};
  return names;
}

const std::vector<Metric>& EndToEndMetrics() {
  static const std::vector<Metric> metrics = {
      {"setup_s", 0, "s"},           {"throughput_rps", 0, "1/s"},
      {"latency_p50_us", 0, "us"},   {"latency_p99_us", 0, "us"},
      {"max_rss_mb", 0, "MiB"},
  };
  return metrics;
}

const std::vector<Metric>& PerLayerMetrics() {
  static const std::vector<Metric> metrics = {
      {"runtime.rx_poll_ns_per_req", 0, "ns"},
      {"runtime.tx_ns_per_req", 0, "ns"},
      {"runtime.segments_per_rx_batch", 0, "count"},
      {"runtime.empty_poll_ratio", 0, "ratio"},
      {"runtime.syscalls_per_req", 0, "count"},
      {"runtime.wire_in_us_p50", 0, "us"},
      {"runtime.wire_out_us_p50", 0, "us"},
      {"runtime.egress_us_p50", 0, "us"},
      {"runtime.egress_us_p99", 0, "us"},
      {"core.queue_wait_us_p50", 0, "us"},
      {"core.queue_wait_us_p99", 0, "us"},
      {"core.stolen_event_ratio", 0, "ratio"},
      {"core.failed_steal_probe_ratio", 0, "ratio"},
      {"core.remote_syscalls_per_req", 0, "count"},
      {"core.doorbells_per_req", 0, "count"},
      {"common.pool_misses_per_req", 0, "count"},
      {"common.pool_remote_frees_per_req", 0, "count"},
      {"kvstore.get_ns_p50", 0, "ns"},
      {"kvstore.set_ns_p50", 0, "ns"},
      {"db.new_order_us_p50", 0, "us"},
      {"db.payment_us_p50", 0, "us"},
      {"db.order_status_us_p50", 0, "us"},
      {"db.delivery_us_p50", 0, "us"},
      {"db.stock_level_us_p50", 0, "us"},
      {"db.occ_retries_per_commit", 0, "count"},
      {"db.user_abort_ratio", 0, "ratio"},
      {"sysmodel.zygos_ns_per_request", 0, "ns"},
      {"queueing.fcfs_ns_per_request", 0, "ns"},
      {"queueing.slo_search_runs", 0, "count"},
  };
  return metrics;
}

RunResult RunWorkload(const RunOptions& options) {
  if (options.workload == "kv-usr") return RunKvUsr(options);
  if (options.workload == "spin-skew") return RunSpinSkew(options);
  if (options.workload == "tpcc-mix") return RunTpccMix(options);
  return RunDesHeadline(options);
}

}  // namespace perfbench
