// The loopback workload: origin, edge and players over RealTransport.
//
// Three RealTransport instances model three machines on their own 127/8
// addresses: the origin (streaming server + edge gateway) and the edge each
// run their epoll loop on their own thread, and the players' loop runs on
// the main thread. Players open at the edge, staggered over two seconds, and
// play the whole lecture in wall-clock time.

#include <cstdio>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "lod/edge/edge_node.hpp"
#include "lod/net/payload.hpp"
#include "lod/net/real_transport.hpp"
#include "lod/obs/export.hpp"
#include "lod/streaming/player.hpp"
#include "lod/streaming/server.hpp"

namespace lodbench {

namespace {

namespace net = lod::net;
namespace obs = lod::obs;

constexpr net::HostId kOrigin = 1;
constexpr net::HostId kEdge = 2;
constexpr net::HostId kFirstClient = 3;
constexpr std::size_t kClientHosts = 16;
constexpr std::size_t kPlayers = 400;
constexpr std::size_t kMinStartups = 1000;
constexpr int kSetupBatches = 9;
constexpr int kSetupsPerBatch = 4;
constexpr net::Port kCtl = 18554;
constexpr net::Port kGateway = 18556;
constexpr net::Port kWeb = 18080;
constexpr net::Port kPlayerPorts = 20000;  ///< ctl, data, data+1 per player
constexpr const char* kProfile = "Video 250k DSL/cable";
constexpr net::SimDuration kLecture = net::sec(5);
constexpr net::SimDuration kPreroll = net::msec(500);
constexpr net::SimDuration kStagger = net::sec(2);
constexpr net::SimDuration kRoundLimit = net::sec(40);
constexpr net::SimDuration kWatchEvery = net::msec(20);
constexpr net::SimDuration kDrainEvery = net::msec(20);

/// Runs one transport's loop on its own thread; stops and joins on
/// destruction so no exit path leaves the thread running.
class LoopThread {
 public:
  explicit LoopThread(net::RealTransport& t)
      : t_(t), th_([this] {
          t_.run();
          copied_ = net::Payload::stats().bytes_copied;
        }) {}
  ~LoopThread() { join(); }
  LoopThread(const LoopThread&) = delete;
  LoopThread& operator=(const LoopThread&) = delete;

  /// Stop the loop, wait for the thread, and return the bytes the loop
  /// thread copied into Payloads.
  std::uint64_t join() {
    t_.stop();
    if (th_.joinable()) th_.join();
    return copied_;
  }

 private:
  net::RealTransport& t_;
  std::uint64_t copied_{0};
  std::thread th_;
};

/// The three machines. Members are destroyed bottom-up: players and nodes
/// before the transports they are bound to. As in LoadGen, set-up builds
/// the serving side; players are created when the sessions start.
struct Deployment {
  net::RealTransport origin_net;
  net::RealTransport edge_net;
  net::RealTransport client_net;
  std::unique_ptr<lod::streaming::StreamingServer> server;
  std::unique_ptr<lod::edge::OriginGateway> gateway;
  std::unique_ptr<lod::edge::EdgeNode> edge;
  std::vector<std::unique_ptr<lod::streaming::Player>> players;

  net::RealTransport* transports[3] = {&origin_net, &edge_net, &client_net};
};

void register_topology(net::RealTransport& t) {
  t.register_host(kOrigin, "origin");
  t.register_host(kEdge, "edge");
  for (std::size_t c = 0; c < kClientHosts; ++c) {
    t.register_host(static_cast<net::HostId>(kFirstClient + c),
                    "client" + std::to_string(c));
  }
}

std::unique_ptr<Deployment> build_deployment() {
  auto d = std::make_unique<Deployment>();
  for (net::RealTransport* t : d->transports) register_topology(*t);

  lod::streaming::ServerConfig scfg;
  scfg.control_port = kCtl;
  d->server = std::make_unique<lod::streaming::StreamingServer>(
      d->origin_net, kOrigin, scfg);
  d->server->publish("lec", make_lecture(kProfile, kLecture, kPreroll));
  d->gateway = std::make_unique<lod::edge::OriginGateway>(d->origin_net,
                                                          *d->server, kGateway);

  lod::edge::EdgeConfig ecfg;
  ecfg.control_port = kCtl;
  ecfg.origin = kOrigin;
  ecfg.origin_gateway_port = kGateway;
  d->edge = std::make_unique<lod::edge::EdgeNode>(d->edge_net, kEdge, ecfg);
  return d;
}

/// The viewers: players on the client machine, bound on its loop's thread.
void add_players(Deployment& d) {
  d.players.reserve(kPlayers);
  for (std::size_t i = 0; i < kPlayers; ++i) {
    lod::streaming::PlayerConfig pcfg;
    pcfg.server_port = kCtl;
    pcfg.web_server = kOrigin;
    pcfg.web_port = kWeb;
    pcfg.ctl_port = static_cast<net::Port>(kPlayerPorts + (i / kClientHosts) * 3);
    pcfg.data_port = static_cast<net::Port>(pcfg.ctl_port + 1);
    pcfg.auto_stop_on_finish = true;
    const auto host = static_cast<net::HostId>(kFirstClient + i % kClientHosts);
    d.players.push_back(
        std::make_unique<lod::streaming::Player>(d.client_net, host, pcfg));
  }
}

/// Drain \p t's trace ring every kDrainEvery on its own loop thread.
void arm_drain(net::RealTransport& t, std::vector<obs::TraceEvent>& out,
               std::uint64_t& dropped) {
  t.schedule_after(kDrainEvery, [&t, &out, &dropped] {
    drain_spans(t.obs().trace(), out, dropped);
    arm_drain(t, out, dropped);
  });
}

struct LoopRound {
  double cpu_us_per_session{0.0};
  double merge_ms{0.0};
  double export_ms{0.0};
  std::vector<double> startup_ms;
  std::size_t finished{0};
  double stall_us{0.0};
  std::uint64_t bytes_copied{0};
  std::uint64_t trace_dropped{0};
  obs::Snapshot merged;
  std::vector<obs::TraceEvent> spans;
};

LoopRound run_round(bool traced, BenchSpans& spans) {
  LoopRound out;
  std::unique_ptr<Deployment> d;
  {
    const auto sp = spans.span("setup");
    d = build_deployment();
  }

  // Per transport: each loop thread writes only its own slot.
  std::vector<obs::TraceEvent> drained[3];
  std::uint64_t dropped[3] = {0, 0, 0};
  if (traced) {
    for (std::size_t k = 0; k < 3; ++k) {
      obs::TraceSink& sink = d->transports[k]->obs().trace();
      sink.set_id_seed((static_cast<std::uint64_t>(k) + 1) << 32);
      sink.set_enabled(true);
      arm_drain(*d->transports[k], drained[k], dropped[k]);
    }
  }

  net::RealTransport& client = d->client_net;
  const std::uint64_t copied0 = net::Payload::stats().bytes_copied;
  const std::int64_t cpu0 = process_cpu_ns();
  std::uint64_t copied_threads = 0;
  {
    const auto sp = spans.span(traced ? "serve.traced" : "serve");
    add_players(*d);
    LoopThread origin_loop(d->origin_net);
    LoopThread edge_loop(d->edge_net);
    const net::SimTime start = client.now();
    for (std::size_t i = 0; i < kPlayers; ++i) {
      const net::SimDuration at{kStagger.us * static_cast<std::int64_t>(i) /
                                static_cast<std::int64_t>(kPlayers)};
      lod::streaming::Player* p = d->players[i].get();
      client.schedule_at(start + at, [p] { p->open_and_play(kEdge, "lec"); });
    }
    std::function<void()> watch = [&] {
      for (const auto& p : d->players) {
        if (!p->finished()) {
          client.schedule_after(kWatchEvery, watch);
          return;
        }
      }
      client.stop();
    };
    client.schedule_after(kWatchEvery, watch);
    client.schedule_after(kRoundLimit, [&client] { client.stop(); });
    client.run();
    copied_threads = origin_loop.join() + edge_loop.join();
  }
  const std::int64_t cpu_ns = process_cpu_ns() - cpu0;
  out.bytes_copied =
      net::Payload::stats().bytes_copied - copied0 + copied_threads;
  out.cpu_us_per_session = static_cast<double>(cpu_ns) / 1000.0 /
                           static_cast<double>(kPlayers);

  for (const auto& p : d->players) {
    if (p->finished()) ++out.finished;
    if (p->startup_delay().us >= 0) {
      out.startup_ms.push_back(static_cast<double>(p->startup_delay().us) / 1000.0);
    }
    for (const auto& s : p->stalls()) out.stall_us += static_cast<double>(s.duration.us);
  }

  // Loops are stopped: their registries and trace rings are ours to read.
  std::vector<std::pair<std::string, obs::Snapshot>> labeled;
  const char* names[3] = {"origin", "edge", "client"};
  std::vector<std::vector<obs::TraceEvent>> timelines;
  for (std::size_t k = 0; k < 3; ++k) {
    labeled.emplace_back(names[k], d->transports[k]->obs().snapshot());
    if (!traced) continue;
    drain_spans(d->transports[k]->obs().trace(), drained[k], dropped[k]);
    out.trace_dropped += dropped[k];
    timelines.push_back(std::move(drained[k]));
  }
  if (traced) out.spans = obs::collate_events(std::move(timelines));
  {
    const auto sp = spans.span("merge");
    const auto t0 = std::chrono::steady_clock::now();
    out.merged = obs::Snapshot::merged(labeled);
    out.merge_ms = since_s(t0) * 1000.0;
  }
  {
    const auto sp = spans.span("export");
    const auto t0 = std::chrono::steady_clock::now();
    const std::string json = obs::to_json(out.merged);
    out.export_ms = since_s(t0) * 1000.0;
  }
  return out;
}

}  // namespace

WorkloadResult run_loopback(const RunArgs& a, BenchSpans& spans) {
  WorkloadResult res;
  std::vector<LoopRound> rounds;
  std::vector<double> cpu, setup, startups, merge_ms, export_ms;
  double stall_us = 0.0;

  const auto t0 = std::chrono::steady_clock::now();
  // setup_s: deployments built and torn down unused, in batches. Successive
  // builds in one process alternate between a slower and a faster one (the
  // allocator's reuse of the previous build's memory), so each sample is the
  // mean of an even-sized batch and setup_s the median over batches.
  for (int b = 0; b < kSetupBatches; ++b) {
    const auto sp = spans.span("setup");
    double sum_s = 0.0;
    for (int k = 0; k < kSetupsPerBatch; ++k) {
      const auto ts = std::chrono::steady_clock::now();
      const auto d = build_deployment();
      sum_s += since_s(ts);
    }
    setup.push_back(sum_s / kSetupsPerBatch);
  }
  while (startups.size() < kMinStartups || since_s(t0) < a.seconds) {
    LoopRound r = run_round(false, spans);
    res.attempted += kPlayers;
    res.failed += kPlayers - r.finished;
    if (r.finished != kPlayers) {
      res.fail("loopback: " + std::to_string(kPlayers - r.finished) + " of " +
               std::to_string(kPlayers) + " players did not finish");
    }
    if (r.startup_ms.empty()) {
      throw std::runtime_error("loopback: no player started");
    }
    cpu.push_back(r.cpu_us_per_session);
    merge_ms.push_back(r.merge_ms);
    export_ms.push_back(r.export_ms);
    startups.insert(startups.end(), r.startup_ms.begin(), r.startup_ms.end());
    stall_us += r.stall_us;
    if (!rounds.empty()) r.merged = {};  // round 0 keeps its snapshot
    rounds.push_back(std::move(r));
  }
  std::printf("loopback: %zu rounds of %zu players in %.1f s, %zu startups\n",
              rounds.size(), kPlayers, since_s(t0), startups.size());

  const LoopRound& r0 = rounds.front();
  const double sessions = static_cast<double>(kPlayers);
  res.counts = count_rows(r0.merged, sessions, r0.bytes_copied);
  print_counts(res.counts);

  const double cpu_med = median(cpu);
  set_end_to_end(res, cpu_med, median(setup), static_cast<double>(res.attempted) *
                                                  static_cast<double>(kLecture.us),
                 stall_us, mean(startups), quantile(startups, 0.50),
                 quantile(startups, 0.99));
  if (!a.trace) return res;

  // --- traced pass: tracing on in all three transports' hubs ----------------
  LoopRound traced = run_round(true, spans);
  if (traced.finished != kPlayers) {
    res.fail("loopback: traced pass left players unfinished");
  }
  if (traced.trace_dropped != 0) {
    res.fail("loopback: traced pass lost " +
             std::to_string(traced.trace_dropped) + " trace events");
  }
  LayerInputs in;
  in.traced_spans = std::move(traced.spans);
  in.spans_path = a.out_dir + "/spans-loopback.jsonl";
  in.profile = kProfile;
  in.lecture_len = kLecture;
  in.preroll = kPreroll;
  // The real backend runs its own timer heap, not the simulator's wheel; the
  // wheel probe is sized to the run's datagram count for comparison.
  in.sim_events = static_cast<std::uint64_t>(
      row_value(res.counts, "net.real.datagrams_per_session") * sessions);
  in.sim_chains = kPlayers;
  in.sim_span_us = kLecture.us + kStagger.us;
  in.seed = a.seed;
  in.cpu_us_per_session = cpu_med;
  in.packets_parsed_per_session =
      static_cast<double>(r0.merged.total("lod.player.packets_received")) / sessions;
  in.merge_ms = median(merge_ms);
  in.export_ms = median(export_ms);
  in.trace_overhead_ratio = traced.cpu_us_per_session / cpu_med;
  finish_layers(in, res, spans);
  return res;
}

}  // namespace lodbench
