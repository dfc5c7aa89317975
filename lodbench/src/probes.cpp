#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>

#include "bench.hpp"
#include "lod/media/profile.hpp"
#include "lod/media/sources.hpp"
#include "lod/net/network.hpp"
#include "lod/net/rng.hpp"
#include "lod/net/simulator.hpp"
#include "lod/obs/spantree.hpp"
#include "lod/streaming/encoder.hpp"
#include "lod/streaming/player.hpp"
#include "lod/streaming/server.hpp"
#include "lod/sync/blocks.hpp"
#include "lod/sync/image.hpp"

namespace lodbench {

namespace net = lod::net;
namespace asf = lod::media::asf;

asf::File make_lecture(const std::string& profile, net::SimDuration len,
                       net::SimDuration preroll) {
  const auto prof = lod::media::find_profile(profile);
  if (!prof) throw std::runtime_error("unknown profile: " + profile);
  lod::streaming::EncodeJob job;
  job.profile = *prof;
  job.preroll = preroll;
  lod::media::LectureVideoSource v(len, prof->fps, prof->width, prof->height,
                                   5);
  lod::media::LectureAudioSource a(len, prof->audio_sample_rate());
  return lod::streaming::encode_lecture(job, v, a, {}).file;
}

namespace {

// --- scheduler ----------------------------------------------------------------------

/// ns per event of `Simulator::schedule_at` plus firing, at \p events
/// firings over \p chains concurrent event chains spread across \p span_us
/// of sim time, cancelling at the run's \p cancel_ratio.
double probe_sim_ns_per_event(std::uint64_t events, std::size_t chains,
                              std::int64_t span_us, double cancel_ratio,
                              std::uint64_t seed) {
  events = std::max<std::uint64_t>(events, 10'000);
  chains = std::max<std::size_t>(chains, 1);
  const std::int64_t gap = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(chains) * std::max<std::int64_t>(span_us, 1) /
             static_cast<std::int64_t>(events));
  // Cancelled events per fired one, so that cancelled / scheduled matches.
  const double cancels_per_fire =
      cancel_ratio >= 1.0 ? 0.0 : cancel_ratio / (1.0 - cancel_ratio);

  struct Ctx {
    net::Simulator sim;
    net::Rng rng;
    std::uint64_t target{0};
    std::uint64_t scheduled{0};
    std::int64_t gap{1};
    double cancels_per_fire{0.0};
    void fire() {
      if (scheduled < target) arm();
      double c = cancels_per_fire;
      while (c > 0.0 && rng.bernoulli(std::min(c, 1.0))) {
        sim.cancel(sim.schedule_after(net::SimDuration{gap}, [this] { fire(); }));
        c -= 1.0;
      }
    }
    void arm() {
      ++scheduled;
      sim.schedule_after(net::SimDuration{rng.uniform_int(1, 2 * gap)},
                         [this] { fire(); });
    }
  };

  std::vector<double> per_event;
  for (int rep = 0; rep < 3; ++rep) {
    Ctx ctx{net::Simulator{}, net::Rng(seed + rep), events, 0, gap,
            cancels_per_fire};
    const std::int64_t t0 = thread_cpu_ns();
    for (std::size_t c = 0; c < chains && ctx.scheduled < events; ++c) ctx.arm();
    const std::size_t fired = ctx.sim.run();
    per_event.push_back(static_cast<double>(thread_cpu_ns() - t0) /
                        static_cast<double>(std::max<std::size_t>(fired, 1)));
  }
  return median(per_event);
}

// --- ASF demux ----------------------------------------------------------------------

/// ns per packet of `asf::parse_packet` + `Demuxer::feed`/`next_unit` over
/// the serialized packets of \p file.
double probe_asf_ns_per_packet(const asf::File& file) {
  std::vector<std::vector<std::byte>> wire;
  wire.reserve(file.packets.size());
  for (const auto& p : file.packets) wire.push_back(asf::serialize_packet(p));
  if (wire.empty()) return 0.0;

  std::vector<double> per_packet;
  std::size_t sink = 0;
  std::int64_t spent = 0;
  while (per_packet.size() < 5 || (spent < 100'000'000 && per_packet.size() < 50)) {
    const std::int64_t t0 = thread_cpu_ns();
    asf::Demuxer demux(file.header);
    for (const auto& w : wire) {
      demux.feed(asf::parse_packet(w));
      while (auto u = demux.next_unit()) sink += u->data.size();
    }
    const std::int64_t dt = thread_cpu_ns() - t0;
    spent += dt;
    per_packet.push_back(static_cast<double>(dt) /
                         static_cast<double>(wire.size()));
  }
  if (sink == 0) throw std::runtime_error("asf probe demuxed no bytes");
  return median(per_packet);
}

// --- sync images ---------------------------------------------------------------------

/// us per capture + serialize + parse + restore of a `SessionImage` taken
/// from a player mid-way through playing \p file.
double probe_sync_image_us(const asf::File& file) {
  net::Simulator sim;
  net::Network network(sim, 7);
  const net::HostId origin = network.add_host("origin");
  const net::HostId client = network.add_host("client");
  net::LinkConfig lan;
  lan.bandwidth_bps = 10'000'000;
  lan.latency = net::msec(2);
  network.add_link(origin, client, lan);
  lod::streaming::StreamingServer server(network, origin);
  server.publish("lec", file);

  lod::streaming::PlayerConfig cfg;
  cfg.web_server = origin;
  lod::streaming::Player player(network, client, cfg);
  lod::sync::SessionState state;
  lod::sync::register_player_session_blocks(state, &player);
  player.open_and_play(origin, "lec");
  const net::SimDuration mid{file.header.props.preroll.us +
                             file.header.props.play_duration.us / 2};
  sim.run_until(net::SimTime{mid.us});
  if (!player.playing()) {
    throw std::runtime_error("sync probe: player not playing mid-lecture");
  }

  std::vector<double> per_image;
  for (int i = 0; i < 200; ++i) {
    const std::int64_t t0 = thread_cpu_ns();
    const auto img = lod::sync::capture_session_image(state, player);
    const auto wire = lod::sync::serialize_image(img);
    const auto back = lod::sync::parse_image(wire);
    const auto res = lod::sync::restore_session_image(state, back);
    per_image.push_back(static_cast<double>(thread_cpu_ns() - t0) / 1000.0);
    if (!res.ok) throw std::runtime_error("sync probe: restore failed: " + res.error);
  }
  return median(per_image);
}

// --- traced runs ---------------------------------------------------------------------------

/// Mean self-time per layer from opening a session to its first rendered
/// frame: the `player.describe` and `player.startup` subtrees, per startup.
struct StartupSelf {
  double player_ms{0.0};
  double edge_ms{0.0};
  double origin_ms{0.0};
  std::size_t startups{0};
};

/// Build span trees from \p events and decompose each `player.describe`
/// and `player.startup` subtree into self time by layer (span-name prefix:
/// player / edge / origin and server). Prints the per-span-name breakdown.
StartupSelf decompose_startups(const std::vector<lod::obs::TraceEvent>& events) {
  const auto trees = lod::obs::build_span_trees(events);
  StartupSelf out;
  std::size_t orphans = 0;
  std::map<std::string, double> by_name_us;
  double player_us = 0.0, edge_us = 0.0, origin_us = 0.0;
  for (const auto& t : trees) {
    orphans += t.orphans.size();
    for (std::size_t i = 0; i < t.nodes.size(); ++i) {
      const std::string& span = t.nodes[i].name;
      if ((span != "player.describe" && span != "player.startup") ||
          !t.nodes[i].closed) {
        continue;
      }
      if (span == "player.startup") ++out.startups;
      for (const auto& c : t.decompose(i)) {
        const std::string& n = t.nodes[c.node].name;
        const auto us = static_cast<double>(c.self_us);
        by_name_us[n] += us;
        if (n.rfind("player.", 0) == 0) {
          player_us += us;
        } else if (n.rfind("edge.", 0) == 0) {
          edge_us += us;
        } else {
          origin_us += us;  // origin.* gateway and server.* spans
        }
      }
    }
  }
  const double n = static_cast<double>(std::max<std::size_t>(out.startups, 1));
  out.player_ms = player_us / n / 1000.0;
  out.edge_ms = edge_us / n / 1000.0;
  out.origin_ms = origin_us / n / 1000.0;
  std::printf("startup decomposition: %zu startups in %zu span trees, %zu orphans\n",
              out.startups, trees.size(), orphans);
  for (const auto& [name, us] : by_name_us) {
    std::printf("  %-24s %10.3f ms self per startup\n", name.c_str(),
                us / n / 1000.0);
  }
  return out;
}

/// Print each probe's unit cost times the run's count as a share of
/// \p cpu_us_per_session, and the unattributed remainder.
void print_cpu_split(double cpu_us_per_session, double events_per_session,
                     double ns_per_event, double packets_parsed_per_session,
                     double ns_per_packet, double images_per_session,
                     double image_us) {
  const double sched = events_per_session * ns_per_event / 1000.0;
  const double demux = packets_parsed_per_session * ns_per_packet / 1000.0;
  const double sync = images_per_session * image_us;
  const double rest = cpu_us_per_session - sched - demux - sync;
  const auto row = [&](const char* layer, double us) {
    std::printf("  %-34s %10.2f us/session %7.1f%%\n", layer, us,
                100.0 * ratio(us, cpu_us_per_session));
  };
  std::printf("estimated CPU split of cpu_us_per_session = %.2f us (unit cost x count):\n",
              cpu_us_per_session);
  row("net.sim (schedule_at + fire)", sched);
  row("media.asf (parse_packet + demux)", demux);
  row("sync (session images)", sync);
  row("unattributed remainder", rest);
}

}  // namespace

void drain_spans(lod::obs::TraceSink& sink,
                 std::vector<lod::obs::TraceEvent>& out,
                 std::uint64_t& dropped) {
  for (auto& e : sink.events()) {
    if (e.type == lod::obs::EventType::kSpanBegin ||
        e.type == lod::obs::EventType::kSpanEnd || e.trace != 0) {
      out.push_back(std::move(e));
    }
  }
  dropped += sink.dropped();
  sink.clear();
}

void write_jsonl(const std::string& path,
                 const std::vector<lod::obs::TraceEvent>& events) {
  std::filesystem::create_directories(std::filesystem::path(path).parent_path());
  std::ofstream out(path, std::ios::trunc);
  out << lod::obs::events_to_jsonl(events);
  if (!out) throw std::runtime_error("cannot write " + path);
}

void finish_layers(const LayerInputs& in, WorkloadResult& r, BenchSpans& spans) {
  const StartupSelf self = decompose_startups(in.traced_spans);
  if (self.startups == 0) r.fail("traced pass produced no startup span trees");
  write_jsonl(in.spans_path, in.traced_spans);

  const auto lecture = [&] {
    const auto sp = spans.span("probe.encode");
    return make_lecture(in.profile, in.lecture_len, in.preroll);
  }();
  double ns_per_event = 0.0, ns_per_packet = 0.0, image_us = 0.0;
  {
    const auto sp = spans.span("probe.sim");
    ns_per_event = probe_sim_ns_per_event(in.sim_events, in.sim_chains,
                                          in.sim_span_us, in.cancel_ratio, in.seed);
  }
  {
    const auto sp = spans.span("probe.asf");
    ns_per_packet = probe_asf_ns_per_packet(lecture);
  }
  {
    const auto sp = spans.span("probe.sync");
    image_us = probe_sync_image_us(lecture);
  }
  print_cpu_split(in.cpu_us_per_session, in.sim_events_per_session, ns_per_event,
                  in.packets_parsed_per_session, ns_per_packet,
                  in.images_per_session, image_us);

  for (const auto& c : r.counts) r.per_layer.push_back({c.name, c.value, c.unit});
  r.per_layer.insert(r.per_layer.end(),
                     {
                         {"net.sim.ns_per_event", ns_per_event, "ns"},
                         {"media.asf.ns_per_packet", ns_per_packet, "ns"},
                         {"sync.image_us", image_us, "us"},
                         {"obs.merge_ms", in.merge_ms, "ms"},
                         {"obs.export_ms", in.export_ms, "ms"},
                         {"obs.trace_overhead_ratio", in.trace_overhead_ratio, "ratio"},
                         {"startup.self_ms.player", self.player_ms, "ms"},
                         {"startup.self_ms.edge", self.edge_ms, "ms"},
                         {"startup.self_ms.origin", self.origin_ms, "ms"},
                     });
}

}  // namespace lodbench
