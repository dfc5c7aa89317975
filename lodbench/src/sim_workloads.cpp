// The simulated workloads: LoadGen deployments on a ShardedRunner.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "lod/lod/loadgen.hpp"
#include "lod/net/payload.hpp"
#include "lod/net/sharded_runner.hpp"
#include "lod/obs/export.hpp"

namespace lodbench {

namespace {

namespace net = lod::net;
namespace obs = lod::obs;

constexpr net::SimDuration kPreroll = net::msec(2000);  // LoadGen's preroll
// Sim-time period at which the traced pass moves span events out of each
// shard's trace ring, well before the ring (8192 events) wraps.
constexpr net::SimDuration kDrainEvery = net::msec(20);
// Untraced/traced round pairs behind obs.trace_overhead_ratio.
constexpr int kOverheadPairs = 4;

struct SimSpec {
  lod::lod::WorkloadSpec spec;
  std::size_t shards{2};
};

SimSpec spec_for(const std::string& name) {
  SimSpec s;
  auto& w = s.spec;
  if (name == "s1_mixed") {
    // LoadGen's default mix, 56k, 8 s lecture: ROADMAP's S1 traffic at
    // 1000 sessions per shard.
    w.sessions = 2000;
  } else if (name == "broadband") {
    w.sessions = 100;
    w.mix = {1.0, 0.0, 0.0, 0.0};
    w.profile = "Video 750k broadband";
    w.lecture_len = net::sec(20);
  } else if (name == "seek_migrate") {
    w.sessions = 2000;
    w.mix = {0.0, 0.6, 0.4, 0.0};
    w.interactions = 8;
    w.migrate_on_failover = true;
    w.lecture_len = net::sec(20);
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return s;
}

/// One shard's own measurements, written only by that shard's thread.
struct ShardMeasure {
  std::int64_t setup_ns{0};
  std::int64_t serve_cpu_ns{0};
  std::uint64_t bytes_copied{0};
  std::uint64_t trace_dropped{0};
  std::vector<obs::TraceEvent> spans;
};

struct Round {
  std::uint64_t seed{0};
  std::uint64_t sessions{0};
  std::uint64_t finished{0};
  double cpu_us_per_session{0.0};
  double setup_s{0.0};
  double merge_ms{0.0};
  double export_ms{0.0};
  double stall_us{0.0};
  double startup_sum_ms{0.0};
  std::uint64_t startups{0};
  double startup_p50_ms{0.0};
  double startup_p99_ms{0.0};
  std::uint64_t bytes_copied{0};
  std::uint64_t trace_dropped{0};
  std::int64_t end_us{0};  ///< latest shard end time
  std::string digest;
  obs::Snapshot merged;
  std::vector<obs::TraceEvent> spans;  ///< traced rounds only
};

/// Drain the shard's trace ring every kDrainEvery of sim time while
/// anything else is still scheduled.
void arm_drain(net::Simulator& sim, ShardMeasure& me) {
  sim.schedule_after(kDrainEvery, [&sim, &me] {
    drain_spans(sim.obs().trace(), me.spans, me.trace_dropped);
    if (sim.pending() > 0) arm_drain(sim, me);
  });
}

Round run_round(const SimSpec& s, std::uint64_t seed, bool traced,
                BenchSpans& spans) {
  std::vector<ShardMeasure> m(s.shards);
  net::ShardedRunner runner(s.shards, seed, traced);
  const auto r = runner.run([&](net::ShardEnv& env) {
    ShardMeasure& me = m[env.shard];
    std::unique_ptr<lod::lod::LoadGen> gen;
    {
      const auto sp = spans.span("setup", env.shard);
      const auto t0 = std::chrono::steady_clock::now();
      gen = std::make_unique<lod::lod::LoadGen>(env.sim, s.spec, seed,
                                                env.shard, env.shard_count);
      me.setup_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    }
    if (traced) arm_drain(env.sim, me);
    const std::uint64_t copied0 = net::Payload::stats().bytes_copied;
    const std::int64_t cpu0 = thread_cpu_ns();
    {
      const auto sp = spans.span(traced ? "serve.traced" : "serve", env.shard);
      gen->run();
    }
    me.serve_cpu_ns = thread_cpu_ns() - cpu0;
    me.bytes_copied = net::Payload::stats().bytes_copied - copied0;
    if (traced) drain_spans(env.sim.obs().trace(), me.spans, me.trace_dropped);
  });

  Round out;
  out.seed = seed;
  std::vector<std::pair<std::string, obs::Snapshot>> labeled;
  std::vector<std::vector<obs::TraceEvent>> timelines;
  std::int64_t serve_cpu_ns = 0;
  for (std::size_t k = 0; k < s.shards; ++k) {
    serve_cpu_ns += m[k].serve_cpu_ns;
    out.setup_s = std::max(out.setup_s, static_cast<double>(m[k].setup_ns) / 1e9);
    out.bytes_copied += m[k].bytes_copied;
    out.trace_dropped += m[k].trace_dropped;
    out.end_us = std::max(out.end_us, r.shards[k].end_time.us);
    labeled.emplace_back(std::to_string(k), r.shards[k].snapshot);
    timelines.push_back(std::move(m[k].spans));
  }
  if (traced) out.spans = obs::collate_events(std::move(timelines));

  std::string json;
  {
    const auto sp = spans.span("merge");
    const auto t0 = std::chrono::steady_clock::now();
    out.merged = obs::Snapshot::merged(labeled);
    out.merge_ms = since_s(t0) * 1000.0;
  }
  {
    const auto sp = spans.span("export");
    const auto t0 = std::chrono::steady_clock::now();
    json = obs::to_json(out.merged);
    out.export_ms = since_s(t0) * 1000.0;
  }
  out.digest = digest_hex(json);

  out.sessions = out.merged.counter("lod.loadgen.sessions");
  out.finished = out.merged.counter("lod.loadgen.finished");
  out.cpu_us_per_session =
      ratio(static_cast<double>(serve_cpu_ns) / 1000.0,
            static_cast<double>(out.sessions));
  out.stall_us =
      static_cast<double>(out.merged.merged_histogram("lod.player.stall_us").sum);
  const auto startup = out.merged.merged_histogram("lod.player.startup_us");
  out.startup_sum_ms = static_cast<double>(startup.sum) / 1000.0;
  out.startups = startup.count;
  out.startup_p50_ms = hist_quantile(startup, 0.50) / 1000.0;
  out.startup_p99_ms = hist_quantile(startup, 0.99) / 1000.0;
  return out;
}

/// Knee guards and completeness checks on one round.
void check_round(const std::string& name, const SimSpec& s, const Round& r,
                 WorkloadResult& res) {
  const auto& snap = r.merged;
  if (r.sessions != s.spec.sessions) {
    res.fail(name + ": ran " + std::to_string(r.sessions) + " of " +
             std::to_string(s.spec.sessions) + " planned sessions");
  }
  if (name == "s1_mixed") {
    // Failover sessions fall into a re-describe storm once the origin WAN
    // saturates (~1650 sessions per deployment): many failovers each.
    const double per = ratio(
        static_cast<double>(snap.counter("lod.loadgen.failovers")),
        static_cast<double>(
            snap.counter("lod.loadgen.sessions_kind", {{"kind", "failover"}})));
    if (per > 1.5) {
      res.fail("s1_mixed: " + std::to_string(per) +
               " failovers per failover session (re-describe storm)");
    }
  }
  if (name == "broadband") {
    // Above ~150 concurrent 750k sessions the client LANs saturate.
    const auto drops = snap.counter("lod.net.packets_dropped_queue");
    if (drops != 0) {
      res.fail("broadband: " + std::to_string(drops) +
               " queue drops (client-LAN saturation)");
    }
  }
  if (name == "seek_migrate" && snap.counter("lod.loadgen.migrations") == 0) {
    res.fail("seek_migrate: no failover was resolved by migration");
  }
}

}  // namespace

bool is_sim_workload(const std::string& name) {
  return name == "s1_mixed" || name == "broadband" || name == "seek_migrate";
}

WorkloadResult run_sim_workload(const RunArgs& a, BenchSpans& spans) {
  const SimSpec s = spec_for(a.workload);
  WorkloadResult res;
  std::vector<Round> rounds;
  std::vector<double> cpu, setup, p50, p99, merge_ms, export_ms;
  double planned_us = 0.0, stall_us = 0.0, startup_sum_ms = 0.0;
  std::uint64_t startups = 0;

  // Rounds come in pairs that share a seed derived from the run's seed: the
  // second of each pair must reproduce the first's merged snapshot exactly.
  const auto t0 = std::chrono::steady_clock::now();
  while (rounds.size() < 2 || rounds.size() % 2 == 1 || since_s(t0) < a.seconds) {
    const std::uint64_t seed = net::derive_shard_seed(a.seed, rounds.size() / 2);
    Round r = run_round(s, seed, false, spans);
    check_round(a.workload, s, r, res);
    res.attempted += s.spec.sessions;
    res.failed += s.spec.sessions - std::min<std::uint64_t>(r.finished, s.spec.sessions);
    cpu.push_back(r.cpu_us_per_session);
    setup.push_back(r.setup_s);
    p50.push_back(r.startup_p50_ms);
    p99.push_back(r.startup_p99_ms);
    startup_sum_ms += r.startup_sum_ms;
    startups += r.startups;
    merge_ms.push_back(r.merge_ms);
    export_ms.push_back(r.export_ms);
    planned_us += static_cast<double>(r.sessions) *
                  static_cast<double>(s.spec.lecture_len.us);
    stall_us += r.stall_us;
    if (rounds.size() % 2 == 1) {
      const Round& first = rounds.back();
      const bool same = first.digest == r.digest;
      std::printf("round seed %016llx: merged-snapshot digest %s %s\n",
                  static_cast<unsigned long long>(seed), r.digest.c_str(),
                  same ? "(repeat identical)" : "DIFFERS on repeat");
      if (!same) res.fail(a.workload + ": merged snapshot differs on repeat");
    }
    if (!rounds.empty()) r.merged = {};  // round 0 keeps its snapshot
    rounds.push_back(std::move(r));
  }
  std::printf("%s: %zu rounds in %.1f s, %zu sessions per round on %zu shards\n",
              a.workload.c_str(), rounds.size(), since_s(t0), s.spec.sessions,
              s.shards);

  const Round& r0 = rounds.front();
  const double sessions = static_cast<double>(s.spec.sessions);
  res.counts = count_rows(r0.merged, sessions, r0.bytes_copied);
  print_counts(res.counts);

  const double cpu_med = median(cpu);
  set_end_to_end(res, cpu_med, median(setup), planned_us, stall_us,
                 ratio(startup_sum_ms, static_cast<double>(startups)),
                 median(p50), median(p99));
  if (!a.trace) return res;

  // --- traced pass: round 0's seed again, tracing on in every shard. Traced
  // and untraced rounds alternate so that drift in machine speed cancels out
  // of their CPU ratio.
  std::vector<double> traced_cpu, untraced_cpu;
  LayerInputs in;
  for (int k = 0; k < kOverheadPairs; ++k) {
    untraced_cpu.push_back(run_round(s, r0.seed, false, spans).cpu_us_per_session);
    Round t = run_round(s, r0.seed, true, spans);
    traced_cpu.push_back(t.cpu_us_per_session);
    if (t.trace_dropped != 0) {
      res.fail(a.workload + ": traced pass lost " +
               std::to_string(t.trace_dropped) + " trace events");
    }
    if (k == 0) in.traced_spans = std::move(t.spans);
  }
  in.spans_path = a.out_dir + "/spans-" + a.workload + ".jsonl";
  in.profile = s.spec.profile;
  in.lecture_len = s.spec.lecture_len;
  in.preroll = kPreroll;
  const double per_shard = sessions / static_cast<double>(s.shards);
  in.sim_events_per_session = row_value(res.counts, "net.sim.events_per_session");
  in.sim_events = static_cast<std::uint64_t>(in.sim_events_per_session * per_shard);
  in.sim_chains = static_cast<std::size_t>(per_shard);
  in.sim_span_us = r0.end_us;
  in.cancel_ratio = row_value(res.counts, "net.sim.cancel_ratio");
  in.seed = a.seed;
  in.cpu_us_per_session = cpu_med;
  in.packets_parsed_per_session =
      static_cast<double>(r0.merged.total("lod.player.packets_received")) / sessions;
  in.images_per_session =
      static_cast<double>(r0.merged.total("lod.player.migrations")) / sessions;
  in.merge_ms = median(merge_ms);
  in.export_ms = median(export_ms);
  in.trace_overhead_ratio = median(traced_cpu) / median(untraced_cpu);
  finish_layers(in, res, spans);
  return res;
}

}  // namespace lodbench
