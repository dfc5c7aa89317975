#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lod/media/asf.hpp"
#include "lod/net/time.hpp"
#include "lod/obs/trace.hpp"
#include "report.hpp"

/// \file bench.hpp
/// The LOD benchmark's workloads and layer probes.
///
/// Three workloads run the simulated stack through `lod::LoadGen` on a
/// `net::ShardedRunner` (s1_mixed, broadband, seek_migrate); `loopback`
/// runs origin, edge and players over `net::RealTransport` on 127/8. Each
/// runs rounds for the requested seconds and reports medians over rounds.

namespace lodbench {

/// What a workload run is asked to do.
struct RunArgs {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  std::string out_dir;  ///< where span journals are written
};

bool is_sim_workload(const std::string& name);
WorkloadResult run_sim_workload(const RunArgs& args, BenchSpans& spans);
WorkloadResult run_loopback(const RunArgs& args, BenchSpans& spans);

/// The lecture a deployment publishes: the profile's encoding of the
/// synthetic lecture sources, exactly as `lod::LoadGen` publishes it.
lod::media::asf::File make_lecture(const std::string& profile,
                                   lod::net::SimDuration len,
                                   lod::net::SimDuration preroll);

/// Move the span-tree events (span markers and context-tagged points) out
/// of \p sink into \p out, count what the ring lost, and clear it. Call it
/// on the thread that owns the sink, often enough that the ring never wraps.
void drain_spans(lod::obs::TraceSink& sink,
                 std::vector<lod::obs::TraceEvent>& out,
                 std::uint64_t& dropped);

/// Write \p events as JSONL to \p path (creating its directory).
void write_jsonl(const std::string& path,
                 const std::vector<lod::obs::TraceEvent>& events);

/// What the traced pass measured, and how to size the layer probes.
struct LayerInputs {
  std::string profile;  ///< the workload's lecture, for the ASF and sync probes
  lod::net::SimDuration lecture_len{};
  lod::net::SimDuration preroll{};
  std::uint64_t sim_events{0};  ///< scheduler probe: firings,
  std::size_t sim_chains{1};    ///< concurrent event chains,
  std::int64_t sim_span_us{0};  ///< sim-time span,
  double cancel_ratio{0.0};     ///< and cancelled / scheduled
  std::uint64_t seed{0};
  double cpu_us_per_session{0.0};
  double sim_events_per_session{0.0};  ///< 0 on the real backend
  double packets_parsed_per_session{0.0};
  double images_per_session{0.0};
  double merge_ms{0.0};
  double export_ms{0.0};
  double trace_overhead_ratio{0.0};
  std::vector<lod::obs::TraceEvent> traced_spans;
  std::string spans_path;
};

/// Decompose the traced pass's startups, write its spans, run the layer
/// probes on the workload's own lecture, print the probe-based CPU split of
/// cpu_us_per_session (unit cost x count, with the unattributed remainder),
/// and fill \p r.per_layer from \p r.counts and the probes.
void finish_layers(const LayerInputs& in, WorkloadResult& r, BenchSpans& spans);

}  // namespace lodbench
