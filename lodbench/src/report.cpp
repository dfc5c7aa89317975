#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <string>

#include <sys/resource.h>

namespace lodbench {

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double hist_quantile(const lod::obs::HistogramData& h, double q) {
  if (h.count == 0) return 0.0;
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(h.count);
  double seen = 0.0;
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    const auto n = static_cast<double>(h.counts[i]);
    if (n > 0.0 && seen + n >= rank) {
      // The bucket's edges, narrowed to the observed min and max: a tight
      // distribution inside one wide bucket still yields distinct quantiles.
      const auto lo = static_cast<double>(h.min);
      const auto hi = static_cast<double>(h.max);
      const double lower = std::clamp(
          i == 0 ? lo : static_cast<double>(h.bounds[i - 1]), lo, hi);
      const double upper = std::clamp(
          i < h.bounds.size() ? static_cast<double>(h.bounds[i]) : hi, lo, hi);
      return lower + (upper - lower) * ((rank - seen) / n);
    }
    seen += n;
  }
  return static_cast<double>(h.max);
}

std::string digest_hex(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

namespace {
std::int64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return ts.tv_sec * 1'000'000'000LL + ts.tv_nsec;
}
}  // namespace

std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }
std::int64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // kB (VmHWM) -> MiB
}

// --- BenchSpans -------------------------------------------------------------------

namespace {
constexpr std::uint64_t kBenchTrace = 1;
constexpr std::uint64_t kRootSpan = 1;
}  // namespace

BenchSpans::BenchSpans() : t0_(std::chrono::steady_clock::now()) {
  record(lod::obs::EventType::kSpanBegin, kRootSpan, "lodbench.run", 0);
}

std::uint64_t BenchSpans::record(lod::obs::EventType type, std::uint64_t span,
                                 const std::string& name, std::uint64_t actor) {
  lod::obs::TraceEvent e;
  e.t = std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0_)
            .count();
  e.type = type;
  e.actor = actor;
  e.trace = kBenchTrace;
  e.parent = span == kRootSpan ? 0 : kRootSpan;
  e.detail = name;
  std::lock_guard<std::mutex> lock(mu_);
  if (span == 0) span = next_span_++;
  e.span = span;
  events_.push_back(std::move(e));
  return span;
}

BenchSpans::Scope::Scope(BenchSpans& b, std::string name, std::uint64_t actor)
    : b_(b),
      name_(std::move(name)),
      actor_(actor),
      id_(b_.record(lod::obs::EventType::kSpanBegin, 0, name_, actor_)) {}

BenchSpans::Scope::~Scope() {
  b_.record(lod::obs::EventType::kSpanEnd, id_, name_, actor_);
}

std::vector<lod::obs::TraceEvent> BenchSpans::finish() {
  record(lod::obs::EventType::kSpanEnd, kRootSpan, "lodbench.run", 0);
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

void set_end_to_end(WorkloadResult& r, double cpu_us_per_session, double setup_s,
                    double planned_us, double stall_us, double startup_mean_ms,
                    double startup_p50_ms, double startup_p99_ms) {
  const double fail_ratio =
      ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted));
  std::printf("session_fail_ratio %.6f  stall_ratio %.6f  startup_p50_ms %.3f  "
              "startup_p99_ms %.3f\n",
              fail_ratio, ratio(stall_us, planned_us), startup_p50_ms,
              startup_p99_ms);
  r.end_to_end = {
      {"cpu_us_per_session", cpu_us_per_session, "us"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
      {"setup_s", setup_s, "s"},
      {"session_ok_ratio", 1.0 - fail_ratio, "ratio"},
      {"stall_free_ratio", ratio(planned_us, planned_us + stall_us), "ratio"},
      {"startup_mean_ms", startup_mean_ms, "ms"},
  };
}

// --- per-layer counts ------------------------------------------------------------

std::vector<CountRow> count_rows(const lod::obs::Snapshot& s,
                                 double sessions, std::uint64_t bytes_copied) {
  const auto t = [&](std::string_view n) {
    return static_cast<double>(s.total(n));
  };
  const auto per = [&](std::string_view n) { return ratio(t(n), sessions); };
  const double lost = t("lod.player.units_lost");
  const double hits = t("lod.edge.cache.hits");
  return {
      {"net.sim.events_per_session", per("lod.sim.events_fired"),
       "events/session", "cpu_us_per_session (broadband most, s1_mixed least)"},
      {"net.sim.cancel_ratio",
       ratio(t("lod.sim.events_cancelled"), t("lod.sim.events_scheduled")),
       "ratio", "cpu_us_per_session (broadband most, s1_mixed least)"},
      {"net.link.packets_per_session", per("lod.net.packets_sent"),
       "packets/session", "cpu_us_per_session (broadband), stall_ratio (sim)"},
      {"net.link.drop_ratio",
       ratio(t("lod.net.packets_dropped_loss") +
                 t("lod.net.packets_dropped_queue"),
             t("lod.net.packets_sent")),
       "ratio", "cpu_us_per_session (broadband), stall_ratio (sim)"},
      {"net.transport.messages_per_session", per("lod.transport.messages_sent"),
       "msgs/session", "cpu_us_per_session (s1_mixed, seek_migrate)"},
      {"net.transport.retx_ratio",
       ratio(t("lod.transport.retransmissions"),
             t("lod.transport.messages_sent")),
       "ratio", "cpu_us_per_session (s1_mixed, seek_migrate)"},
      {"net.payload.bytes_copied_per_session",
       ratio(static_cast<double>(bytes_copied), sessions), "B/session",
       "cpu_us_per_session, peak_rss_mb (broadband)"},
      {"net.real.datagrams_per_session", per("lod.realnet.datagrams_sent"),
       "dgrams/session", "cpu_us_per_session, startup_*, stall_ratio (loopback)"},
      {"net.real.drop_ratio",
       ratio(t("lod.realnet.datagrams_dropped"),
             t("lod.realnet.datagrams_sent")),
       "ratio", "cpu_us_per_session, startup_*, stall_ratio (loopback)"},
      {"streaming.server.packets_per_session", per("lod.server.packets_sent"),
       "packets/session", "stall_ratio, cpu_us_per_session (all)"},
      {"streaming.server.repairs_per_session", per("lod.server.repairs"),
       "repairs/session", "stall_ratio, cpu_us_per_session (all)"},
      {"streaming.player.units_lost_ratio",
       ratio(lost, lost + t("lod.player.units_rendered")), "ratio",
       "stall_ratio, cpu_us_per_session (all)"},
      {"streaming.player.repairs_per_session",
       per("lod.player.repairs_requested"), "repairs/session",
       "stall_ratio, cpu_us_per_session (all)"},
      {"edge.cache.hit_ratio", ratio(hits, hits + t("lod.edge.cache.misses")),
       "ratio", "cpu_us_per_session (broadband), startup_* (seek_migrate)"},
      {"edge.origin_bytes_per_session", per("lod.edge.origin.segment_bytes"),
       "B/session", "cpu_us_per_session (broadband), startup_* (seek_migrate)"},
      {"edge.relay_packets_per_session", per("lod.edge.packets_sent"),
       "packets/session",
       "cpu_us_per_session (broadband), startup_* (seek_migrate)"},
      {"sync.migrations_per_failover",
       ratio(t("lod.player.migrations"), t("lod.player.failovers")), "ratio",
       "cpu_us_per_session, stall_ratio (seek_migrate only)"},
      {"lod.floor.grant_ratio",
       ratio(t("lod.floor.grants"), t("lod.floor.requests")), "ratio",
       "cpu_us_per_session (s1_mixed)"},
      {"lod.floor.grant_wait_p99_ms",
       hist_quantile(s.merged_histogram("lod.floor.grant_wait_us"), 0.99) /
           1000.0,
       "ms", "cpu_us_per_session (s1_mixed)"},
      {"lod.loadgen.failovers_per_session", per("lod.player.failovers"),
       "1/session", "cpu_us_per_session (s1_mixed); storm detector"},
      {"obs.series", static_cast<double>(s.size()), "count",
       "cpu_us_per_session (2-shard workloads)"},
  };
}

double row_value(const std::vector<CountRow>& rows, std::string_view name) {
  for (const auto& r : rows) {
    if (r.name == name) return r.value;
  }
  return 0.0;
}

void print_counts(const std::vector<CountRow>& rows) {
  std::printf("%-40s %14s %-16s %s\n", "per-layer count", "value", "unit",
              "predicts");
  for (const auto& r : rows) {
    std::printf("%-40s %14.6g %-16s %s\n", r.name.c_str(), r.value,
                r.unit.c_str(), r.predicts.c_str());
  }
}

}  // namespace lodbench
