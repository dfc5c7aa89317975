#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "lod/obs/metrics.hpp"
#include "lod/obs/trace.hpp"

/// \file report.hpp
/// Shared plumbing of the LOD benchmark: statistics over repeated rounds,
/// CPU and memory clocks, the per-layer count table, the benchmark's own
/// span journal, and the result record every workload fills in.

namespace lodbench {

// --- statistics ----------------------------------------------------------------

/// Median of \p v (mean of the middle pair for even sizes); 0 when empty.
double median(std::vector<double> v);

/// Arithmetic mean of \p v; 0 when empty.
double mean(const std::vector<double>& v);

/// Linear-interpolated quantile \p q in [0, 1] of \p v; 0 when empty.
double quantile(std::vector<double> v, double q);

/// Quantile \p q of a fixed-bucket histogram, interpolated linearly inside
/// the bucket that holds the rank (as Prometheus' histogram_quantile does),
/// with the bucket's edges narrowed to the observed min/max. Returned in the
/// histogram's unit.
double hist_quantile(const lod::obs::HistogramData& h, double q);

/// FNV-1a 64 of \p s, as 16 hex digits.
std::string digest_hex(std::string_view s);

/// a / b, or 0 when b is 0.
double ratio(double a, double b);

// --- clocks ----------------------------------------------------------------------

std::int64_t thread_cpu_ns();
std::int64_t process_cpu_ns();
/// VmHWM of this process, in MiB.
double peak_rss_mb();

inline double since_s(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// --- results -----------------------------------------------------------------------

/// One named number with its unit.
struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
};

/// A per-layer count with the end-to-end metric it is expected to move.
struct CountRow {
  std::string name;
  double value{0.0};
  std::string unit;
  std::string predicts;
};

/// Everything one workload run reports.
struct WorkloadResult {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<CountRow> counts;  ///< the printed per-layer count table
  std::uint64_t attempted{0};    ///< sessions attempted over all rounds
  std::uint64_t failed{0};       ///< of which unfinished or unstarted
  std::vector<std::string> violations;

  void fail(std::string why) { violations.push_back(std::move(why)); }
  bool correct() const { return violations.empty(); }
};

// --- the benchmark's own spans ----------------------------------------------------

/// A wall-clock span journal for the benchmark's own phases (setup, serve,
/// merge, export, each probe). Every span is a child of one run-wide root
/// span, in one trace; shard threads may record concurrently.
class BenchSpans {
 public:
  BenchSpans();

  /// RAII span under the run's root span. \p actor is the shard index.
  class Scope {
   public:
    Scope(BenchSpans& b, std::string name, std::uint64_t actor);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    BenchSpans& b_;
    std::string name_;
    std::uint64_t actor_;
    std::uint64_t id_;
  };

  Scope span(std::string name, std::uint64_t actor = 0) {
    return Scope(*this, std::move(name), actor);
  }

  /// End the root span and return every event recorded.
  std::vector<lod::obs::TraceEvent> finish();

 private:
  std::uint64_t record(lod::obs::EventType type, std::uint64_t span,
                       const std::string& name, std::uint64_t actor);

  std::chrono::steady_clock::time_point t0_;
  std::mutex mu_;  ///< guards events_ and next_span_
  std::vector<lod::obs::TraceEvent> events_;
  std::uint64_t next_span_{2};
};

/// Fill \p r.end_to_end in BENCHMARK.json order from the run's medians and
/// totals (r.attempted and r.failed must be final), and print the viewer
/// quantities the ratios come from: session_fail_ratio, stall_ratio and the
/// startup p50/p99.
void set_end_to_end(WorkloadResult& r, double cpu_us_per_session, double setup_s,
                    double planned_us, double stall_us, double startup_mean_ms,
                    double startup_p50_ms, double startup_p99_ms);

/// Per-layer count table rows read from a (merged) snapshot, normalised per
/// session. \p sessions must be the sessions the snapshot covers, and
/// \p bytes_copied the `Payload::stats()` copies made while serving them.
std::vector<CountRow> count_rows(const lod::obs::Snapshot& snap,
                                 double sessions, std::uint64_t bytes_copied);

/// The value of row \p name, or 0.
double row_value(const std::vector<CountRow>& rows, std::string_view name);

void print_counts(const std::vector<CountRow>& rows);

}  // namespace lodbench
