#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "lod/lod/loadgen.hpp"
#include "lod/net/sharded_runner.hpp"
#include "lod/obs/flight.hpp"
#include "lod/sync/state.hpp"

/// \file replay.hpp
/// Deterministic record-replay for LoadGen runs (ROADMAP item 4, second
/// half). A run's nondeterminism lives entirely in its input script — the
/// simulator itself is deterministic given (seed, inputs) — so journaling
/// every `SessionInput` as it is applied, then handing the journal back to
/// `LoadGen::run(script)`, reproduces the run byte-identically: the replay's
/// merged snapshot equals the original's.
///
/// The journal rides the obs flight-recorder machinery (`FlightType::kInput`
/// events in a private single-lane ring), so recording costs the same
/// handful of relaxed stores as any other flight event and the journal
/// format is the flight format — a dumped flight JSONL with kInput lines IS
/// a replayable script.

namespace lod::sync {

/// 'LSRJ' little-endian.
constexpr std::uint32_t kInputLogMagic = 0x4a52534cu;
constexpr std::uint16_t kInputLogVersion = 1;

/// Journals one shard's applied inputs. Owns a private FlightRecorder (one
/// lane, 32k slots — comfortably above any plausible per-shard input count)
/// rather than borrowing the hub's, so the dispatch firehose can never
/// evict journal entries. Single-writer, like every flight lane: one
/// recorder per shard.
class SessionRecorder {
 public:
  SessionRecorder();

  /// Journal one input: kInput, actor = global session index, a = kind,
  /// b = argument.
  void record(const ::lod::lod::SessionInput& in);

  /// Adapter for `LoadGen::set_input_tap`.
  std::function<void(const ::lod::lod::SessionInput&)> tap();

  /// The journal decoded back into inputs, oldest first.
  std::vector<::lod::lod::SessionInput> inputs() const;

  /// Entries aged out of the ring (must be 0 for a faithful journal).
  std::uint64_t dropped() const;

 private:
  obs::FlightRecorder flight_;
};

/// A whole run's journal: the seed that reproduces the deployment plus the
/// merged, (session, time)-ordered input list of every shard.
struct InputLog {
  std::uint64_t root_seed{0};
  std::uint32_t sessions{0};  ///< WorkloadSpec::sessions at record time
  std::vector<::lod::lod::SessionInput> records;
};

/// Wire codec ('LSRJ', trailing FNV-1a checksum). `parse_input_log` throws
/// std::runtime_error on bad magic/version/checksum and std::out_of_range
/// on truncation.
std::vector<std::byte> serialize_input_log(const InputLog& log);
InputLog parse_input_log(std::span<const std::byte> bytes);

/// A recorded run: its observable outcome plus the journal that replays it.
struct RecordedRun {
  net::ShardedResult result;
  InputLog log;
};

/// Run \p spec across \p shards workers (like `LoadGen::run_sharded`) with a
/// SessionRecorder tapped into every shard, and merge the journals.
RecordedRun record_loadgen_run(const ::lod::lod::WorkloadSpec& spec,
                               std::size_t shards, std::uint64_t root_seed,
                               bool enable_trace = false);

/// Re-run a journal: every shard executes the FULL input list (inputs for
/// sessions a shard does not own are no-ops there), so the journal needs no
/// re-sharding. With the recorded spec/shards/seed, the returned merged
/// snapshot is byte-identical to the recorded run's.
net::ShardedResult replay_loadgen_run(const ::lod::lod::WorkloadSpec& spec,
                                      std::size_t shards, const InputLog& log,
                                      bool enable_trace = false);

}  // namespace lod::sync
