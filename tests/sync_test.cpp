#include "lod/sync/agent.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>

#include "lod/lod/floor.hpp"
#include "lod/net/network.hpp"
#include "lod/streaming/encoder.hpp"
#include "lod/streaming/player.hpp"
#include "lod/streaming/server.hpp"
#include "lod/sync/blocks.hpp"
#include "lod/sync/detector.hpp"
#include "lod/sync/image.hpp"
#include "lod/sync/state.hpp"

namespace lod::sync {
namespace {

using net::msec;
using net::sec;
using net::SimDuration;
using net::SimTime;

std::span<const std::byte> span_of(const std::vector<std::byte>& v) {
  return {v.data(), v.size()};
}

// --- block serialization (net::ByteWriter / ByteReader + markers) -----------------

TEST(SyncSerialize, RoundTripsEveryFieldType) {
  net::ByteWriter w;
  w.u8(7);
  w.u16(60000);
  w.u32(0xdeadbeef);
  w.u64(1ull << 60);
  w.i64(-12345);
  w.f64(1.25);
  w.str("floor_free");
  w.u32(0x4d41524bu);  // section marker
  w.blob(span_of(std::vector<std::byte>(13, std::byte{0x5a})));

  net::ByteReader r(span_of(w.bytes()));
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u16(), 60000);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 1ull << 60);
  EXPECT_EQ(r.i64(), -12345);
  EXPECT_EQ(r.f64(), 1.25);
  EXPECT_EQ(r.str(), "floor_free");
  r.expect_marker(0x4d41524bu);
  EXPECT_EQ(r.blob().size(), 13u);
  EXPECT_TRUE(r.done());
}

TEST(SyncSerialize, MarkerMismatchThrows) {
  net::ByteWriter w;
  w.u32(1);
  net::ByteReader r(span_of(w.bytes()));
  EXPECT_THROW(r.expect_marker(2), std::runtime_error);
}

TEST(SyncSerialize, TruncatedInputThrowsNeverUb) {
  net::ByteWriter w;
  w.u64(42);
  const auto& b = w.bytes();
  net::ByteReader r(std::span{b.data(), 3});
  EXPECT_THROW(r.u64(), std::out_of_range);
  // A marker cut short is truncation, not a mismatch.
  net::ByteReader m(std::span{b.data(), 3});
  EXPECT_THROW(m.expect_marker(42), std::out_of_range);
}

TEST(SyncSerialize, CountLargerThanTheInputThrowsBeforeAllocating) {
  net::ByteWriter w;
  w.u32(3);
  for (std::uint32_t i = 0; i < 3; ++i) w.u32(i);
  net::ByteReader fits(span_of(w.bytes()));
  EXPECT_EQ(fits.count(4), 3u);
  net::ByteReader too_wide(span_of(w.bytes()));
  EXPECT_THROW(too_wide.count(5), std::out_of_range);  // 3 x 5 > 12 bytes

  net::ByteWriter huge;
  huge.u32(0xffffffffu);
  net::ByteReader r(span_of(huge.bytes()));
  EXPECT_THROW(r.count(1), std::out_of_range);
}

TEST(SyncSerialize, ChecksumIsDeterministicAndSensitive) {
  std::vector<std::byte> a(64, std::byte{1});
  EXPECT_EQ(checksum64(span_of(a)), checksum64(span_of(a)));
  std::vector<std::byte> b = a;
  b[17] = std::byte{2};
  EXPECT_NE(checksum64(span_of(a)), checksum64(span_of(b)));
}

// --- DesyncDetector ---------------------------------------------------------------

TEST(DesyncDetector, ClassifiesTransientThenPersistent) {
  DesyncDetector d(DesyncDetector::Config{3});
  EXPECT_EQ(d.observe(1, true), DesyncDetector::Verdict::kInSync);
  EXPECT_EQ(d.observe(2, false), DesyncDetector::Verdict::kTransient);
  EXPECT_EQ(d.observe(3, false), DesyncDetector::Verdict::kTransient);
  EXPECT_EQ(d.observe(4, false), DesyncDetector::Verdict::kPersistent);
  EXPECT_TRUE(d.desynced());
  // One clean epoch clears it.
  EXPECT_EQ(d.observe(5, true), DesyncDetector::Verdict::kInSync);
  EXPECT_FALSE(d.desynced());
}

TEST(DesyncDetector, StaleOrRepeatedEpochsDoNotAdvance) {
  DesyncDetector d(DesyncDetector::Config{2});
  EXPECT_EQ(d.observe(5, false), DesyncDetector::Verdict::kTransient);
  // Same epoch again (duplicate gossip): ignored, verdict unchanged.
  EXPECT_EQ(d.observe(5, false), DesyncDetector::Verdict::kTransient);
  EXPECT_EQ(d.streak(), 1);
  // Older epoch: ignored.
  EXPECT_EQ(d.observe(3, false), DesyncDetector::Verdict::kTransient);
  EXPECT_EQ(d.observe(6, false), DesyncDetector::Verdict::kPersistent);
}

TEST(DesyncDetector, ResyncResetsTheStreak) {
  DesyncDetector d(DesyncDetector::Config{2});
  d.observe(1, false);
  d.observe(2, false);
  EXPECT_TRUE(d.desynced());
  d.note_resynced();
  EXPECT_FALSE(d.desynced());
  EXPECT_EQ(d.observe(3, false), DesyncDetector::Verdict::kTransient);
}

// --- SessionState -----------------------------------------------------------------

/// A detached render cursor: plain replica bookkeeping, registered as a
/// block straight through `SessionState::register_block`.
struct Cursor {
  std::int64_t base_pts_us{0};
  double rate{1.0};
};

void register_cursor_block(SessionState& s, std::uint32_t id, Cursor* c) {
  constexpr std::uint32_t kMark = 0x43555253u;  // 'CURS'
  s.register_block(
      id, "cursor",
      [c](net::ByteWriter& w) {
        w.u32(kMark);
        w.i64(c->base_pts_us);
        w.f64(c->rate);
      },
      [c](net::ByteReader& r) {
        r.expect_marker(kMark);
        const std::int64_t base = r.i64();
        const double rate = r.f64();
        *c = Cursor{base, rate};
      });
}

struct TwoBlockState {
  core::Marking marking{1, 0, 2};
  Cursor cursor;
  SessionState state;

  TwoBlockState() {
    register_marking_block(state, 1, "marking", &marking);
    register_cursor_block(state, 2, &cursor);
    state.refresh();
  }
};

TEST(SessionState, DirtyTrackingFlagsOnlyChangedBlocks) {
  TwoBlockState s;
  EXPECT_EQ(s.state.refresh(), 0u);  // nothing changed since ctor refresh
  s.marking[1] = 1;
  ASSERT_EQ(s.state.refresh(), 1u);
  EXPECT_EQ(s.state.dirty_blocks().front(), 1u);
  s.cursor.base_pts_us = 777;
  ASSERT_EQ(s.state.refresh(), 1u);
  EXPECT_EQ(s.state.dirty_blocks().front(), 2u);
}

TEST(SessionState, DuplicateBlockIdThrows) {
  TwoBlockState s;
  EXPECT_THROW(
      s.state.register_block(
          1, "dup", [](net::ByteWriter&) {}, [](net::ByteReader&) {}),
      std::invalid_argument);
}

TEST(SessionState, SerializeDeserializeSerializeIsByteIdentical) {
  TwoBlockState a;
  a.marking = {0, 1, 5};
  a.cursor.base_pts_us = 123456;
  a.cursor.rate = 1.5;
  a.state.refresh();
  const std::vector<std::byte> img1 = a.state.serialize_full();

  TwoBlockState b;  // different starting state
  const auto res = b.state.apply(span_of(img1));
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_FALSE(res.delta);
  EXPECT_TRUE(res.checksum_match);
  EXPECT_EQ(res.blocks_applied, 2u);
  EXPECT_EQ(b.marking, a.marking);
  EXPECT_EQ(b.cursor.base_pts_us, 123456);

  const std::vector<std::byte> img2 = b.state.serialize_full();
  EXPECT_EQ(img1, img2);
}

TEST(SessionState, DeltaShipsOnlyDisagreeingBlocks) {
  TwoBlockState authority;
  TwoBlockState replica;
  // Replica's marking diverges; cursors agree.
  replica.marking = {0, 0, 9};
  replica.state.refresh();

  const auto delta =
      authority.state.serialize_delta(replica.state.block_sums());
  const auto full = authority.state.serialize_full();
  EXPECT_LT(delta.size(), full.size());

  const auto res = replica.state.apply(span_of(delta));
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_TRUE(res.delta);
  EXPECT_TRUE(res.checksum_match);
  EXPECT_EQ(res.blocks_applied, 1u);  // only the marking travelled
  EXPECT_EQ(replica.marking, authority.marking);
  EXPECT_EQ(replica.state.checksum(), authority.state.checksum());
}

TEST(SessionState, ApplyRejectsGarbageAndUnknownBlocks) {
  TwoBlockState s;
  // Garbage bytes.
  std::vector<std::byte> junk(32, std::byte{0xee});
  EXPECT_FALSE(s.state.apply(span_of(junk)).ok);
  // Truncated valid image.
  const auto img = s.state.serialize_full();
  EXPECT_FALSE(s.state.apply(std::span{img.data(), img.size() / 2}).ok);
  // An image carrying a block this state does not register.
  SessionState other;
  core::Marking m{1};
  register_marking_block(other, 99, "alien", &m);
  other.refresh();
  const auto res = s.state.apply(span_of(other.serialize_full()));
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("unknown block"), std::string::npos);
}

/// A hand-built LSST delta carrying one block.
std::vector<std::byte> one_block_delta(std::uint32_t id,
                                       std::span<const std::byte> bytes) {
  net::ByteWriter w;
  w.u32(kImageMagic);
  w.u16(kImageVersion);
  w.u8(kImageFlagDelta);
  w.u32(1);
  w.u32(id);
  w.blob(bytes);
  w.u64(0);  // target checksum
  return std::move(w).take();
}

TEST(SessionState, OversizedPeerCountFailsTheApplyAndLeavesTheMarking) {
  TwoBlockState s;
  const core::Marking before = s.marking;
  // 'MARK' + a count of 1M tokens, and no tokens: a 35-byte delta that
  // must not size a 4 MiB marking.
  net::ByteWriter block;
  block.u32(0x4d41524bu);
  block.u32(1u << 20);
  const auto delta = one_block_delta(1, span_of(block.bytes()));
  ASSERT_EQ(delta.size(), 35u);
  const auto res = s.state.apply(span_of(delta));
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(s.marking, before);
  EXPECT_LT(s.marking.capacity(), 1024u);

  // The same lie inside a floor block's FIFO.
  ::lod::lod::FloorControl floor({"ann", "bob"});
  ASSERT_TRUE(floor.request("ann"));
  SessionState fs;
  register_floor_block(fs, 2, "floor", &floor);
  net::ByteWriter fb;
  fb.u32(0x464c4f52u);  // 'FLOR'
  save_marking(fb, floor.marking());
  fb.u32(0xffffffffu);
  EXPECT_FALSE(fs.apply(one_block_delta(2, span_of(fb.bytes()))).ok);
  EXPECT_EQ(floor.holder(), "ann");
}

// --- structure hash ---------------------------------------------------------------

TEST(StructureHash, StableAcrossInstancesAndStructureSensitive) {
  const auto build = [](std::uint32_t cap) {
    core::PetriNet n;
    const auto p = n.add_place("p", cap);
    const auto q = n.add_place("q");
    const auto t = n.add_transition("t");
    n.add_input(p, t);
    n.add_output(t, q);
    return n;
  };
  EXPECT_EQ(build(1).structure_hash(), build(1).structure_hash());
  EXPECT_NE(build(1).structure_hash(), build(2).structure_hash());

  ::lod::lod::FloorControl f1({"ann", "bob"});
  ::lod::lod::FloorControl f2({"ann", "bob"});
  ::lod::lod::FloorControl f3({"ann", "eve"});
  EXPECT_EQ(f1.net().structure_hash(), f2.net().structure_hash());
  EXPECT_NE(f1.net().structure_hash(), f3.net().structure_hash());
}

// --- FloorControl snapshot/restore ------------------------------------------------

TEST(FloorState, SnapshotRestoreReplicatesHolderAndQueue) {
  ::lod::lod::FloorControl a({"ann", "bob", "cyd"});
  ASSERT_TRUE(a.request("ann"));  // granted at once
  ASSERT_TRUE(a.request("bob"));  // queued
  ASSERT_TRUE(a.request("cyd"));  // queued
  ASSERT_EQ(a.holder(), "ann");

  ::lod::lod::FloorControl b({"ann", "bob", "cyd"});
  b.restore(a.state());
  EXPECT_EQ(b.holder(), "ann");
  EXPECT_EQ(b.waiting(), a.waiting());
  EXPECT_EQ(b.marking(), a.marking());
  // The restored replica keeps operating correctly from the new state.
  ASSERT_TRUE(b.release("ann"));
  EXPECT_EQ(b.holder(), "bob");
}

TEST(FloorState, RestoreValidatesSnapshotAgainstTheNet) {
  ::lod::lod::FloorControl f({"ann", "bob"});
  ::lod::lod::FloorControl::State bad;
  bad.marking = {1};  // wrong size
  EXPECT_THROW(f.restore(bad), std::invalid_argument);

  auto s = f.state();
  s.fifo = {"ann", "ann"};  // duplicate queue entry
  EXPECT_THROW(f.restore(s), std::invalid_argument);
  s.fifo = {"zed"};  // unknown user
  EXPECT_THROW(f.restore(s), std::invalid_argument);
  s.fifo.clear();
  s.marking[0] = 9;  // floor_free over its capacity of 1
  EXPECT_THROW(f.restore(s), std::invalid_argument);
}

// --- SyncAgent over the simulated fabric ------------------------------------------

struct SyncAgentTest : ::testing::Test {
  net::Simulator sim;
  net::Network network{sim, 99};
  net::HostId authority_host{};
  net::HostId replica_host{};

  core::Marking m_auth{1, 0, 0};
  core::Marking m_repl{1, 0, 0};
  Cursor c_auth;
  Cursor c_repl;
  SessionState s_auth;
  SessionState s_repl;
  std::unique_ptr<SyncAgent> authority;
  std::unique_ptr<SyncAgent> replica;

  SyncAgentTest() {
    authority_host = network.add_host("teacher");
    replica_host = network.add_host("student");
    net::LinkConfig lan;
    lan.bandwidth_bps = 10'000'000;
    lan.latency = msec(2);
    network.add_link(authority_host, replica_host, lan);

    register_marking_block(s_auth, 1, "marking", &m_auth);
    register_cursor_block(s_auth, 2, &c_auth);
    register_marking_block(s_repl, 1, "marking", &m_repl);
    register_cursor_block(s_repl, 2, &c_repl);
  }

  void make_agents(std::uint64_t auth_structure = 42,
                   std::uint64_t repl_structure = 42) {
    SyncConfig a;
    a.authoritative = true;
    a.structure = auth_structure;
    authority = std::make_unique<SyncAgent>(network, authority_host, s_auth, a);
    authority->add_peer(replica_host);

    SyncConfig r;
    r.authoritative = false;
    r.structure = repl_structure;
    replica = std::make_unique<SyncAgent>(network, replica_host, s_repl, r);
  }

  void run_for(SimDuration d) { sim.run_until(network.now() + d); }
};

TEST_F(SyncAgentTest, AgreeingSitesNeverMismatch) {
  make_agents();
  authority->start();
  replica->start();
  run_for(sec(5));
  EXPECT_GT(replica->stats().gossip_rx, 5u);
  EXPECT_EQ(replica->stats().mismatches, 0u);
  EXPECT_EQ(replica->stats().resync_requests, 0u);
  EXPECT_FALSE(replica->detector().desynced());
}

TEST_F(SyncAgentTest, InjectedDivergenceHealsViaDeltaTransfer) {
  make_agents();
  std::uint64_t resynced_epoch = 0;
  std::size_t resynced_blocks = 0;
  replica->on_resync([&](std::uint64_t e, std::size_t blocks) {
    resynced_epoch = e;
    resynced_blocks = blocks;
  });
  authority->start();
  replica->start();

  network.schedule_after(sec(1), [this] {
    m_repl[2] = 7;  // the replica silently drifts
  });
  run_for(sec(8));

  const SyncStats& st = replica->stats();
  EXPECT_GT(st.mismatches, 0u);
  EXPECT_GE(st.resync_requests, 1u);
  EXPECT_GE(st.resync_ok, 1u);
  EXPECT_GE(authority->stats().resync_serves, 1u);
  EXPECT_GT(resynced_blocks, 0u);
  EXPECT_GT(resynced_epoch, 0u);
  // Healed: replica matches the authority again and says so.
  EXPECT_EQ(m_repl, m_auth);
  EXPECT_EQ(s_repl.checksum(), s_auth.checksum());
  EXPECT_FALSE(replica->detector().desynced());
  // Delta economy: the transfer moved only the drifted block, well under a
  // full image.
  EXPECT_LT(st.delta_bytes, s_auth.full_size_bytes());
}

TEST_F(SyncAgentTest, StructureGuardRefusesForeignState) {
  make_agents(42, 43);  // replica runs a DIFFERENT net structure
  authority->start();
  replica->start();
  network.schedule_after(sec(1), [this] { m_repl[2] = 7; });
  run_for(sec(6));
  EXPECT_GT(replica->stats().structure_mismatches, 0u);
  EXPECT_EQ(replica->stats().resync_requests, 0u);
  EXPECT_NE(m_repl, m_auth);  // nothing was transferred
}

TEST_F(SyncAgentTest, SyncMetricsAreRegisteredPerHost) {
  make_agents();
  authority->start();
  replica->start();
  run_for(sec(3));
  const obs::Snapshot snap = sim.obs().metrics().snapshot();
  EXPECT_GT(snap.counter("lod.sync.epochs",
                         {{"host", std::to_string(replica_host)}}),
            0u);
  EXPECT_GT(snap.counter("lod.sync.gossip_tx",
                         {{"host", std::to_string(authority_host)}}),
            0u);
}

// --- mid-playout serialization (the ROADMAP item-4 foundation contract) -----------

/// One ETPN player 10 s into a 30 s lecture over a 2 ms LAN. \p eventful
/// adds 5% loss with selective repair, prefetched slide flips and tracing,
/// so every player session block carries live data.
struct MidPlayout {
  net::Simulator sim;
  net::Network network{sim, 1234};
  std::unique_ptr<streaming::StreamingServer> server;
  std::unique_ptr<net::RpcServer> web;
  std::unique_ptr<streaming::Player> player;

  explicit MidPlayout(bool eventful) {
    const auto server_host = network.add_host("server");
    const auto client_host = network.add_host("client");
    net::LinkConfig lan;
    lan.bandwidth_bps = 10'000'000;
    lan.latency = msec(2);
    if (eventful) lan.loss_rate = 0.05;
    network.add_link(server_host, client_host, lan);
    if (eventful) sim.obs().trace().set_enabled(true);

    server = std::make_unique<streaming::StreamingServer>(network, server_host);
    streaming::EncodeJob job;
    job.profile = *media::find_profile("Video 250k DSL/cable");
    job.title = "Lecture";
    job.preroll = msec(2000);
    media::LectureVideoSource v(sec(30), job.profile.fps, job.profile.width,
                                job.profile.height, 7);
    media::LectureAudioSource a(sec(30), job.profile.audio_sample_rate());
    std::vector<media::asf::ScriptCommand> scripts;
    if (eventful) {
      web = std::make_unique<net::RpcServer>(network, server_host,
                                             streaming::proto::kWebPort);
      for (std::uint32_t i = 0; i < 3; ++i) {
        web->route("/slides/" + std::to_string(i),
                   [](std::string_view, std::span<const std::byte>) {
                     return std::make_pair(
                         200, media::asf::pattern_bytes(20'000, 1));
                   });
      }
      scripts = streaming::slide_flip_commands(
          media::make_slide_schedule(3, sec(30), 17), "slides/");
    }
    server->publish("lec",
                    streaming::encode_lecture(job, v, a, scripts).file);

    streaming::PlayerConfig cfg;
    cfg.model = streaming::SyncModel::kEtpn;
    cfg.ctl_port = 5000;
    cfg.data_port = 5001;
    cfg.web_server = server_host;
    cfg.repair_losses = eventful;
    cfg.prefetch_slides = eventful;
    player = std::make_unique<streaming::Player>(network, client_host, cfg);
    player->open_and_play(server_host, "lec");
    sim.run_until(SimTime{sec(10).us});
  }
};

TEST(SyncMidPlayout, SerializeDeserializeSerializeIsByteIdentical) {
  MidPlayout s(/*eventful=*/false);
  streaming::Player& player = *s.player;
  ASSERT_TRUE(player.playing());
  const SimDuration pos_before = player.position();
  ASSERT_GT(pos_before.us, 0);

  ::lod::lod::FloorControl floor({"teacher", "student"});
  floor.request("teacher");

  SessionState state;
  register_player_block(state, 1, "player", &player);
  register_floor_block(state, 2, "floor", &floor);
  state.refresh();

  const std::vector<std::byte> img1 = state.serialize_full();
  const auto res = state.apply(span_of(img1));  // deserialize into the session
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_TRUE(res.checksum_match);
  const std::vector<std::byte> img2 = state.serialize_full();
  EXPECT_EQ(img1, img2);

  // Re-applying its own cursor did not move the playhead.
  EXPECT_EQ(player.position().us, pos_before.us);
  EXPECT_EQ(floor.holder(), "teacher");
}

TEST(SyncMidPlayout, MalformedReorderBlockLeavesThePlayerUntouched) {
  MidPlayout s(/*eventful=*/true);
  streaming::Player& player = *s.player;
  ASSERT_TRUE(player.playing());
  SessionState state;
  register_player_session_blocks(state, &player);
  state.refresh();
  const std::vector<BlockSum> before = state.block_sums();
  const SimDuration pos_before = player.position();

  net::ByteWriter reorder;
  player.save(streaming::Player::Block::kReorder, reorder);
  const std::span<const std::byte> whole = span_of(reorder.bytes());
  ASSERT_GT(whole.size(), 64u) << "no held packets to lose";
  // Cut inside the last held packet.
  EXPECT_FALSE(
      state.apply(one_block_delta(kBlockPlayerReorder,
                                  whole.first(whole.size() - 16)))
          .ok);
  // Claim 1M held packets after the real header fields.
  net::ByteWriter lie;
  lie.raw(whole.first(4 + 8 + 8 + 1));
  lie.u32(1u << 20);
  EXPECT_FALSE(
      state.apply(one_block_delta(kBlockPlayerReorder, span_of(lie.bytes())))
          .ok);

  state.refresh();
  EXPECT_EQ(state.dirty_blocks().size(), 0u);
  const std::vector<BlockSum> after = state.block_sums();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].sum, before[i].sum) << "block " << after[i].id;
  }
  EXPECT_EQ(player.position().us, pos_before.us);
}

/// Pins the session-image wire format: a mid-playout image of all five
/// player blocks must match the committed golden byte for byte. Round-trip
/// identity alone would pass a format change made on both sides at once.
///
/// Regenerate (ONLY for an intentional, reviewed format change):
///   LOD_WRITE_GOLDEN=1 build/tests/sync_tests --gtest_filter='SyncMidPlayout.*'
TEST(SyncMidPlayout, SessionImageBytesMatchGolden) {
  MidPlayout s(/*eventful=*/true);
  ASSERT_TRUE(s.player->playing());
  SessionState state;
  register_player_session_blocks(state, s.player.get());
  const std::vector<std::byte> got =
      serialize_image(capture_session_image(state, *s.player));
  const std::string path =
      std::string(LOD_GOLDEN_DIR) + "/session_image.bin";

  if (std::getenv("LOD_WRITE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(got.data()),
              static_cast<std::streamsize>(got.size()));
    GTEST_SKIP() << "golden regenerated at " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  const std::string want((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size()), 0)
      << "session image bytes drifted from the golden; if the change is "
         "intentional, regenerate with LOD_WRITE_GOLDEN=1";
}

}  // namespace
}  // namespace lod::sync
