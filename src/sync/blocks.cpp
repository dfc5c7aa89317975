#include "lod/sync/blocks.hpp"

#include <utility>

namespace lod::sync {

namespace {

// Section markers: cheap structural guards between logical fields (see
// `ByteReader::expect_marker`). Values are arbitrary but stable — they are
// wire format.
constexpr std::uint32_t kMarkMarking = 0x4d41524bu;  // 'MARK'
constexpr std::uint32_t kMarkFloor = 0x464c4f52u;    // 'FLOR'

}  // namespace

void save_marking(net::ByteWriter& w, const core::Marking& m) {
  w.u32(kMarkMarking);
  w.u32(static_cast<std::uint32_t>(m.size()));
  for (const std::uint32_t tokens : m) w.u32(tokens);
}

void load_marking(net::ByteReader& r, core::Marking& m) {
  r.expect_marker(kMarkMarking);
  core::Marking tokens(r.count(4));
  for (std::uint32_t& t : tokens) t = r.u32();
  m = std::move(tokens);
}

void register_marking_block(SessionState& s, std::uint32_t id,
                            std::string name, core::Marking* m) {
  s.register_block(
      id, std::move(name), [m](net::ByteWriter& w) { save_marking(w, *m); },
      [m](net::ByteReader& r) { load_marking(r, *m); });
}

void register_floor_block(SessionState& s, std::uint32_t id, std::string name,
                          ::lod::lod::FloorControl* f) {
  s.register_block(
      id, std::move(name),
      [f](net::ByteWriter& w) {
        const auto st = f->state();
        w.u32(kMarkFloor);
        save_marking(w, st.marking);
        w.u32(static_cast<std::uint32_t>(st.fifo.size()));
        for (const std::string& u : st.fifo) w.str(u);
      },
      [f](net::ByteReader& r) {
        r.expect_marker(kMarkFloor);
        ::lod::lod::FloorControl::State st;
        load_marking(r, st.marking);
        const std::uint32_t n = r.count(4);
        st.fifo.reserve(n);
        for (std::uint32_t i = 0; i < n; ++i) st.fifo.push_back(r.str());
        f->restore(st);
      });
}

void register_player_block(SessionState& s, std::uint32_t id, std::string name,
                           streaming::Player* p,
                           streaming::Player::Block block) {
  s.register_block(
      id, std::move(name),
      [p, block](net::ByteWriter& w) { p->save(block, w); },
      [p, block](net::ByteReader& r) { p->load(block, r); });
}

void register_player_session_blocks(SessionState& s, streaming::Player* p) {
  using B = streaming::Player::Block;
  static constexpr struct {
    std::uint32_t id;
    const char* name;
    B block;
  } kBlocks[] = {
      {kBlockPlayerCursor, "player.cursor", B::kCursor},
      {kBlockPlayerReorder, "player.reorder", B::kReorder},
      {kBlockPlayerRepair, "player.repair", B::kRepair},
      {kBlockPlayerSlideCache, "player.slides", B::kSlides},
      {kBlockPlayerTrace, "player.trace", B::kTrace},
  };
  for (const auto& b : kBlocks) register_player_block(s, b.id, b.name, p, b.block);
}

}  // namespace lod::sync
