#pragma once

#include <cstdint>
#include <string>

#include "lod/core/petri.hpp"
#include "lod/lod/floor.hpp"
#include "lod/streaming/player.hpp"
#include "lod/sync/state.hpp"

/// \file blocks.hpp
/// Registers the session-critical state of the lower layers as
/// `SessionState` blocks. This file owns the byte layout of the blocks whose
/// providers expose plain state (`core::Marking`, `FloorControl::State`).
/// The player writes and reads its own blocks (`Player::save`/`load`), so
/// its adapters only bind a `Player::Block` to an id. Block ids are
/// caller-chosen and must be identical on every site of a session.

namespace lod::sync {

/// Serialize/deserialize a Petri-net marking (bare token vector). The load
/// decodes the whole marking before assigning \p m.
void save_marking(net::ByteWriter& w, const core::Marking& m);
void load_marking(net::ByteReader& r, core::Marking& m);

/// Register \p m (borrowed; must outlive the state) as a block.
void register_marking_block(SessionState& s, std::uint32_t id,
                            std::string name, core::Marking* m);

/// Register a floor-control instance: marking + FIFO request queue. Loads
/// go through `FloorControl::restore`, so a snapshot that does not fit the
/// local net fails the apply instead of corrupting it.
void register_floor_block(SessionState& s, std::uint32_t id, std::string name,
                          ::lod::lod::FloorControl* f);

/// Register one of a live player's blocks (by default its render-timeline
/// cursor; a mid-playout cursor load rolls the player forward through
/// buffered script commands).
void register_player_block(
    SessionState& s, std::uint32_t id, std::string name, streaming::Player* p,
    streaming::Player::Block block = streaming::Player::Block::kCursor);

/// Well-known block ids for a full player session image (the blocks
/// `register_player_session_blocks` registers). Part of the wire contract:
/// every site of a migrating session must agree on them.
inline constexpr std::uint32_t kBlockPlayerCursor = 16;
inline constexpr std::uint32_t kBlockPlayerReorder = 17;
inline constexpr std::uint32_t kBlockPlayerRepair = 18;
inline constexpr std::uint32_t kBlockPlayerSlideCache = 19;
inline constexpr std::uint32_t kBlockPlayerTrace = 20;

/// Register the complete migratable surface of one player under the
/// well-known ids above: render cursor, reorder buffer, repair state, slide
/// cache, trace context.
void register_player_session_blocks(SessionState& s, streaming::Player* p);

}  // namespace lod::sync
