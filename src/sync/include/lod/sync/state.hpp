#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "lod/net/bytes.hpp"

/// \file state.hpp
/// `SessionState`: the registry of serializable state blocks that together
/// define "the session" for synchronization purposes.
///
/// Each block is a named, numbered unit of session-critical state — the
/// Petri-net marking, the floor FIFO, a player's render-clock cursor — with
/// a save/load callback pair. `refresh()` re-serializes every block and
/// tracks which blocks' bytes changed (dirty tracking), so a delta image
/// ships only the blocks a peer actually disagrees on. The combined
/// checksum over all block bytes (in block-id order) is what sync epochs
/// gossip between sites.
///
/// Block ids are part of the wire contract: every site in a session must
/// register the same blocks under the same ids. The serialized image format
/// ('LSST') is versioned so later PRs (snapshot/migration, record-replay —
/// ROADMAP item 4) can evolve it compatibly.

namespace lod::sync {

/// FNV-1a 64-bit over a byte span — the cheap rolling checksum sync epochs
/// gossip between sites. Not cryptographic; collision-resistant enough to
/// flag replica drift (a false match self-corrects at the next epoch).
inline std::uint64_t checksum64(std::span<const std::byte> bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 1099511628211ull;
  }
  return h;
}

/// Fold one 64-bit value into a running checksum (combining per-block sums
/// into a session checksum in block-id order).
inline std::uint64_t checksum_combine(std::uint64_t seed, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    seed ^= (v >> (8 * i)) & 0xff;
    seed *= 1099511628211ull;
  }
  return seed;
}

/// 'LSST' little-endian.
constexpr std::uint32_t kImageMagic = 0x5453534cu;
constexpr std::uint16_t kImageVersion = 1;
/// Image flag: the image carries only blocks that differed (a delta), not
/// the complete session.
constexpr std::uint8_t kImageFlagDelta = 0x01;

/// One block's identity + checksum, as exchanged in delta negotiations.
struct BlockSum {
  std::uint32_t id{0};
  std::uint64_t sum{0};
};

class SessionState {
 public:
  /// A block's bytes are a flat little-endian stream headed by a section
  /// marker (`ByteReader::expect_marker`). The same state must serialize to
  /// the same bytes on every site and every pass: per-block checksums over
  /// them are what desync detection compares. A loader decodes the whole
  /// block before it changes its target, so a malformed block throws and
  /// leaves the target as it was.
  using SaveFn = std::function<void(net::ByteWriter&)>;
  using LoadFn = std::function<void(net::ByteReader&)>;

  /// Register a block. \p id must be unique within this state and identical
  /// across all sites of the session (throws std::invalid_argument on
  /// duplicates). Blocks are kept in id order regardless of registration
  /// order, so the combined checksum is registration-order independent.
  void register_block(std::uint32_t id, std::string name, SaveFn save,
                      LoadFn load);

  bool has_block(std::uint32_t id) const;
  std::size_t block_count() const { return blocks_.size(); }

  /// Re-serialize every block and update per-block checksums. A block whose
  /// bytes changed since the previous refresh is dirty. Returns the number
  /// of dirty blocks.
  std::size_t refresh();

  /// Combined checksum over all block bytes (id order), as of the last
  /// refresh. This is the value gossiped per sync epoch.
  std::uint64_t checksum() const { return checksum_; }

  /// Per-block checksums as of the last refresh (id order).
  std::vector<BlockSum> block_sums() const;

  /// Ids of the blocks found dirty by the last refresh.
  const std::vector<std::uint32_t>& dirty_blocks() const { return dirty_; }

  /// Size of a full image of the current (last-refreshed) state.
  std::size_t full_size_bytes() const;

  /// Serialize every block (state as of the last refresh).
  std::vector<std::byte> serialize_full() const;

  /// Serialize only the blocks whose checksum differs from \p peer's view
  /// (or that \p peer does not report at all). The trailing checksum is the
  /// FULL-state checksum — the target the receiver must reach after
  /// applying the delta on top of its own state.
  std::vector<std::byte> serialize_delta(std::span<const BlockSum> peer) const;

  struct ApplyResult {
    bool ok{false};              ///< image parsed and all blocks loaded
    bool delta{false};           ///< image was a delta
    bool checksum_match{false};  ///< post-apply state reached the image's
                                 ///< trailing (target) checksum
    std::size_t blocks_applied{0};
    std::size_t bytes{0};  ///< image size
    std::string error;     ///< parse/load failure description
  };

  /// Apply a full or delta image: load each carried block into its
  /// registered target, then refresh and compare against the image's
  /// trailing checksum. Unknown block ids or malformed bytes fail the apply
  /// (blocks loaded before the failure stay loaded — the caller's recovery
  /// is to re-request; the next epoch's checksum exchange self-corrects).
  ApplyResult apply(std::span<const std::byte> image);

 private:
  struct Block {
    std::uint32_t id;
    std::string name;
    SaveFn save;
    LoadFn load;
    std::vector<std::byte> bytes;  ///< serialized form as of last refresh
    std::uint64_t sum{0};
  };

  const Block* find(std::uint32_t id) const;
  Block* find(std::uint32_t id);
  std::vector<std::byte> serialize_blocks(
      const std::vector<const Block*>& blocks, bool delta) const;

  std::vector<Block> blocks_;  ///< sorted by id
  std::vector<std::uint32_t> dirty_;
  std::uint64_t checksum_{0};
};

}  // namespace lod::sync
