#include "lod/sync/state.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace lod::sync {

void SessionState::register_block(std::uint32_t id, std::string name,
                                  SaveFn save, LoadFn load) {
  if (find(id) != nullptr) {
    throw std::invalid_argument("SessionState: duplicate block id " +
                                std::to_string(id));
  }
  Block b{id, std::move(name), std::move(save), std::move(load), {}, 0};
  const auto pos = std::lower_bound(
      blocks_.begin(), blocks_.end(), id,
      [](const Block& x, std::uint32_t v) { return x.id < v; });
  blocks_.insert(pos, std::move(b));
}

bool SessionState::has_block(std::uint32_t id) const {
  return find(id) != nullptr;
}

const SessionState::Block* SessionState::find(std::uint32_t id) const {
  const auto it = std::lower_bound(
      blocks_.begin(), blocks_.end(), id,
      [](const Block& x, std::uint32_t v) { return x.id < v; });
  return (it != blocks_.end() && it->id == id) ? &*it : nullptr;
}

SessionState::Block* SessionState::find(std::uint32_t id) {
  return const_cast<Block*>(std::as_const(*this).find(id));
}

std::size_t SessionState::refresh() {
  dirty_.clear();
  std::uint64_t combined = checksum64({});
  for (Block& b : blocks_) {
    net::ByteWriter w;
    b.save(w);
    std::vector<std::byte> bytes = std::move(w).take();
    const std::uint64_t sum = checksum64(bytes);
    if (bytes != b.bytes) dirty_.push_back(b.id);
    b.bytes = std::move(bytes);
    b.sum = sum;
    combined = checksum_combine(combined, b.id);
    combined = checksum_combine(combined, sum);
  }
  checksum_ = combined;
  return dirty_.size();
}

std::vector<BlockSum> SessionState::block_sums() const {
  std::vector<BlockSum> out;
  out.reserve(blocks_.size());
  for (const Block& b : blocks_) out.push_back({b.id, b.sum});
  return out;
}

std::size_t SessionState::full_size_bytes() const {
  // Header (magic u32, version u16, flags u8, count u32) + per-block
  // (id u32 + blob len u32 + bytes) + trailing checksum u64.
  std::size_t n = 4 + 2 + 1 + 4 + 8;
  for (const Block& b : blocks_) n += 4 + 4 + b.bytes.size();
  return n;
}

std::vector<std::byte> SessionState::serialize_blocks(
    const std::vector<const Block*>& blocks, bool delta) const {
  net::ByteWriter w;
  w.u32(kImageMagic);
  w.u16(kImageVersion);
  w.u8(delta ? kImageFlagDelta : 0);
  w.u32(static_cast<std::uint32_t>(blocks.size()));
  for (const Block* b : blocks) {
    w.u32(b->id);
    w.blob(b->bytes);
  }
  // Always the full-state checksum: for a delta it is the TARGET the
  // receiver must reach, letting it verify convergence without a second
  // round trip.
  w.u64(checksum_);
  return std::move(w).take();
}

std::vector<std::byte> SessionState::serialize_full() const {
  std::vector<const Block*> all;
  all.reserve(blocks_.size());
  for (const Block& b : blocks_) all.push_back(&b);
  return serialize_blocks(all, /*delta=*/false);
}

std::vector<std::byte> SessionState::serialize_delta(
    std::span<const BlockSum> peer) const {
  std::vector<const Block*> changed;
  for (const Block& b : blocks_) {
    const auto it =
        std::find_if(peer.begin(), peer.end(),
                     [&](const BlockSum& s) { return s.id == b.id; });
    if (it == peer.end() || it->sum != b.sum) changed.push_back(&b);
  }
  return serialize_blocks(changed, /*delta=*/true);
}

SessionState::ApplyResult SessionState::apply(
    std::span<const std::byte> image) {
  ApplyResult r;
  r.bytes = image.size();
  try {
    net::ByteReader reader(image);
    if (reader.u32() != kImageMagic) {
      r.error = "bad image magic";
      return r;
    }
    const std::uint16_t version = reader.u16();
    if (version != kImageVersion) {
      r.error = "unsupported image version " + std::to_string(version);
      return r;
    }
    const std::uint8_t flags = reader.u8();
    r.delta = (flags & kImageFlagDelta) != 0;
    const std::uint32_t count = reader.u32();
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint32_t id = reader.u32();
      const std::vector<std::byte> bytes = reader.blob();
      Block* b = find(id);
      if (b == nullptr) {
        r.error = "unknown block id " + std::to_string(id);
        return r;
      }
      net::ByteReader block_reader(bytes);
      b->load(block_reader);
      if (!block_reader.done()) {
        r.error = "block " + b->name + ": loader left " +
                  std::to_string(block_reader.remaining()) +
                  " bytes unconsumed";
        return r;
      }
      ++r.blocks_applied;
    }
    const std::uint64_t target = reader.u64();
    if (!reader.done()) {
      r.error = "trailing bytes after image";
      return r;
    }
    refresh();
    r.checksum_match = (checksum_ == target);
    r.ok = true;
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  return r;
}

}  // namespace lod::sync
