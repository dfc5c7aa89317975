#include "lod/sync/image.hpp"

#include <stdexcept>

namespace lod::sync {

namespace {

constexpr std::uint32_t kMarkEnvelope = 0x454e5650u;  // 'ENVP'

}  // namespace

SessionImage capture_session_image(SessionState& s,
                                   const streaming::Player& p) {
  s.refresh();
  SessionImage img;
  img.content = p.content();
  img.session_id = p.session_id();
  img.position_us = p.position().us;
  img.stream_epoch = p.stream_epoch();
  img.trace_id = p.session_context().trace_id;
  img.root_span = p.session_root_span();
  img.state = s.serialize_full();
  return img;
}

SessionState::ApplyResult restore_session_image(SessionState& s,
                                                const SessionImage& img) {
  return s.apply(img.state);
}

std::vector<std::byte> serialize_image(const SessionImage& img) {
  net::ByteWriter w;
  w.u32(kSessionImageMagic);
  w.u16(kSessionImageVersion);
  w.u32(kMarkEnvelope);
  w.str(img.content);
  w.u64(img.session_id);
  w.i64(img.position_us);
  w.u32(img.stream_epoch);
  w.u64(img.trace_id);
  w.u64(img.root_span);
  w.blob(img.state);
  const std::uint64_t sum = checksum64(w.bytes());
  w.u64(sum);
  return std::move(w).take();
}

SessionImage parse_image(std::span<const std::byte> bytes) {
  if (bytes.size() < 8) {
    throw std::runtime_error("SessionImage: truncated (no checksum)");
  }
  const auto body = bytes.first(bytes.size() - 8);
  net::ByteReader tail(bytes.subspan(bytes.size() - 8));
  if (tail.u64() != checksum64(body)) {
    throw std::runtime_error("SessionImage: checksum mismatch");
  }
  net::ByteReader r(body);
  if (r.u32() != kSessionImageMagic) {
    throw std::runtime_error("SessionImage: bad magic");
  }
  const std::uint16_t version = r.u16();
  if (version != kSessionImageVersion) {
    throw std::runtime_error("SessionImage: unsupported version " +
                             std::to_string(version));
  }
  r.expect_marker(kMarkEnvelope);
  SessionImage img;
  img.content = r.str();
  img.session_id = r.u64();
  img.position_us = r.i64();
  img.stream_epoch = r.u32();
  img.trace_id = r.u64();
  img.root_span = r.u64();
  img.state = r.blob();
  return img;
}

void attach_migration_image(streaming::Player& p, SessionState& s) {
  p.set_session_image_provider([&p, &s] {
    return serialize_image(capture_session_image(s, p));
  });
}

}  // namespace lod::sync
