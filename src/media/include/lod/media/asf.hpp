#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "lod/media/codec.hpp"
#include "lod/media/drm.hpp"
#include "lod/media/object.hpp"

/// \file asf.hpp
/// The Advanced Stream Format stand-in.
///
/// §2.1 of the paper: "The ASF is a data format for streaming audio and video
/// content, images, and script commands in packets over a network. ASF
/// content can be an .asf file or a live stream." We reproduce the structure
/// that the rest of the system depends on:
///
///  - a header object (file properties, stream table, DRM info),
///  - fixed-size data packets, each carrying one or more payloads; large
///    access units fragment across packets, small ones pack together,
///  - a dedicated script-command stream ("instruct the player to perform
///    additional tasks along with rendering" — our slide flips and
///    annotations ride here, exactly like the paper's publishing manager),
///  - an index object mapping presentation time to the cleanest packet to
///    resume from (the "Windows Media ASF Indexer" role), used for seeking.
///
/// Everything round-trips through a byte serialization, so a stored ".asf
/// file" really is a flat byte buffer, and a live stream really is a packet
/// sequence.

namespace lod::media::asf {

/// Reserved stream id for the script-command stream.
inline constexpr std::uint16_t kScriptStreamId = 0x7fff;

/// A script command (§2.1). `type` is the command class; the paper's system
/// emits slide flips ("SLIDE") and annotations ("ANNOT"); generic types
/// ("URL", "TEXT", "EVENT") match what Windows Media Player understood.
struct ScriptCommand {
  SimDuration at{};     ///< presentation time to execute at
  std::string type;
  std::string param;

  bool operator==(const ScriptCommand&) const = default;
};

/// File-wide properties (the ASF File Properties Object).
struct FileProperties {
  std::string title;
  std::string author;
  SimDuration play_duration{};
  /// How much content a player should buffer before starting to render.
  SimDuration preroll{net::msec(3000)};
  /// Fixed on-the-wire data packet size.
  std::uint32_t packet_bytes{1400};
  std::int64_t avg_bitrate_bps{0};
};

/// Header: properties + stream table + DRM.
struct Header {
  FileProperties props;
  std::vector<StreamInfo> streams;
  DrmInfo drm;

  const StreamInfo* find_stream(std::uint16_t id) const;
};

/// One payload inside a data packet: a whole access unit or a fragment.
struct Payload {
  std::uint16_t stream_id{0};
  MediaType type{MediaType::kVideo};
  SimDuration pts{};
  SimDuration duration{};
  bool keyframe{false};
  std::uint32_t object_id{0};    ///< access-unit number within the stream
  std::uint32_t offset{0};       ///< fragment offset within the unit
  std::uint32_t object_size{0};  ///< total unit size (== data.size() if whole)
  std::vector<std::byte> data;
};

/// A payload as read from a serialized packet: the fields of `Payload`, with
/// the data left as a view into the bytes it was read from (or into a
/// `Payload`'s own data).
struct PayloadView {
  std::uint16_t stream_id{0};
  MediaType type{MediaType::kVideo};
  SimDuration pts{};
  SimDuration duration{};
  bool keyframe{false};
  std::uint32_t object_id{0};
  std::uint32_t offset{0};
  std::uint32_t object_size{0};
  std::span<const std::byte> data;
};

/// One fixed-size data packet.
struct DataPacket {
  SimDuration send_time{};  ///< when a paced sender should emit this packet
  std::vector<Payload> payloads;
  std::uint32_t pad_bytes{0};  ///< padding up to the fixed packet size
};

/// Index entry: presentation time -> first packet at/after it that starts a
/// video keyframe (or any packet if no video).
struct IndexEntry {
  SimDuration time{};
  std::uint32_t packet{0};
};

/// A complete ASF file in memory.
struct File {
  Header header;
  std::vector<DataPacket> packets;
  std::vector<IndexEntry> index;

  /// Total serialized size (header + packets + index), in bytes.
  std::size_t wire_size() const;
};

// --- muxing -----------------------------------------------------------------

/// Builds an ASF file from encoded units and script commands.
///
/// Call `add_unit` / `add_script` in any order; `finalize()` interleaves all
/// payloads by presentation time, fragments and packs them into fixed-size
/// packets, optionally encrypts payloads under DRM, and builds the index.
class Muxer {
 public:
  /// \param drm  if non-null and header.drm.is_protected, payload data is
  ///             encrypted under header.drm.key_id.
  explicit Muxer(Header header, const DrmSystem* drm = nullptr);

  /// Add one encoded access unit with its (synthetic) content bytes.
  /// If `content` is empty, pattern bytes of `unit.bytes` length are created.
  void add_unit(const EncodedUnit& unit, std::span<const std::byte> content = {});

  /// Add a script command.
  void add_script(const ScriptCommand& cmd);

  /// Pack everything. The muxer is spent afterwards.
  /// \param index_interval  granularity of the seek index.
  File finalize(SimDuration index_interval = net::sec(5));

  std::size_t units_added() const { return units_.size(); }

 private:
  struct PendingUnit {
    EncodedUnit meta;
    std::vector<std::byte> content;
  };

  Header header_;
  const DrmSystem* drm_;
  std::vector<PendingUnit> units_;
  std::vector<ScriptCommand> scripts_;
};

// --- demuxing ----------------------------------------------------------------

/// A reassembled access unit as produced by the demuxer.
struct DemuxedUnit {
  EncodedUnit meta;
  std::vector<std::byte> data;
};

/// Incremental demuxer: feed packets (in order received), pull out complete
/// access units and script commands. This is exactly what the player runs —
/// it works the same whether packets come from a stored file or a live
/// stream, and tolerates missing packets (incomplete units are dropped when
/// a newer unit on the same stream completes).
class Demuxer {
 public:
  /// \param drm,license,user,local_now_fn  needed only for protected content.
  explicit Demuxer(Header header);

  /// Provide the license for protected content. Without a valid license the
  /// demuxer still reassembles but leaves payloads encrypted and flags it.
  void set_license(const DrmSystem* drm, License lic, std::string user);

  /// Feed one packet. Completed units/scripts become available for polling.
  void feed(const DataPacket& packet, net::SimTime local_now = {});
  /// Feed one serialized packet (`serialize_packet` bytes) without building
  /// a `DataPacket`: the whole packet is parsed first, and only then is each
  /// fragment copied, once, into its assembly. Returns false, having changed
  /// nothing, when the bytes are not a well-formed packet.
  bool feed(std::span<const std::byte> packet, net::SimTime local_now = {});

  /// Pull the next completed media unit (pts order within arrival order).
  std::optional<DemuxedUnit> next_unit();
  /// Pull the next decoded script command.
  std::optional<ScriptCommand> next_script();

  /// True if protected payloads were surfaced without a usable license.
  bool undecryptable() const { return undecryptable_; }
  std::uint64_t dropped_incomplete() const { return dropped_incomplete_; }

  const Header& header() const { return header_; }

 private:
  struct Assembly {
    std::uint32_t object_id{0};
    std::uint32_t object_size{0};
    std::uint32_t received{0};
    EncodedUnit meta;
    std::vector<std::byte> data;
    bool active{false};
  };

  /// The one assembly step both feeds share.
  void feed_fragment(const PayloadView& pl, net::SimTime local_now);
  void complete(Assembly& a, net::SimTime local_now);

  Header header_;
  const DrmSystem* drm_{nullptr};
  std::optional<License> license_;
  std::string user_;
  std::unordered_map<std::uint16_t, Assembly> assembling_;
  std::vector<DemuxedUnit> ready_units_;
  std::vector<ScriptCommand> ready_scripts_;
  std::size_t unit_cursor_{0};
  std::size_t script_cursor_{0};
  bool undecryptable_{false};
  std::uint64_t dropped_incomplete_{0};
};

// --- serialization ------------------------------------------------------------

/// Serialize a complete file to a flat byte buffer (a stored ".asf file").
std::vector<std::byte> serialize(const File& f);
/// Parse a stored file. Throws std::out_of_range / std::runtime_error on
/// malformed input.
File parse(std::span<const std::byte> bytes);

/// Serialize / parse a single packet (for live streams on the wire).
std::vector<std::byte> serialize_packet(const DataPacket& p);
DataPacket parse_packet(std::span<const std::byte> bytes);
std::vector<std::byte> serialize_header(const Header& h);
Header parse_header(std::span<const std::byte> bytes);

// --- indexing ------------------------------------------------------------------

/// (Re)build the seek index at the given granularity — the "ASF Indexer"
/// command-line utility's job in the paper's workflow.
void build_index(File& f, SimDuration interval = net::sec(5));

/// Find the packet to start from so that playback covers time \p t:
/// the latest index entry at or before t. Returns 0 if the index is empty.
std::uint32_t seek_packet(const File& f, SimDuration t);

/// Generate deterministic pattern bytes for synthetic payload content.
std::vector<std::byte> pattern_bytes(std::size_t n, std::uint32_t tag);

}  // namespace lod::media::asf
