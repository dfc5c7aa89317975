#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

/// \file timing_wheel.hpp
/// Hierarchical timing wheel plus handler slab (`EventQueue`, at the end):
/// the one timer queue both transport backends run on.
///
/// Four levels of 256 slots each, with slot widths of 2^0, 2^8, 2^16 and
/// 2^24 microseconds, cover events up to 2^32 us (~71.6 minutes) ahead of
/// the cursor; anything farther waits in a small min-heap and refills the
/// wheel as the horizon advances. Scheduling is O(1); popping is O(1)
/// amortised plus a 256-bit bitmap scan per level, against O(log n) per
/// operation for the binary heap this replaces. With hundreds of thousands
/// of pending timers (retransmits, media ticks) the wheel also avoids the
/// heap's cache-hostile sift paths.
///
/// An item's level is the position of the highest bit in which its time
/// differs from the cursor (bits 0-7 -> level 0, 8-15 -> level 1, ...), and
/// its slot is that level's 8-bit field of the absolute time. Two
/// consequences the algorithms below lean on:
///   - at every level, pending items sit strictly ABOVE the cursor's slot
///     (they share all higher fields with the cursor), so scans are linear,
///     never circular, and first-non-empty-slot == level minimum;
///   - when the cursor crosses a slot boundary, that slot's items cascade
///     to lower levels (or to the ready bucket) by re-placement.
///
/// Determinism contract: items pop in strictly ascending (at, seq) order —
/// identical to the binary-heap ordering this replaces — so merged sharded
/// snapshots stay byte-identical across shard counts. Same-instant items
/// ride a `ready_` bucket that is seq-sorted by construction: slot vectors
/// only append in schedule order and cascades move whole slots, preserving
/// the relative order of equal-time items end to end.

namespace lod::net {

class TimingWheel {
 public:
  /// Deliberately trivially copyable: items are re-placed on every cascade,
  /// so any non-trivial payload (e.g. a std::function handler) would pay an
  /// indirect manager call per move. Callers keep payloads in a side table
  /// keyed by `id` (EventQueue below uses a slot/generation slab).
  struct Item {
    std::int64_t at{0};    ///< absolute microseconds
    std::uint64_t seq{0};  ///< schedule order; ties on `at` break by seq
    std::uint64_t id{0};   ///< caller's event id (for lazy cancellation)
  };

  static constexpr int kLevels = 4;
  static constexpr int kSlotBits = 8;
  static constexpr int kSlots = 1 << kSlotBits;  // 256
  static constexpr std::int64_t kHorizon = std::int64_t{1}
                                           << (kLevels * kSlotBits);  // 2^32 us

  /// Insert an item. Times in the past clamp to the cursor (the wheel's
  /// "now", which never decreases).
  void schedule(Item it) {
    if (it.at < cur_) it.at = cur_;
    place(std::move(it));
  }

  /// Pop the earliest item in (at, seq) order if its time is <= \p limit,
  /// advancing the cursor to that time; otherwise false,
  /// with the cursor advanced no further than \p limit. This is run_until's
  /// workhorse: deciding "is anything due?" costs bitmap scans only, never
  /// a walk over bucket contents.
  bool pop_due(std::int64_t limit, Item& out) {
    if (ready_head_ < ready_.size() && cur_ > limit) return false;
    while (ready_head_ >= ready_.size()) {
      ready_.clear();
      ready_head_ = 0;
      const std::int64_t t = advance_toward_next(limit);
      if (t < 0 || t > limit) return false;
      advance_to(t);
      collect_current_slot();
    }
    out = std::move(ready_[ready_head_++]);
    if (ready_head_ == ready_.size()) {
      ready_.clear();
      ready_head_ = 0;
    }
    return true;
  }

  /// Advance the cursor to \p t without firing anything. Precondition: no
  /// pending item is earlier than \p t (run_until drains them first).
  void fast_forward(std::int64_t t) {
    if (t > cur_) advance_to(t);
  }

  /// Refine the earliest pending time using bitmap information only. Level-0
  /// items share all bits >= 8 with the cursor, so their slot index IS their
  /// exact time within the cursor's 256-us window; upper-level slots expose
  /// their cascade boundary (slot start), a strict lower bound on their
  /// items. While the earliest thing pending is only known as an upper-level
  /// bound, advance the cursor to that boundary (cascading the slot down a
  /// level) and retry — each round trickles the front of the wheel one level
  /// lower until the minimum surfaces at level 0, exact. Never walks bucket
  /// contents, unlike a "scan the first non-empty bucket for its min" peek,
  /// which is O(bucket) per call and quadratic over a run.
  ///
  /// Returns the exact earliest time when it is <= \p limit; a value > limit
  /// (possibly just a bound) once it is known nothing is due by \p limit;
  /// -1 when empty. The cursor never advances past min(earliest, limit).
  std::int64_t advance_toward_next(std::int64_t limit) {
    if (ready_head_ < ready_.size()) return cur_;
    for (;;) {
      std::int64_t best = -1;  // exact, from level 0
      const int s0 = bit_find_from(bits_[0], cursor_slot(0));
      if (s0 >= 0) best = (cur_ & ~std::int64_t{kSlots - 1}) + s0;
      const std::int64_t bound = next_boundary();  // lower bound
      // A level-0 time can never equal an upper-level slot start (equal
      // times share identical bits, hence the same level), so `best < bound`
      // means best is the global minimum.
      if (best >= 0 && (bound < 0 || best < bound)) return best;
      if (bound < 0) return -1;
      if (bound > limit) return bound;
      cross_boundary(bound);
      // Items due exactly AT a boundary cascade straight into ready_ (place
      // routes at == cur_ there). The cursor only ever moves through lower
      // bounds, so anything in ready_ now IS the minimum — stop refining, or
      // the loop would advance past it and strand it.
      if (ready_head_ < ready_.size()) return cur_;
    }
  }

 private:
  using Bitmap = std::array<std::uint64_t, kSlots / 64>;

  static void bit_set(Bitmap& bm, int i) {
    bm[static_cast<std::size_t>(i >> 6)] |= std::uint64_t{1} << (i & 63);
  }
  static void bit_clear(Bitmap& bm, int i) {
    bm[static_cast<std::size_t>(i >> 6)] &= ~(std::uint64_t{1} << (i & 63));
  }
  /// First set bit at index >= from, else -1.
  static int bit_find_from(const Bitmap& bm, int from) {
    if (from >= kSlots) return -1;
    int w = from >> 6;
    const std::uint64_t head =
        bm[static_cast<std::size_t>(w)] & (~std::uint64_t{0} << (from & 63));
    if (head) return (w << 6) + std::countr_zero(head);
    for (++w; w < static_cast<int>(bm.size()); ++w) {
      if (bm[static_cast<std::size_t>(w)]) {
        return (w << 6) + std::countr_zero(bm[static_cast<std::size_t>(w)]);
      }
    }
    return -1;
  }

  int cursor_slot(int level) const {
    return static_cast<int>(cur_ >> (kSlotBits * level)) & (kSlots - 1);
  }

  /// Route an item by the highest bit in which its time differs from the
  /// cursor. Also used when cascading (items re-place relative to the new
  /// cursor, trickling down a level or more each crossing).
  void place(Item it) {
    if (it.at <= cur_) {
      // Same-instant: schedule order == seq order, so appending keeps the
      // bucket sorted.
      ready_.push_back(std::move(it));
      return;
    }
    const auto diff = static_cast<std::uint64_t>(it.at ^ cur_);
    const int level = (63 - std::countl_zero(diff)) / kSlotBits;
    if (level >= kLevels) {
      far_.push_back(std::move(it));
      std::push_heap(far_.begin(), far_.end(), FarLater{});
      return;
    }
    const int slot =
        static_cast<int>(it.at >> (kSlotBits * level)) & (kSlots - 1);
    auto& bucket =
        slots_[static_cast<std::size_t>(level)][static_cast<std::size_t>(slot)];
    if (bucket.empty()) bit_set(bits_[static_cast<std::size_t>(level)], slot);
    bucket.push_back(std::move(it));
  }

  /// Next boundary at which cascade/refill work exists (the earliest
  /// non-empty upper-level slot start, or the far heap's refill point), or
  /// -1. Boundaries whose slots are empty are skipped arithmetically.
  std::int64_t next_boundary() const {
    std::int64_t best = -1;
    for (int level = 1; level < kLevels; ++level) {
      const int i = bit_find_from(bits_[static_cast<std::size_t>(level)],
                                  cursor_slot(level) + 1);
      if (i < 0) continue;
      const std::int64_t boundary =
          ((cur_ >> (kSlotBits * level)) + (i - cursor_slot(level)))
          << (kSlotBits * level);
      if (best < 0 || boundary < best) best = boundary;
    }
    if (!far_.empty()) {
      const std::int64_t refill = ((cur_ >> (kLevels * kSlotBits)) + 1)
                                  << (kLevels * kSlotBits);
      if (best < 0 || refill < best) best = refill;
    }
    return best;
  }

  /// Move the cursor onto boundary \p b, cascading the slots that start
  /// there (and refilling from the far heap at a horizon boundary).
  void cross_boundary(std::int64_t b) {
    cur_ = b;
    if ((cur_ & (kHorizon - 1)) == 0) refill_far();
    for (int level = kLevels - 1; level >= 1; --level) {
      const std::int64_t width = std::int64_t{1} << (kSlotBits * level);
      if ((cur_ & (width - 1)) == 0) cascade(level, cursor_slot(level));
    }
  }

  /// Move the cursor to \p t, cascading every non-empty slot whose boundary
  /// we cross. A long idle jump costs a few bitmap scans, not one step per
  /// slot.
  void advance_to(std::int64_t t) {
    while (cur_ < t) {
      const std::int64_t nb = next_boundary();
      if (nb < 0 || nb > t) {
        cur_ = t;
        return;
      }
      cross_boundary(nb);
    }
  }

  void cascade(int level, int slot) {
    auto& bucket =
        slots_[static_cast<std::size_t>(level)][static_cast<std::size_t>(slot)];
    if (bucket.empty()) return;
    bit_clear(bits_[static_cast<std::size_t>(level)], slot);
    std::vector<Item> moving;
    moving.swap(bucket);
    for (Item& it : moving) place(std::move(it));
  }

  void refill_far() {
    while (!far_.empty() && far_.front().at < cur_ + kHorizon) {
      std::pop_heap(far_.begin(), far_.end(), FarLater{});
      Item it = std::move(far_.back());
      far_.pop_back();
      place(std::move(it));
    }
  }

  /// After advance_to(t), everything due at t sits in the level-0 cursor
  /// slot (cascades route same-instant items straight to ready_). A level-0
  /// slot holds exactly one distinct time, so the whole bucket moves.
  void collect_current_slot() {
    const int slot = cursor_slot(0);
    auto& bucket = slots_[0][static_cast<std::size_t>(slot)];
    if (bucket.empty()) return;
    bit_clear(bits_[0], slot);
    for (Item& it : bucket) ready_.push_back(std::move(it));
    bucket.clear();
  }

  struct FarLater {
    bool operator()(const Item& a, const Item& b) const {
      return a.at > b.at || (a.at == b.at && a.seq > b.seq);
    }
  };

  std::int64_t cur_{0};
  std::array<std::array<std::vector<Item>, kSlots>, kLevels> slots_;
  std::array<Bitmap, kLevels> bits_{};
  std::vector<Item> far_;      ///< min-heap on (at, seq)
  std::vector<Item> ready_;    ///< due at cur_, seq-ascending
  std::size_t ready_head_{0};  ///< pop index into ready_
};

/// Identifies a scheduled event so it can be cancelled before it fires.
/// Opaque to callers; internally (slot << 32) | generation into the handler
/// slab, so cancel() is O(1) with no hashing. Never zero, and a default-
/// constructed (zero) or stale id is always rejected harmlessly.
using EventId = std::uint64_t;

/// The timer queue behind both `Simulator` (virtual clock) and
/// `RealTransport` (monotonic clock): a TimingWheel of trivially-copyable
/// items plus a slab of handler cells, so ids, cancellation and the
/// (time, seq) firing order are the same on both backends. Single-threaded.
class EventQueue {
 public:
  using Handler = std::function<void()>;

  /// Queue \p h at absolute time \p at (earlier than the cursor clamps).
  EventId schedule(std::int64_t at, Handler h) {
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(cells_.size());
      cells_.emplace_back();
    }
    Cell& c = cells_[slot];
    c.h = std::move(h);
    c.live = true;
    ++live_;
    const EventId id = (std::uint64_t{slot} << 32) | c.gen;
    wheel_.schedule(TimingWheel::Item{at, next_seq_++, id});
    return id;
  }

  /// True if \p id was pending; it will not fire. Fired, cancelled and
  /// unknown ids are a harmless no-op. The wheel item stays put and is
  /// swept when popped — O(1) cancel without hunting the wheel.
  bool cancel(EventId id) {
    if (!resolves(id)) return false;
    free_cell(slot_of(id));
    return true;
  }

  /// Pop the earliest live event due by \p limit into \p out, moving its
  /// handler into \p h and retiring its id. False when nothing is due.
  bool pop_due(std::int64_t limit, TimingWheel::Item& out, Handler& h) {
    while (wheel_.pop_due(limit, out)) {
      if (!resolves(out.id)) continue;  // cancelled; sweep
      h = std::move(cells_[slot_of(out.id)].h);
      free_cell(slot_of(out.id));
      return true;
    }
    return false;
  }

  /// When the next event is due, never moving the cursor past \p limit
  /// (see TimingWheel::advance_toward_next): exact when <= \p limit, else a
  /// lower bound; -1 when empty. May name a cancelled event's time.
  std::int64_t next_due(std::int64_t limit) {
    return wheel_.advance_toward_next(limit);
  }

  /// Advance the cursor to \p t; nothing pending may be earlier.
  void fast_forward(std::int64_t t) { wheel_.fast_forward(t); }

  /// Events pending (cancelled ones excluded).
  std::size_t pending() const { return live_; }

  static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }

 private:
  /// One slab cell per handler. The handler is moved exactly twice — in at
  /// schedule, out at fire. Retiring a cell bumps its generation, so an id
  /// resolves only while pending: fired, cancelled and reused-slot ids miss.
  struct Cell {
    Handler h;
    std::uint32_t gen{1};
    bool live{false};
  };

  bool resolves(EventId id) const {
    const std::uint32_t slot = slot_of(id);
    return slot < cells_.size() && cells_[slot].live &&
           cells_[slot].gen == static_cast<std::uint32_t>(id);
  }

  void free_cell(std::uint32_t slot) {
    Cell& c = cells_[slot];
    c.h = nullptr;
    ++c.gen;
    c.live = false;
    free_.push_back(slot);
    --live_;
  }

  TimingWheel wheel_;
  std::uint64_t next_seq_{0};
  std::vector<Cell> cells_;
  std::vector<std::uint32_t> free_;  ///< recycled slots, LIFO
  std::size_t live_{0};
};

}  // namespace lod::net
