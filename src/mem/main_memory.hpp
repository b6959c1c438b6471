// Functional main memory: a sparse, page-granular byte store for the guest's
// 32-bit address space.  Timing is modeled separately (BusArbiter / Cache);
// this class answers "what value lives at address A" only.
//
// Pages are found through a flat two-level table (1024 directory slots of
// 1024 pages each), so every fetch and load costs two indexed loads, no
// hashing; leaves and pages are allocated on first touch.
#pragma once

#include <array>
#include <cstring>
#include <memory>
#include <vector>

#include "common/types.hpp"

namespace rse::mem {

inline constexpr u32 kPageShift = 12;  // 4 KB pages (also the DDT granularity)
inline constexpr u32 kPageBytes = 1u << kPageShift;

/// Page number of an address.
constexpr u32 page_of(Addr addr) { return addr >> kPageShift; }
constexpr Addr page_base(u32 page) { return page << kPageShift; }

class MainMemory {
 public:
  u8 read_u8(Addr addr) const;
  u16 read_u16(Addr addr) const;
  u32 read_u32(Addr addr) const;

  void write_u8(Addr addr, u8 value);
  void write_u16(Addr addr, u16 value);
  void write_u32(Addr addr, u32 value);

  /// Bulk copy out of guest memory (used by the MAU and checkpointing).
  void read_block(Addr addr, u8* out, u32 count) const;
  /// Bulk copy into guest memory.
  void write_block(Addr addr, const u8* data, u32 count);

  /// Host pointer to the 4 KB page containing `addr` (allocating it if
  /// untouched).  Pages are separate heap blocks, so the pointer stays valid
  /// across later allocations — the contract the exec/ direct-memory fast
  /// path depends on.  Accesses through it bypass nothing semantically:
  /// this is the same backing store read_u8/write_u32 use.
  u8* host_page(Addr addr) { return page_ptr(addr); }

  /// Snapshot one whole page (allocating it if untouched).
  std::vector<u8> snapshot_page(u32 page) const;
  /// Restore a page snapshot.
  void restore_page(u32 page, const std::vector<u8>& bytes);

  /// Number of distinct pages touched so far.
  std::size_t pages_touched() const { return pages_touched_; }

  /// Sorted page numbers of every touched page.
  std::vector<u32> page_numbers() const;

  /// Snapshot hook: the byte image is the sorted set of touched pages.  A
  /// restore drops every existing page first, so the restored store is
  /// byte-identical even if the target had touched pages the snapshot lacks.
  template <class Ar>
  void serialize_state(Ar& ar) {
    if constexpr (Ar::kIsWriter) {
      const std::vector<u32> pages = page_numbers();
      u64 count = pages.size();
      ar.raw(&count, sizeof count);
      for (u32 page : pages) {
        ar.raw(&page, sizeof page);
        ar.raw(page_ptr_or_null(page_base(page)), kPageBytes);
      }
    } else {
      for (std::unique_ptr<Leaf>& leaf : dir_) leaf.reset();
      pages_touched_ = 0;
      u64 count = 0;
      ar.raw(&count, sizeof count);
      for (u64 i = 0; i < count; ++i) {
        u32 page = 0;
        ar.raw(&page, sizeof page);
        ar.raw(page_ptr(page_base(page)), kPageBytes);
      }
    }
  }

 private:
  static constexpr u32 kLeafBits = 10;  // page-number bits resolved by a leaf
  static constexpr u32 kLeafPages = 1u << kLeafBits;
  static constexpr u32 kDirShift = kPageShift + kLeafBits;
  using Leaf = std::array<std::unique_ptr<u8[]>, kLeafPages>;

  u8* page_ptr(Addr addr);
  const u8* page_ptr_or_null(Addr addr) const {
    const Leaf* leaf = dir_[addr >> kDirShift].get();
    return leaf != nullptr ? (*leaf)[page_of(addr) & (kLeafPages - 1)].get() : nullptr;
  }

  std::array<std::unique_ptr<Leaf>, (1u << (32 - kDirShift))> dir_;
  std::size_t pages_touched_ = 0;
};

}  // namespace rse::mem
