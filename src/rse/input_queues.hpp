// The framework's input interface (paper section 3.1): one slot-indexed
// register bank per pipeline tap (Fetch_Out, Regfile_Data, Execute_Out,
// Memory_Out) plus the Commit_Out event stream.  Each bank has as many
// entries as the re-order buffer.  Data latched from the pipeline becomes
// visible to modules one cycle later (Table 3: "information passed by
// pipeline is available to the framework only after a delay of one cycle").
#pragma once

#include <optional>
#include <vector>

#include "common/ring_buffer.hpp"
#include "common/types.hpp"
#include "rse/frame_types.hpp"

namespace rse::engine {

/// A slot-indexed latch bank with 1-cycle visibility delay.
template <typename Payload>
class LatchBank {
 public:
  explicit LatchBank(u32 entries) : slots_(entries) {}

  void latch(u32 slot, Payload payload, u64 seq, Cycle now) {
    Slot& s = slots_[slot];
    s.payload = std::move(payload);
    s.seq = seq;
    s.visible_from = now + 1;
    s.valid = true;
  }

  /// Read slot contents if they belong to instruction `seq` and are already
  /// visible at `now`.
  const Payload* read(u32 slot, u64 seq, Cycle now) const {
    const Slot& s = slots_[slot];
    if (!s.valid || s.seq != seq || s.visible_from > now) return nullptr;
    return &s.payload;
  }

  void invalidate(u32 slot, u64 seq) {
    Slot& s = slots_[slot];
    if (s.valid && s.seq == seq) s.valid = false;
  }

  void clear() {
    for (Slot& s : slots_) s.valid = false;
  }

  /// Snapshot hook: all latched slots (bank size is construction config).
  template <class Ar>
  void serialize_state(Ar& ar) {
    ar.field(slots_);
  }

 private:
  struct Slot {  // raw-serialized: the padding is a field
    Payload payload{};
    u64 seq = 0;
    Cycle visible_from = 0;
    bool valid = false;
    u8 pad[7] = {};
  };
  std::vector<Slot> slots_;
};

struct InputQueues {
  explicit InputQueues(u32 entries)
      : fetch_out(entries), execute_out(entries), memory_out(entries) {}

  // Fetch_Out carries the instruction bits and, in this model, the register
  // operand values (Regfile_Data) captured at dispatch.
  LatchBank<DispatchInfo> fetch_out;
  LatchBank<ExecuteInfo> execute_out;
  LatchBank<MemoryInfo> memory_out;

  void clear() {
    fetch_out.clear();
    execute_out.clear();
    memory_out.clear();
  }

  template <class Ar>
  void serialize_state(Ar& ar) {
    ar.field(fetch_out);
    ar.field(execute_out);
    ar.field(memory_out);
  }
};

}  // namespace rse::engine
