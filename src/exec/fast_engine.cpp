#include "exec/fast_engine.hpp"

#include <cstring>

#include "isa/execute.hpp"

namespace rse::exec {

using isa::Op;

// isa::execute's state accesses for the fast path: plain register writes and
// direct host-memory loads/stores.  A store into text invalidates the
// overlapping cached blocks and flags the current block as ended.
struct FastEngine::BlockPolicy {
  FastEngine& engine;
  bool invalidated = false;

  Word reg(u8 r) const { return engine.regs_[r]; }
  void write(u8 r, Word value) { engine.regs_[r] = value; }
  Word load(Addr addr, u32 size) {
    Word value = 0;
    std::memcpy(&value, engine.data_host(addr), size);
    return value;
  }
  void store(Addr addr, u32 size, Word value) {
    std::memcpy(engine.data_host(addr), &value, size);
    if (addr < engine.text_hi_ && addr + size > engine.text_lo_) {
      engine.cache_->invalidate(addr, size);
      invalidated = true;
    }
  }
};

FastEngine::Stop FastEngine::run_until(u64 target) {
  return trace_ ? run_blocks<true>(target) : run_blocks<false>(target);
}

template <bool kTraced>
FastEngine::Stop FastEngine::run_blocks(u64 target) {
  // Threaded dispatch (chaining mode): block transitions stay inside the
  // engine.  A back-edge to the current block's own start re-enters it
  // directly, and each block carries an epoch-stamped link to its last
  // observed successor, so steady-state execution touches the hash map only
  // on cold transitions.  With chaining off the dispatcher is the plain
  // lookup-per-block oracle the differential suites compare against.
  const bool threaded = cache_->chaining();
  BlockPolicy policy{*this};
  const DecodedBlock* block = nullptr;
  while (executed_ < target) {
    if (block == nullptr) {
      if (text_hi_ != 0 && (pc_ < text_lo_ || pc_ >= text_hi_)) return Stop::kIllegal;
      block = cache_->lookup(pc_);
    }
    const std::size_t count = block->instrs.size();
    if (count == 0) return Stop::kIllegal;  // decode refused (outside text)

    Addr pc = block->start;
    std::size_t i = 0;
    // A store landing in the text segment drops overlapping cached blocks
    // — including possibly the one being executed — so the inner loop must
    // end before touching `block` again.
    policy.invalidated = false;
    for (;;) {
      if (executed_ == target) {
        pc_ = pc;
        return Stop::kBoundary;
      }
      // A copy: a store into text may free `block` mid-instruction.
      const isa::Instr in = block->instrs[i];
      if (in.op == Op::kSyscall || in.op == Op::kInvalid) {
        pc_ = pc;
        return in.op == Op::kSyscall ? Stop::kSyscall : Stop::kIllegal;
      }
      // The trace reports the word as fetched, before a store can patch it.
      Word raw = 0;
      if constexpr (kTraced) std::memcpy(&raw, data_host(pc), 4);
      const isa::Effect fx = isa::execute(in, pc, policy);
      if constexpr (kTraced) trace_(pc, raw, fx.is_mem, fx.is_store, fx.ea, fx.mem_value);
      if (in.op == Op::kChk) ++chks_executed_;
      const Addr next = fx.next_pc;

      ++executed_;  // isa::execute never writes r0, so regs_[0] stays 0
      if (policy.invalidated) {
        // `block` may be gone; re-enter via the cache.
        pc_ = next;
        break;
      }
      ++i;
      // Superblock continuity needs no PC probe: decode terminates a block
      // at every instruction whose successor is dynamic (conditional
      // branches, jr/jalr, syscalls), so every non-terminator entry was
      // decoded at exactly the PC execution goes to — the straight-line
      // neighbor or a followed j/jal target (block->pcs[i] == next by
      // construction; the differential suites pin this).
      if (i < count) {
        pc = next;
        continue;
      }
      pc_ = next;
      break;
    }

    // Block transition.  pc_ holds the next leader.
    if (policy.invalidated || !threaded) {
      block = nullptr;  // re-enter via the cache (and re-check the range)
      continue;
    }
    if (pc_ == block->start) continue;  // hot loop back-edge: same block
    const u64 epoch = cache_->epoch();
    if (block->link_epoch[0] == epoch && block->link_pc[0] == pc_) {
      block = block->link[0];
      continue;
    }
    if (block->link_epoch[1] == epoch && block->link_pc[1] == pc_) {
      block = block->link[1];
      continue;
    }
    // Cold transition: look the successor up once and patch a link so the
    // next time this block exits to the same leader stays off the hash map.
    if (text_hi_ != 0 && (pc_ < text_lo_ || pc_ >= text_hi_)) return Stop::kIllegal;
    const DecodedBlock* succ = cache_->lookup(pc_);
    const u8 slot = block->link_victim;
    block->link_pc[slot] = pc_;
    block->link[slot] = succ;
    block->link_epoch[slot] = epoch;
    block->link_victim = slot ^ 1;
    block = succ;
  }
  return Stop::kBoundary;
}

}  // namespace rse::exec
