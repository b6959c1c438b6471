// The guest ISA's architectural semantics, written once.
//
// isa::execute<Policy> defines every ALU, immediate, load, store, branch,
// jump, and CHK effect of one decoded instruction.  Both production engines
// execute through it: cpu::Core at dispatch (undo-logged register writes,
// loads resolved through older in-flight stores, stores buffered in the RUU
// until commit) and exec::FastEngine over decoded blocks (plain register
// writes, direct host-memory access).  isa::Interpreter keeps its own switch
// on purpose: it is the independent oracle the differential suites compare
// both engines against.
//
// The policy supplies the four state accesses:
//
//   Word reg(u8 r)                        register read
//   void write(u8 r, Word value)          register write (never r0)
//   Word load(Addr addr, u32 size)        `size` bytes, zero-extended
//   void store(Addr addr, u32 size, Word value)  low `size` bytes of value
//
// Addresses reaching load/store are already alignment-masked (misaligned
// accesses truncate to alignment — docs/isa.md).  Syscalls and undecodable
// words have no effect here: the caller owns them (the core at commit, the
// fast engine by stopping on them).
#pragma once

#include "common/bits.hpp"
#include "common/types.hpp"
#include "isa/instruction.hpp"

namespace rse::isa {

/// What one executed instruction did besides its register write — the
/// evidence the RSE taps and the DME trace report.
struct Effect {
  Addr next_pc = 0;
  bool taken = false;  ///< conditional branch outcome
  bool is_mem = false;
  bool is_store = false;
  u8 mem_size = 0;
  Addr ea = 0;         ///< alignment-masked effective address
  Word mem_value = 0;  ///< loads: post-extension value; stores: unmasked rt
};

/// Signed division with total results: by zero → 0, and the one overflowing
/// case INT32_MIN / -1 → INT32_MIN (remainder 0), the RISC-V convention.
inline Word div_signed(Word a, Word b) {
  if (b == 0) return 0;
  if (a == 0x8000'0000u && b == ~0u) return a;
  return static_cast<Word>(static_cast<i32>(a) / static_cast<i32>(b));
}
inline Word rem_signed(Word a, Word b) {
  if (b == 0 || b == ~0u) return 0;  // x % -1 is 0 and must not trap
  return static_cast<Word>(static_cast<i32>(a) % static_cast<i32>(b));
}

// Always inlined: it is the fast engine's whole inner loop body, and the
// policy calls and unused Effect fields fold away only once it is inlined.
template <class Policy>
[[gnu::always_inline]] inline Effect execute(const Instr& in, Addr pc, Policy& p) {
  Effect fx;
  fx.next_pc = pc + 4;
  const Word rs = p.reg(in.rs);
  const Word rt = p.reg(in.rt);
  const u32 uimm = static_cast<u32>(in.imm) & 0xFFFFu;
  const Addr base = rs + static_cast<Word>(in.imm);

  const auto wr = [&p](u8 reg, Word value) {
    if (reg != 0) p.write(reg, value);
  };
  const auto branch = [&](bool cond) {
    fx.taken = cond;
    if (cond) fx.next_pc = pc + 4 + (static_cast<Word>(in.imm) << 2);
  };
  const auto load = [&](u32 size, bool sign) {
    fx.is_mem = true;
    fx.mem_size = static_cast<u8>(size);
    fx.ea = base & ~(size - 1);
    const Word raw = p.load(fx.ea, size);
    fx.mem_value = sign ? static_cast<Word>(sign_extend(raw, 8 * size)) : raw;
    wr(in.rt, fx.mem_value);
  };
  const auto store = [&](u32 size) {
    fx.is_mem = fx.is_store = true;
    fx.mem_size = static_cast<u8>(size);
    fx.ea = base & ~(size - 1);
    fx.mem_value = rt;
    p.store(fx.ea, size, rt);
  };

  switch (in.op) {
    case Op::kSll: wr(in.rd, rt << in.shamt); break;
    case Op::kSrl: wr(in.rd, rt >> in.shamt); break;
    case Op::kSra: wr(in.rd, static_cast<Word>(static_cast<i32>(rt) >> in.shamt)); break;
    case Op::kSllv: wr(in.rd, rt << (rs & 31)); break;
    case Op::kSrlv: wr(in.rd, rt >> (rs & 31)); break;
    case Op::kSrav: wr(in.rd, static_cast<Word>(static_cast<i32>(rt) >> (rs & 31))); break;
    case Op::kAdd: wr(in.rd, rs + rt); break;
    case Op::kSub: wr(in.rd, rs - rt); break;
    case Op::kAnd: wr(in.rd, rs & rt); break;
    case Op::kOr: wr(in.rd, rs | rt); break;
    case Op::kXor: wr(in.rd, rs ^ rt); break;
    case Op::kNor: wr(in.rd, ~(rs | rt)); break;
    case Op::kSlt: wr(in.rd, static_cast<i32>(rs) < static_cast<i32>(rt) ? 1 : 0); break;
    case Op::kSltu: wr(in.rd, rs < rt ? 1 : 0); break;
    case Op::kMul: wr(in.rd, rs * rt); break;
    case Op::kMulh:
      wr(in.rd, static_cast<Word>((static_cast<i64>(static_cast<i32>(rs)) *
                                   static_cast<i64>(static_cast<i32>(rt))) >>
                                  32));
      break;
    case Op::kDiv: wr(in.rd, div_signed(rs, rt)); break;
    case Op::kRem: wr(in.rd, rem_signed(rs, rt)); break;
    case Op::kAddi: wr(in.rt, base); break;
    case Op::kAndi: wr(in.rt, rs & uimm); break;
    case Op::kOri: wr(in.rt, rs | uimm); break;
    case Op::kXori: wr(in.rt, rs ^ uimm); break;
    case Op::kSlti: wr(in.rt, static_cast<i32>(rs) < in.imm ? 1 : 0); break;
    case Op::kSltiu: wr(in.rt, rs < static_cast<Word>(in.imm) ? 1 : 0); break;
    case Op::kLui: wr(in.rt, uimm << 16); break;
    case Op::kLw: load(4, false); break;
    case Op::kLh: load(2, true); break;
    case Op::kLhu: load(2, false); break;
    case Op::kLb: load(1, true); break;
    case Op::kLbu: load(1, false); break;
    case Op::kSw: store(4); break;
    case Op::kSh: store(2); break;
    case Op::kSb: store(1); break;
    case Op::kBeq: branch(rs == rt); break;
    case Op::kBne: branch(rs != rt); break;
    case Op::kBlt: branch(static_cast<i32>(rs) < static_cast<i32>(rt)); break;
    case Op::kBge: branch(static_cast<i32>(rs) >= static_cast<i32>(rt)); break;
    case Op::kBltu: branch(rs < rt); break;
    case Op::kBgeu: branch(rs >= rt); break;
    case Op::kJ: fx.next_pc = in.target << 2; break;
    case Op::kJal:
      wr(kRa, pc + 4);
      fx.next_pc = in.target << 2;
      break;
    case Op::kJr: fx.next_pc = rs; break;
    case Op::kJalr:
      wr(in.rd, pc + 4);
      fx.next_pc = rs;
      break;
    case Op::kChk:      // architectural NOP; the RSE acts on it at commit
    case Op::kSyscall:  // owned by the caller
    case Op::kInvalid:
      break;
  }
  return fx;
}

}  // namespace rse::isa
