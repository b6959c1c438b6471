#include "isa/interpreter.hpp"

#include "common/bits.hpp"

namespace rse::isa {

bool Interpreter::step() {
  const Word raw = memory_->read_u32(pc_);
  const Instr in = decode(raw);
  Addr next = pc_ + 4;
  const Word rs = regs_[in.rs];
  const Word rt = regs_[in.rt];
  const u32 uimm = static_cast<u32>(in.imm) & 0xFFFFu;
  auto wr = [this](u8 reg, Word value) {
    if (reg != 0) regs_[reg] = value;
  };

  hit_illegal_ = false;
  switch (in.op) {
    case Op::kInvalid:
      hit_illegal_ = true;
      return false;
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
    // By zero → 0; INT32_MIN / -1 → INT32_MIN remainder 0 (never a host trap).
    case Op::kDiv:
      if (rt == 0) wr(in.rd, 0);
      else if (rs == 0x8000'0000u && rt == ~0u) wr(in.rd, rs);
      else wr(in.rd, static_cast<Word>(static_cast<i32>(rs) / static_cast<i32>(rt)));
      break;
    case Op::kRem:
      if (rt == 0 || rt == ~0u) wr(in.rd, 0);
      else wr(in.rd, static_cast<Word>(static_cast<i32>(rs) % static_cast<i32>(rt)));
      break;
    case Op::kAddi: wr(in.rt, rs + static_cast<Word>(in.imm)); break;
    case Op::kAndi: wr(in.rt, rs & uimm); break;
    case Op::kOri: wr(in.rt, rs | uimm); break;
    case Op::kXori: wr(in.rt, rs ^ uimm); break;
    case Op::kSlti: wr(in.rt, static_cast<i32>(rs) < in.imm ? 1 : 0); break;
    case Op::kSltiu: wr(in.rt, rs < static_cast<Word>(in.imm) ? 1 : 0); break;
    case Op::kLui: wr(in.rt, uimm << 16); break;
    case Op::kLw: wr(in.rt, memory_->read_u32((rs + static_cast<Word>(in.imm)) & ~3u)); break;
    case Op::kLh:
      wr(in.rt, static_cast<Word>(sign_extend(
                    memory_->read_u16((rs + static_cast<Word>(in.imm)) & ~1u), 16)));
      break;
    case Op::kLhu: wr(in.rt, memory_->read_u16((rs + static_cast<Word>(in.imm)) & ~1u)); break;
    case Op::kLb:
      wr(in.rt,
         static_cast<Word>(sign_extend(memory_->read_u8(rs + static_cast<Word>(in.imm)), 8)));
      break;
    case Op::kLbu: wr(in.rt, memory_->read_u8(rs + static_cast<Word>(in.imm))); break;
    case Op::kSw: memory_->write_u32((rs + static_cast<Word>(in.imm)) & ~3u, rt); break;
    case Op::kSh:
      memory_->write_u16((rs + static_cast<Word>(in.imm)) & ~1u, static_cast<u16>(rt));
      break;
    case Op::kSb: memory_->write_u8(rs + static_cast<Word>(in.imm), static_cast<u8>(rt)); break;
    case Op::kBeq:
      if (rs == rt) next = pc_ + 4 + (static_cast<Word>(in.imm) << 2);
      break;
    case Op::kBne:
      if (rs != rt) next = pc_ + 4 + (static_cast<Word>(in.imm) << 2);
      break;
    case Op::kBlt:
      if (static_cast<i32>(rs) < static_cast<i32>(rt)) {
        next = pc_ + 4 + (static_cast<Word>(in.imm) << 2);
      }
      break;
    case Op::kBge:
      if (static_cast<i32>(rs) >= static_cast<i32>(rt)) {
        next = pc_ + 4 + (static_cast<Word>(in.imm) << 2);
      }
      break;
    case Op::kBltu:
      if (rs < rt) next = pc_ + 4 + (static_cast<Word>(in.imm) << 2);
      break;
    case Op::kBgeu:
      if (rs >= rt) next = pc_ + 4 + (static_cast<Word>(in.imm) << 2);
      break;
    case Op::kJ: next = in.target << 2; break;
    case Op::kJal:
      wr(kRa, pc_ + 4);
      next = in.target << 2;
      break;
    case Op::kJr: next = rs; break;
    case Op::kJalr:
      wr(in.rd, pc_ + 4);
      next = rs;
      break;
    case Op::kChk:
      break;  // architectural NOP in the golden model
    case Op::kSyscall: {
      ++executed_;
      pc_ = next;
      return on_syscall_ ? on_syscall_(*this) : false;
    }
  }
  ++executed_;
  regs_[0] = 0;
  pc_ = next;
  return true;
}

}  // namespace rse::isa
