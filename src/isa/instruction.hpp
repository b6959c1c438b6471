// Instruction set of the simulated 32-bit RISC core (MIPS/DLX-like, as used
// by the paper's SimpleScalar substrate), including the CHECK ("CHK") ISA
// extension of RSE section 3.3.
//
// Encoding (32-bit, big-field layout):
//   R-type: [31:26]=0      [25:21]=rs [20:16]=rt [15:11]=rd [10:6]=shamt [5:0]=funct
//   I-type: [31:26]=opcode [25:21]=rs [20:16]=rt [15:0]=imm16 (sign-extended)
//   J-type: [31:26]=opcode [25:0]=word target
//   CHK   : [31:26]=0x3E   [25:23]=module# [22]=BLK [21:17]=operation
//           [16:12]=rs (parameter register) [11:0]=imm12 (config/options)
//
// The CHK parameter travels in a register so that the RSE picks it up from
// the Regfile_Data input queue, exactly as the framework's input interface
// is described in section 3.1.
#pragma once

#include <iterator>
#include <optional>
#include <string>

#include "common/types.hpp"

namespace rse::isa {

inline constexpr unsigned kNumRegs = 32;

/// Register aliases following the MIPS convention used by guest code.
enum Reg : u8 {
  kZero = 0,  // hard-wired zero
  kAt = 1,    // assembler temporary
  kV0 = 2,    // return value / syscall number
  kV1 = 3,
  kA0 = 4,  // arguments
  kA1 = 5,
  kA2 = 6,
  kA3 = 7,
  kT0 = 8,  // caller-saved temporaries t0..t7 = r8..r15
  kS0 = 16,  // callee-saved s0..s7 = r16..r23
  kT8 = 24,
  kT9 = 25,
  kGp = 28,
  kSp = 29,
  kFp = 30,
  kRa = 31,
};

/// Decoded operation.
enum class Op : u8 {
  kInvalid,
  // R-type ALU
  kSll,
  kSrl,
  kSra,
  kSllv,
  kSrlv,
  kSrav,
  kAdd,
  kSub,
  kAnd,
  kOr,
  kXor,
  kNor,
  kSlt,
  kSltu,
  kMul,
  kMulh,
  kDiv,
  kRem,
  kJr,
  kJalr,
  kSyscall,
  // I-type ALU
  kAddi,
  kAndi,
  kOri,
  kXori,
  kSlti,
  kSltiu,
  kLui,
  // memory
  kLw,
  kLb,
  kLbu,
  kLh,
  kLhu,
  kSw,
  kSb,
  kSh,
  // control
  kBeq,
  kBne,
  kBlt,
  kBge,
  kBltu,
  kBgeu,
  kJ,
  kJal,
  // RSE extension
  kChk,
};

/// Coarse class used by the pipeline to route an instruction to a
/// functional unit and by the RSE to recognize memory/control instructions.
enum class OpClass : u8 {
  kNop,      // architectural no-op (sll r0,r0,0)
  kIntAlu,   // single-cycle integer unit
  kIntMul,   // multiply/divide unit
  kLoad,     // load/store unit, reads memory
  kStore,    // load/store unit, writes memory
  kBranch,   // conditional branch
  kJump,     // unconditional jump / call / return
  kSyscall,  // serializing OS trap
  kChk,      // RSE CHECK instruction (NOP in the pipeline except at commit)
};

namespace detail {

/// Register fields an operation writes and reads, and its class: one row
/// per Op, in declaration order, so the pipeline's per-instruction queries
/// are a table load instead of a call.
enum class DestField : u8 { kNone, kRd, kRt, kRa };
enum class SourceFields : u8 { kNone, kRs, kRt, kRsRt };
struct OpTraits {
  OpClass cls;
  DestField dest;
  SourceFields sources;  // syscall reads v0/a0..a3 but serializes: none modeled
};

inline constexpr OpTraits kOpTraits[] = {
    {OpClass::kNop, DestField::kNone, SourceFields::kNone},        // kInvalid
    {OpClass::kIntAlu, DestField::kRd, SourceFields::kRt},         // kSll (nop when all zero)
    {OpClass::kIntAlu, DestField::kRd, SourceFields::kRt},         // kSrl
    {OpClass::kIntAlu, DestField::kRd, SourceFields::kRt},         // kSra
    {OpClass::kIntAlu, DestField::kRd, SourceFields::kRsRt},       // kSllv
    {OpClass::kIntAlu, DestField::kRd, SourceFields::kRsRt},       // kSrlv
    {OpClass::kIntAlu, DestField::kRd, SourceFields::kRsRt},       // kSrav
    {OpClass::kIntAlu, DestField::kRd, SourceFields::kRsRt},       // kAdd
    {OpClass::kIntAlu, DestField::kRd, SourceFields::kRsRt},       // kSub
    {OpClass::kIntAlu, DestField::kRd, SourceFields::kRsRt},       // kAnd
    {OpClass::kIntAlu, DestField::kRd, SourceFields::kRsRt},       // kOr
    {OpClass::kIntAlu, DestField::kRd, SourceFields::kRsRt},       // kXor
    {OpClass::kIntAlu, DestField::kRd, SourceFields::kRsRt},       // kNor
    {OpClass::kIntAlu, DestField::kRd, SourceFields::kRsRt},       // kSlt
    {OpClass::kIntAlu, DestField::kRd, SourceFields::kRsRt},       // kSltu
    {OpClass::kIntMul, DestField::kRd, SourceFields::kRsRt},       // kMul
    {OpClass::kIntMul, DestField::kRd, SourceFields::kRsRt},       // kMulh
    {OpClass::kIntMul, DestField::kRd, SourceFields::kRsRt},       // kDiv
    {OpClass::kIntMul, DestField::kRd, SourceFields::kRsRt},       // kRem
    {OpClass::kJump, DestField::kNone, SourceFields::kRs},         // kJr
    {OpClass::kJump, DestField::kRd, SourceFields::kRs},           // kJalr
    {OpClass::kSyscall, DestField::kNone, SourceFields::kNone},    // kSyscall
    {OpClass::kIntAlu, DestField::kRt, SourceFields::kRs},         // kAddi
    {OpClass::kIntAlu, DestField::kRt, SourceFields::kRs},         // kAndi
    {OpClass::kIntAlu, DestField::kRt, SourceFields::kRs},         // kOri
    {OpClass::kIntAlu, DestField::kRt, SourceFields::kRs},         // kXori
    {OpClass::kIntAlu, DestField::kRt, SourceFields::kRs},         // kSlti
    {OpClass::kIntAlu, DestField::kRt, SourceFields::kRs},         // kSltiu
    {OpClass::kIntAlu, DestField::kRt, SourceFields::kNone},       // kLui
    {OpClass::kLoad, DestField::kRt, SourceFields::kRs},           // kLw
    {OpClass::kLoad, DestField::kRt, SourceFields::kRs},           // kLb
    {OpClass::kLoad, DestField::kRt, SourceFields::kRs},           // kLbu
    {OpClass::kLoad, DestField::kRt, SourceFields::kRs},           // kLh
    {OpClass::kLoad, DestField::kRt, SourceFields::kRs},           // kLhu
    {OpClass::kStore, DestField::kNone, SourceFields::kRsRt},      // kSw
    {OpClass::kStore, DestField::kNone, SourceFields::kRsRt},      // kSb
    {OpClass::kStore, DestField::kNone, SourceFields::kRsRt},      // kSh
    {OpClass::kBranch, DestField::kNone, SourceFields::kRsRt},     // kBeq
    {OpClass::kBranch, DestField::kNone, SourceFields::kRsRt},     // kBne
    {OpClass::kBranch, DestField::kNone, SourceFields::kRsRt},     // kBlt
    {OpClass::kBranch, DestField::kNone, SourceFields::kRsRt},     // kBge
    {OpClass::kBranch, DestField::kNone, SourceFields::kRsRt},     // kBltu
    {OpClass::kBranch, DestField::kNone, SourceFields::kRsRt},     // kBgeu
    {OpClass::kJump, DestField::kNone, SourceFields::kNone},       // kJ
    {OpClass::kJump, DestField::kRa, SourceFields::kNone},         // kJal
    {OpClass::kChk, DestField::kNone, SourceFields::kRs},          // kChk (parameter register)
};
static_assert(std::size(kOpTraits) == static_cast<std::size_t>(Op::kChk) + 1,
              "one kOpTraits row per Op");

}  // namespace detail

/// RSE module selector carried in the CHK module# field (section 3.3).
enum class ModuleId : u8 {
  kFramework = 0,  // enable/disable and framework-level controls
  kIcm = 1,
  kMlr = 2,
  kDdt = 3,
  kAhbm = 4,
  kCfc = 5,  // control-flow checker (extensibility demonstration)
};
inline constexpr unsigned kNumModuleIds = 6;

/// Fully decoded instruction.  The raw encoding is kept because the ICM
/// compares instruction binaries bit-for-bit.  Fields are ordered by
/// alignment and the tail padding is a field, because snapshots copy
/// instructions (inside pipeline and framework state) as raw bytes.
struct Instr {
  Word raw = 0;
  i32 imm = 0;     // sign-extended I-type immediate
  u32 target = 0;  // J-type word target
  Op op = Op::kInvalid;
  u8 rd = 0;
  u8 rs = 0;
  u8 rt = 0;
  u8 shamt = 0;

  // CHK fields (valid when op == kChk)
  ModuleId chk_module = ModuleId::kFramework;
  bool chk_blocking = false;
  u8 chk_op = 0;     // module-specific operation selector (5 bits)
  u16 chk_imm = 0;   // config options (12 bits)
  u16 pad = 0;

  OpClass op_class() const {
    if (op == Op::kSll && rd == 0 && rt == 0 && shamt == 0) return OpClass::kNop;
    return traits().cls;
  }

  /// Destination register written by this instruction, or nullopt.
  std::optional<u8> dest_reg() const {
    u8 r = 0;
    switch (traits().dest) {
      case detail::DestField::kNone: return std::nullopt;
      case detail::DestField::kRd: r = rd; break;
      case detail::DestField::kRt: r = rt; break;
      case detail::DestField::kRa: r = kRa; break;
    }
    return r == 0 ? std::nullopt : std::optional<u8>(r);
  }

  /// Source registers read (0, 1, or 2 entries; r0 reads are included).
  struct Sources {
    u8 count = 0;
    u8 regs[2] = {0, 0};
  };
  Sources source_regs() const {
    switch (traits().sources) {
      case detail::SourceFields::kNone: break;
      case detail::SourceFields::kRs: return Sources{1, {rs, 0}};
      case detail::SourceFields::kRt: return Sources{1, {rt, 0}};
      case detail::SourceFields::kRsRt: return Sources{2, {rs, rt}};
    }
    return Sources{};
  }

  bool is_control() const {
    const OpClass c = op_class();
    return c == OpClass::kBranch || c == OpClass::kJump;
  }
  bool is_mem() const {
    const OpClass c = op_class();
    return c == OpClass::kLoad || c == OpClass::kStore;
  }

 private:
  const detail::OpTraits& traits() const { return detail::kOpTraits[static_cast<u8>(op)]; }
};

/// Decode a raw 32-bit word.  Returns op == kInvalid for unknown encodings
/// (which the pipeline turns into an illegal-instruction trap).
Instr decode(Word raw);

/// Encode a decoded instruction back to its raw form (used by the assembler
/// and by fault-injection tests).  Precondition: op != kInvalid.
Word encode(const Instr& instr);

/// Human-readable disassembly, e.g. "add r3, r1, r2".
std::string disassemble(const Instr& instr);

/// Canonical NOP encoding (sll r0, r0, 0).
inline constexpr Word kNopEncoding = 0;

}  // namespace rse::isa
