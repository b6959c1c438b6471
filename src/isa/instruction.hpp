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

  OpClass op_class() const;

  /// Destination register written by this instruction, or nullopt.
  std::optional<u8> dest_reg() const;

  /// Source registers read (0, 1, or 2 entries; r0 reads are included).
  struct Sources {
    u8 count = 0;
    u8 regs[2] = {0, 0};
  };
  Sources source_regs() const;

  bool is_control() const {
    const OpClass c = op_class();
    return c == OpClass::kBranch || c == OpClass::kJump;
  }
  bool is_mem() const {
    const OpClass c = op_class();
    return c == OpClass::kLoad || c == OpClass::kStore;
  }
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
