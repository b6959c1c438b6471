// Fixed edge-operand program for the differential suites.  The random
// generators never emit these opcodes:
//
//   srl sllv srlv srav nor sltu mulh div rem andi xori slti sltiu
//   lh lhu lbu sh sb bltu bgeu
//
// so this program runs each of them on the operands where implementations
// disagree: 0, ±1, INT32_MIN, INT32_MAX, and shift amounts 0, 31, and 32+
// (masked to 5 bits).  Every result lands in its own word of `arena`; the
// program then exits normally, so comparing the first kEdgeOperandWords
// words of the arena compares every result.
#pragma once

#include <sstream>
#include <string>

#include "common/types.hpp"

namespace rse::testing {

/// Number of result words the program writes into `arena`.
inline constexpr u32 kEdgeOperandWords = 480;

inline std::string edge_operand_program() {
  static constexpr i64 kValues[] = {0, 1, -1, -2147483648LL, 2147483647};
  static constexpr i64 kShiftAmounts[] = {0, 31, 32, 33, -1, -2147483648LL};
  static constexpr i64 kImmediates[] = {0, 1, -1, 32767, -32768};

  std::ostringstream s;
  s << ".data\n.align 4\narena: .space " << kEdgeOperandWords * 4 << "\n";
  s << "edge_words: .word 0x80000000, 0x7FFFFFFF, 0xFFFFFFFF, 0x00000001, 0x00807F80\n";
  s << ".text\nmain:\n  la s0, arena\n  la s1, edge_words\n";

  u32 slot = 0;
  const auto result = [&](const char* reg) {
    s << "  sw " << reg << ", " << 4 * slot++ << "(s0)\n";
  };
  const auto li = [&](const char* reg, i64 value) {
    s << "  li " << reg << ", " << value << "\n";
  };

  // R-type on every operand pair (div/rem include by-zero and INT32_MIN / -1).
  for (const char* op : {"nor", "sltu", "mulh", "div", "rem"}) {
    for (i64 a : kValues) {
      for (i64 b : kValues) {
        li("t0", a);
        li("t1", b);
        s << "  " << op << " t2, t0, t1\n";
        result("t2");
      }
    }
  }
  // Variable shifts: only the low five bits of rs count.
  for (const char* op : {"sllv", "srlv", "srav"}) {
    for (i64 value : kValues) {
      for (i64 amount : kShiftAmounts) {
        li("t0", value);
        li("t1", amount);
        s << "  " << op << " t2, t0, t1\n";
        result("t2");
      }
    }
  }
  for (i64 value : kValues) {
    for (int shamt : {0, 1, 31}) {
      li("t0", value);
      s << "  srl t2, t0, " << shamt << "\n";
      result("t2");
    }
  }
  // Immediates: andi/xori zero-extend, slti/sltiu sign-extend.
  for (const char* op : {"andi", "xori", "slti", "sltiu"}) {
    for (i64 value : kValues) {
      for (i64 imm : kImmediates) {
        li("t0", value);
        s << "  " << op << " t2, t0, " << imm << "\n";
        result("t2");
      }
    }
  }
  // Sub-word loads at every byte offset (halfword offsets 1 and 3 truncate
  // to alignment).
  for (u32 word = 0; word < 5; ++word) {
    for (u32 byte = 0; byte < 4; ++byte) {
      for (const char* op : {"lh", "lhu", "lbu"}) {
        s << "  " << op << " t2, " << 4 * word + byte << "(s1)\n";
        result("t2");
      }
    }
  }
  // Sub-word stores into a patterned word, at every byte offset.
  for (i64 value : kValues) {
    li("t0", value);
    for (const char* op : {"sh", "sb"}) {
      for (u32 byte = 0; byte < 4; ++byte) {
        li("t1", 0x5A5A5A5ALL);
        s << "  sw t1, " << 4 * slot << "(s0)\n";
        s << "  " << op << " t0, " << 4 * slot + byte << "(s0)\n";
        ++slot;
      }
    }
  }
  // Unsigned branches: record taken (1) or not (0).
  u32 label = 0;
  for (const char* op : {"bltu", "bgeu"}) {
    for (i64 a : kValues) {
      for (i64 b : kValues) {
        li("t0", a);
        li("t1", b);
        s << "  li t2, 1\n  " << op << " t0, t1, edge_" << label << "\n  li t2, 0\n";
        s << "edge_" << label++ << ":\n";
        result("t2");
      }
    }
  }

  s << "  li a0, 0\n  li v0, 1\n  syscall\n";
  // A miscounted kEdgeOperandWords yields an empty program, which fails
  // every test that uses it.
  if (slot != kEdgeOperandWords) return {};
  return s.str();
}

}  // namespace rse::testing
