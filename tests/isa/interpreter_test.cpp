// Unit tests for the golden-model interpreter itself (the reference the
// pipeline is differential-tested against needs its own ground truth).
#include "isa/interpreter.hpp"

#include <gtest/gtest.h>

#include "isa/assembler.hpp"

namespace rse::isa {
namespace {

struct InterpFixture : ::testing::Test {
  mem::MainMemory memory;

  Interpreter run(const std::string& source, u64 budget = 100000) {
    const Program program = assemble(source);
    for (std::size_t i = 0; i < program.text.size(); ++i) {
      memory.write_u32(program.text_base + static_cast<Addr>(i * 4), program.text[i]);
    }
    if (!program.data.empty()) {
      memory.write_block(program.data_base, program.data.data(),
                         static_cast<u32>(program.data.size()));
    }
    Interpreter interp(memory);
    interp.set_pc(program.entry);
    interp.set_syscall_handler([](Interpreter& i) { return i.reg(kV0) != 1; });
    interp.run(budget);
    return interp;
  }
};

TEST_F(InterpFixture, Arithmetic) {
  Interpreter i = run(R"(
.text
main:
  li t0, 21
  li t1, 2
  mul s0, t0, t1
  li a0, 0
  li v0, 1
  syscall
)");
  EXPECT_EQ(i.reg(kS0), 42u);
}

TEST_F(InterpFixture, MemoryAndLoop) {
  Interpreter i = run(R"(
.data
arr: .space 40
.text
main:
  la s0, arr
  li t0, 0
fill:
  li t1, 10
  bge t0, t1, sum
  sll t2, t0, 2
  add t2, s0, t2
  sw t0, 0(t2)
  addi t0, t0, 1
  b fill
sum:
  li t0, 0
  li s1, 0
sum_loop:
  li t1, 10
  bge t0, t1, done
  sll t2, t0, 2
  add t2, s0, t2
  lw t3, 0(t2)
  add s1, s1, t3
  addi t0, t0, 1
  b sum_loop
done:
  li v0, 1
  syscall
)");
  EXPECT_EQ(i.reg(kS0 + 1), 45u);
}

TEST_F(InterpFixture, CallsAndReturns) {
  Interpreter i = run(R"(
.text
main:
  li a0, 7
  jal twice
  move s2, v0
  li v0, 1
  syscall
twice:
  add v0, a0, a0
  jr ra
)");
  EXPECT_EQ(i.reg(kS0 + 2), 14u);
}

TEST_F(InterpFixture, ChkIsTransparent) {
  Interpreter i = run(R"(
.text
main:
  li s3, 5
  chk icm, 0, blk, r0, 0
  addi s3, s3, 1
  chk ddt, 3, nblk, s3, 0
  addi s3, s3, 1
  li v0, 1
  syscall
)");
  EXPECT_EQ(i.reg(kS0 + 3), 7u);
}

TEST_F(InterpFixture, SignedCompareAndBranches) {
  Interpreter i = run(R"(
.text
main:
  li t0, -5
  li t1, 3
  li s4, 0
  blt t0, t1, signed_ok
  li s4, 99
signed_ok:
  bltu t0, t1, wrong       # 0xFFFFFFFB > 3 unsigned
  addi s4, s4, 1
wrong:
  li v0, 1
  syscall
)");
  EXPECT_EQ(i.reg(kS0 + 4), 1u);
}

TEST_F(InterpFixture, DivisionByZeroIsZero) {
  Interpreter i = run(R"(
.text
main:
  li t0, 5
  li t1, 0
  div s5, t0, t1
  rem s6, t0, t1
  li v0, 1
  syscall
)");
  EXPECT_EQ(i.reg(kS0 + 5), 0u);
  EXPECT_EQ(i.reg(kS0 + 6), 0u);
}

TEST_F(InterpFixture, DivisionOverflowIsDefined) {
  // INT32_MIN / -1 overflows in C++; the ISA defines quotient INT32_MIN and
  // remainder 0 (docs/isa.md) instead of trapping the host.
  Interpreter i = run(R"(
.text
main:
  lui t0, 0x8000
  li t1, -1
  div s5, t0, t1
  rem s6, t0, t1
  li v0, 1
  syscall
)");
  EXPECT_EQ(i.reg(kS0 + 5), 0x8000'0000u);
  EXPECT_EQ(i.reg(kS0 + 6), 0u);
}

TEST_F(InterpFixture, IllegalInstructionStops) {
  const Program program = assemble(".text\nmain:\n  nop\n");
  memory.write_u32(program.text_base, program.text[0]);
  memory.write_u32(program.text_base + 4, 0xFC000000);  // illegal
  Interpreter interp(memory);
  interp.set_pc(program.text_base);
  EXPECT_EQ(interp.run(100), Interpreter::Stop::kIllegal);
  EXPECT_TRUE(interp.hit_illegal());
  EXPECT_EQ(interp.instructions_executed(), 1u);  // nop only
}

TEST_F(InterpFixture, InstructionBudgetBoundsRunaways) {
  Interpreter i = run(".text\nmain:\n  b main\n", 500);
  EXPECT_EQ(i.instructions_executed(), 500u);
  EXPECT_FALSE(i.hit_illegal());
}

TEST_F(InterpFixture, RunReportsStopReason) {
  // Budget exhaustion is not a clean exit and must be distinguishable.
  const Program program = assemble(".text\nmain:\n  b main\n");
  for (std::size_t i = 0; i < program.text.size(); ++i) {
    memory.write_u32(program.text_base + static_cast<Addr>(i * 4), program.text[i]);
  }
  Interpreter interp(memory);
  interp.set_pc(program.entry);
  EXPECT_EQ(interp.run(500), Interpreter::Stop::kBudget);

  mem::MainMemory clean;
  const Program exits = assemble(".text\nmain:\n  li v0, 1\n  syscall\n");
  for (std::size_t i = 0; i < exits.text.size(); ++i) {
    clean.write_u32(exits.text_base + static_cast<Addr>(i * 4), exits.text[i]);
  }
  Interpreter done(clean);
  done.set_pc(exits.entry);
  done.set_syscall_handler([](Interpreter& i) { return i.reg(kV0) != 1; });
  EXPECT_EQ(done.run(500), Interpreter::Stop::kHandlerStop);
  EXPECT_FALSE(done.hit_illegal());
}

TEST_F(InterpFixture, R0StaysZero) {
  Interpreter i = run(R"(
.text
main:
  li t0, 42
  add r0, t0, t0
  move s7, r0
  li v0, 1
  syscall
)");
  EXPECT_EQ(i.reg(kS0 + 7), 0u);
  EXPECT_EQ(i.reg(0), 0u);
}

}  // namespace
}  // namespace rse::isa
