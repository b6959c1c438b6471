// Differential testing: the out-of-order core must retire exactly the same
// architectural state as the in-order golden interpreter for randomly
// generated programs — with and without the RSE framework, under ICM
// instrumentation, and across pipeline-stressing configurations.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "../support/edge_operand_program.hpp"
#include "../support/random_program.hpp"
#include "../support/sim_runner.hpp"
#include "isa/interpreter.hpp"
#include "workloads/workloads.hpp"

namespace rse {
namespace {

using testing::RandomProgramOptions;
using testing::generate_random_program;
using testing::SimRunner;

/// Bytes of `arena` compared: the random programs' arena plus register dump.
constexpr u32 kArenaBytes = (64 + testing::kDumpOffsetWords + 16) * 4;

/// Final arena content (working-register dump included) after running
/// `source` on the golden interpreter.
std::vector<u8> golden_arena(const std::string& source, u64* instructions = nullptr,
                             u32 bytes = kArenaBytes) {
  const isa::Program program = isa::assemble(source);
  mem::MainMemory memory;
  for (std::size_t i = 0; i < program.text.size(); ++i) {
    memory.write_u32(program.text_base + static_cast<Addr>(i * 4), program.text[i]);
  }
  if (!program.data.empty()) {
    memory.write_block(program.data_base, program.data.data(),
                       static_cast<u32>(program.data.size()));
  }
  isa::Interpreter interp(memory);
  interp.set_pc(program.entry);
  bool exited = false;
  interp.set_syscall_handler([&exited](isa::Interpreter& i) {
    if (i.reg(isa::kV0) == 1) {
      exited = true;
      return false;
    }
    return true;  // other syscalls: no-op in the golden model
  });
  const isa::Interpreter::Stop stop = interp.run();
  EXPECT_EQ(stop, isa::Interpreter::Stop::kHandlerStop)
      << "golden model stopped for the wrong reason (budget/illegal)";
  EXPECT_TRUE(exited) << "golden model did not reach sys_exit";
  if (instructions != nullptr) *instructions = interp.instructions_executed();
  const Addr arena = program.symbol("arena");
  std::vector<u8> out(bytes);
  memory.read_block(arena, out.data(), bytes);
  return out;
}

std::vector<u8> machine_arena(const std::string& source, const os::MachineConfig& config,
                              u32 bytes = kArenaBytes) {
  SimRunner runner(config);
  runner.load_source(source);
  runner.run();
  EXPECT_TRUE(runner.os().finished());
  const Addr arena = runner.program().symbol("arena");
  std::vector<u8> out(bytes);
  runner.machine().memory().read_block(arena, out.data(), bytes);
  return out;
}

class DifferentialAlu : public ::testing::TestWithParam<u64> {};

TEST_P(DifferentialAlu, MatchesGoldenModel) {
  RandomProgramOptions options;
  options.with_memory = false;
  options.with_loops = false;
  const std::string source = generate_random_program(GetParam(), options);
  EXPECT_EQ(machine_arena(source, os::MachineConfig{}), golden_arena(source));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialAlu, ::testing::Range<u64>(1, 41));

class DifferentialMemory : public ::testing::TestWithParam<u64> {};

TEST_P(DifferentialMemory, MatchesGoldenModel) {
  RandomProgramOptions options;
  options.with_memory = true;
  options.with_loops = true;
  const std::string source = generate_random_program(GetParam(), options);
  EXPECT_EQ(machine_arena(source, os::MachineConfig{}), golden_arena(source));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialMemory, ::testing::Range<u64>(100, 140));

class DifferentialCalls : public ::testing::TestWithParam<u64> {};

TEST_P(DifferentialCalls, MatchesGoldenModel) {
  RandomProgramOptions options;
  options.with_memory = true;
  options.with_loops = true;
  options.with_calls = true;
  const std::string source = generate_random_program(GetParam(), options);
  EXPECT_EQ(machine_arena(source, os::MachineConfig{}), golden_arena(source));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialCalls, ::testing::Range<u64>(200, 225));

class DifferentialWithRse : public ::testing::TestWithParam<u64> {};

TEST_P(DifferentialWithRse, InstrumentedRunMatchesGoldenModel) {
  // The ICM-instrumented program on the RSE machine retires the same state:
  // CHECK instructions are architecturally transparent.
  RandomProgramOptions options;
  options.with_memory = true;
  options.with_loops = true;
  const std::string source = generate_random_program(GetParam(), options);
  const std::string instrumented = workloads::instrument_checks(source);
  os::MachineConfig config;
  config.framework_present = true;
  EXPECT_EQ(machine_arena(instrumented, config), golden_arena(source));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialWithRse, ::testing::Range<u64>(300, 325));

class DifferentialTinyPipeline : public ::testing::TestWithParam<u64> {};

TEST_P(DifferentialTinyPipeline, StressedStructuresMatchGoldenModel) {
  // A deliberately starved pipeline (tiny RUU/LSQ/caches) exercises every
  // stall path; architectural results must be unchanged.
  RandomProgramOptions options;
  options.with_memory = true;
  options.with_loops = true;
  options.blocks = 8;
  const std::string source = generate_random_program(GetParam(), options);
  os::MachineConfig config;
  config.core.ruu_size = 4;
  config.core.lsq_size = 2;
  config.core.fetch_buffer_size = 2;
  config.core.fetch_width = 2;
  config.core.issue_width = 2;
  config.core.commit_width = 2;
  config.core.int_alus = 1;
  config.core.mem_ports = 1;
  config.il1 = mem::CacheConfig{"il1", 256, 1, 32, 1};
  config.dl1 = mem::CacheConfig{"dl1", 256, 1, 32, 1};
  EXPECT_EQ(machine_arena(source, config), golden_arena(source));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTinyPipeline, ::testing::Range<u64>(400, 425));

class DifferentialOddRing : public ::testing::TestWithParam<u64> {};

TEST_P(DifferentialOddRing, NonPowerOfTwoRuuAndLsqMatchGoldenModel) {
  // RUU slots wrap with a compare, not a division: sizes that are not powers
  // of two wrap at every slot index, with and without the framework.
  RandomProgramOptions options;
  options.with_memory = true;
  options.with_loops = true;
  options.with_calls = GetParam() % 2 == 0;
  const std::string source = generate_random_program(GetParam(), options);
  const std::vector<u8> golden = golden_arena(source);
  for (const auto& [ruu, lsq] : {std::pair<u32, u32>{12, 5}, std::pair<u32, u32>{20, 7}}) {
    for (const bool framework : {false, true}) {
      os::MachineConfig config;
      config.core.ruu_size = ruu;
      config.core.lsq_size = lsq;
      config.framework_present = framework;
      EXPECT_EQ(machine_arena(source, config), golden)
          << "ruu " << ruu << " lsq " << lsq << " framework " << framework;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialOddRing, ::testing::Range<u64>(500, 515));

TEST(Differential, StoreForwardingAtTheTopOfTheAddressSpaceMatchesGoldenModel) {
  // Loads that read back in-flight stores to the last word of the address
  // space: the store's end address wraps to 0, so forwarding must compare
  // offsets, not end addresses.
  const std::string source = R"(
.data
.align 4
arena: .space 16
.text
main:
  la s0, arena
  li t1, 77
  sw t1, -4(zero)
  lw t2, -4(zero)
  sw t2, 0(s0)
  li t1, 0x1234
  sh t1, -2(zero)
  lhu t3, -2(zero)
  sw t3, 4(s0)
  lbu t4, -1(zero)
  sw t4, 8(s0)
  li t1, 0x5A
  sb t1, -3(zero)
  lw t5, -4(zero)
  sw t5, 12(s0)
  li a0, 0
  li v0, 1
  syscall
)";
  const std::vector<u8> golden = golden_arena(source, nullptr, 16);
  EXPECT_EQ(golden[0], 77);
  EXPECT_EQ(machine_arena(source, os::MachineConfig{}, 16), golden);
}

TEST(Differential, EdgeOperandsMatchGoldenModel) {
  // Every opcode the random generators never emit, on 0, ±1, INT32_MIN,
  // INT32_MAX and out-of-range shift amounts — INT32_MIN / -1 included.
  const std::string source = testing::edge_operand_program();
  const u32 bytes = testing::kEdgeOperandWords * 4;
  EXPECT_EQ(machine_arena(source, os::MachineConfig{}, bytes),
            golden_arena(source, nullptr, bytes));
}

TEST(Differential, CommittedInstructionCountMatchesGoldenModel) {
  // Squashes must never be counted: the committed-instruction statistic
  // equals the golden model's executed count exactly.
  RandomProgramOptions options;
  options.with_memory = true;
  options.with_loops = true;
  const std::string source = generate_random_program(777, options);
  u64 golden_count = 0;
  golden_arena(source, &golden_count);
  SimRunner runner;
  runner.load_source(source);
  runner.run();
  EXPECT_EQ(runner.core_stats().instructions, golden_count);
}

}  // namespace
}  // namespace rse
