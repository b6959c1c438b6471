// Instruction Checker Module: redundant-copy comparison, Icm_Cache
// behaviour, mismatch -> flush -> retry recovery, and containment of
// persistent corruption.
#include <gtest/gtest.h>

#include "../support/sim_runner.hpp"
#include "os/snapshot.hpp"

namespace rse {
namespace {

os::MachineConfig rse_machine() {
  os::MachineConfig config;
  config.framework_present = true;
  return config;
}

// A checked loop: the CHECK guards the loop branch, executed many times.
constexpr const char* kCheckedLoop = R"(
.text
main:
  chk frame, 1, nblk, r0, 1   # enable ICM
  li t0, 0
  li t1, 0
loop:
  li t2, 50
  add t1, t1, t0
  addi t0, t0, 1
  chk icm, 0, blk, r0, 0
  blt t0, t2, loop
  move a0, t1
  li v0, 2
  syscall
  li a0, 0
  li v0, 1
  syscall
)";

TEST(Icm, CleanRunPassesAllChecks) {
  testing::SimRunner runner(rse_machine());
  runner.load_source(kCheckedLoop);
  runner.run();
  EXPECT_EQ(runner.os().output(), "1225");
  const auto& stats = runner.machine().icm()->stats();
  EXPECT_GE(stats.checks_completed, 50u);
  EXPECT_EQ(stats.mismatches, 0u);
  EXPECT_EQ(runner.core_stats().check_error_flushes, 0u);
}

TEST(Icm, RepeatedCheckHitsIcmCache) {
  testing::SimRunner runner(rse_machine());
  runner.load_source(kCheckedLoop);
  runner.run();
  const auto& stats = runner.machine().icm()->stats();
  EXPECT_GT(stats.cache_hits, stats.cache_misses);
  EXPECT_GE(stats.cache_misses, 1u);  // the first encounter misses
}

TEST(Icm, BlockingCheckStallsCommit) {
  testing::SimRunner runner(rse_machine());
  runner.load_source(kCheckedLoop);
  runner.run();
  // The synchronous mode costs commit-stall cycles at least on cache misses.
  EXPECT_GT(runner.core_stats().chk_commit_stall_cycles, 0u);
}

TEST(Icm, TransientFetchFaultDetectedAndRetried) {
  testing::SimRunner runner(rse_machine());
  runner.load_source(kCheckedLoop);
  // Corrupt the checked branch instruction exactly once on its way from
  // memory to dispatch (multi-bit flip in the register field).
  const Addr victim = runner.program().symbol("loop") + 3 * 4;  // the chk
  const Addr checked = victim + 4;                              // the blt
  int injections = 0;
  runner.machine().core().set_fetch_fault_hook([&](Addr pc, Word raw) -> Word {
    if (pc == checked && injections == 0) {
      ++injections;
      return raw ^ 0x00030000;  // corrupt a register field
    }
    return raw;
  });
  runner.run();
  EXPECT_EQ(injections, 1);
  EXPECT_EQ(runner.os().output(), "1225");  // retried and recovered
  EXPECT_GE(runner.machine().icm()->stats().mismatches, 1u);
  EXPECT_GE(runner.core_stats().check_error_flushes, 1u);
  EXPECT_GE(runner.os().stats().check_error_retries, 1u);
}

TEST(Icm, PersistentCorruptionIsContained) {
  testing::SimRunner runner(rse_machine());
  runner.load_source(kCheckedLoop);
  const Addr checked = runner.program().symbol("loop") + 4 * 4;  // the blt
  // Corrupt the instruction in main memory itself: every fetch (and every
  // retry) sees the corrupted bits, while CheckerMemory holds the original.
  const Word original = runner.machine().memory().read_u32(checked);
  runner.machine().memory().write_u32(checked, original ^ 0x00FF0000);
  runner.run();
  // The OS exhausts the retry budget and contains the fault by terminating
  // the process rather than letting the corrupted instruction commit.
  EXPECT_TRUE(runner.os().finished());
  EXPECT_EQ(runner.os().exit_code(), 139);
  EXPECT_GE(runner.os().stats().check_error_aborts, 1u);
}

TEST(Icm, CorruptionWithoutIcmGoesUndetected) {
  // Control experiment: same corruption, module disabled -> silent wrong
  // output (this is what the ICM exists to prevent).
  testing::SimRunner runner(rse_machine());
  runner.load_source(R"(
.text
main:
  li t0, 0
  li t1, 0
loop:
  li t2, 50
  add t1, t1, t0
  addi t0, t0, 1
  blt t0, t2, loop
  move a0, t1
  li v0, 2
  syscall
  li a0, 0
  li v0, 1
  syscall
)");
  const Addr add_pc = runner.program().symbol("loop") + 4;
  const Word original = runner.machine().memory().read_u32(add_pc);
  // add t1,t1,t0 -> sub t1,t1,t0 (funct 0x20 -> 0x22)
  runner.machine().memory().write_u32(add_pc, original ^ 0x2);
  runner.run();
  EXPECT_TRUE(runner.os().finished());
  EXPECT_NE(runner.os().output(), "1225");  // silently wrong
}

TEST(Icm, UnregisteredCheckedPcCompletesAsMatch) {
  testing::SimRunner runner(rse_machine());
  runner.load_source(kCheckedLoop);
  runner.machine().icm()->clear_checker_memory();  // loader bug simulation
  runner.run();
  EXPECT_EQ(runner.os().output(), "1225");  // never wedges the pipeline
  EXPECT_GT(runner.machine().icm()->stats().unknown_pc, 0u);
}

TEST(Icm, ManyDistinctChecksEvictLruEntries) {
  os::MachineConfig config = rse_machine();
  config.icm.cache_entries = 4;  // tiny cache forces evictions
  testing::SimRunner runner(config);
  // 8 distinct checked instructions in a loop: working set exceeds cache.
  std::string source = ".text\nmain:\n  chk frame, 1, nblk, r0, 1\n  li t0, 0\nloop:\n";
  for (int i = 0; i < 8; ++i) {
    source += "  chk icm, 0, blk, r0, 0\n  addi t1, t1, " + std::to_string(i) + "\n";
  }
  source += R"(  addi t0, t0, 1
  li t2, 10
  blt t0, t2, loop
  li a0, 0
  li v0, 1
  syscall
)";
  runner.load_source(source);
  runner.run();
  const auto& stats = runner.machine().icm()->stats();
  EXPECT_TRUE(runner.os().finished());
  EXPECT_EQ(stats.mismatches, 0u);
  // With block fetch of 8 words the set may still fit per fetch, but some
  // re-misses must occur with only 4 cache entries.
  EXPECT_GT(stats.cache_misses, 1u);
}

TEST(Icm, SnapshotRoundTripKeepsCacheHitsAndMisses) {
  // Fifteen distinct checked instructions through a twelve-entry cache: hits,
  // misses and LRU evictions on both sides of the snapshot.  The restored
  // ICM must find its cache contents through the rebuilt pc index exactly
  // as the uninterrupted run does.
  os::MachineConfig config = rse_machine();
  config.icm.cache_entries = 12;
  std::string source = ".text\nmain:\n  chk frame, 1, nblk, r0, 1\n  li t0, 0\nloop:\n";
  for (int i = 0; i < 12; ++i) {
    source += "  chk icm, 0, blk, r0, 0\n  addi t1, t1, " + std::to_string(i) + "\n";
    if (i % 4 == 3) source += "  andi t3, t0, 1\n  chk icm, 0, blk, r0, 0\n  beq t3, r0, skip" +
                              std::to_string(i) + "\n  addi t1, t1, 1\nskip" +
                              std::to_string(i) + ":\n";
  }
  source += R"(  addi t0, t0, 1
  li t2, 40
  blt t0, t2, loop
  move a0, t1
  li v0, 2
  syscall
  li a0, 0
  li v0, 1
  syscall
)";
  testing::SimRunner reference(config);
  reference.load_source(source);
  reference.run();
  const modules::IcmStats want = reference.machine().icm()->stats();
  ASSERT_TRUE(reference.os().finished());
  ASSERT_GT(want.cache_hits, 0u);
  ASSERT_GT(want.cache_misses, 1u);

  testing::SimRunner captured(config);
  captured.load_source(source);
  while (!captured.os().finished() &&
         (captured.machine().now() < reference.cycles() / 2 ||
          !os::MachineSnapshot::quiescent(captured.machine()))) {
    captured.os().step();
  }
  ASSERT_FALSE(captured.os().finished());
  const os::MachineSnapshot snapshot =
      os::MachineSnapshot::capture(captured.machine(), captured.os());
  ASSERT_GT(captured.machine().icm()->stats().cache_hits, 0u);

  testing::SimRunner restored(config);
  restored.load_source(source);
  os::MachineSnapshot::restore(snapshot, restored.machine(), restored.os());
  restored.run();
  const modules::IcmStats& got = restored.machine().icm()->stats();
  EXPECT_EQ(got.cache_hits, want.cache_hits);
  EXPECT_EQ(got.cache_misses, want.cache_misses);
  EXPECT_EQ(got.checks_completed, want.checks_completed);
  EXPECT_EQ(restored.cycles(), reference.cycles());
  EXPECT_EQ(restored.os().output(), reference.os().output());
}

}  // namespace
}  // namespace rse
