// Golden table of pipeline timing: for seeded random programs under six
// machine configurations (bare, bare with a non-power-of-two RUU/LSQ,
// framework present with no module, framework + ICM on the CHECK-instrumented
// program, the same with another odd RUU/LSQ, framework + DDT), every row
// pins the core's cycle and event counts, the L1 cache traffic and the
// framework's event counts.  The core's
// scheduling shortcuts (ring wrap, store forwarding, the issue scan, the
// held-aside framework events) are exact only if every row still matches;
// on a mismatch the test prints the whole table as it now reads.  A second
// test restores snapshots taken mid-flight and checks they finish exactly
// like the uninterrupted run.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "../support/random_program.hpp"
#include "../support/sim_runner.hpp"
#include "os/snapshot.hpp"
#include "workloads/workloads.hpp"

namespace rse {
namespace {

using testing::RandomProgramOptions;
using testing::SimRunner;

enum class Rig : u8 { kBare, kBareOddRing, kFramework, kIcm, kIcmOddRing, kDdt };
constexpr std::array<Rig, 6> kRigs = {Rig::kBare, Rig::kBareOddRing, Rig::kFramework,
                                      Rig::kIcm,  Rig::kIcmOddRing,  Rig::kDdt};
constexpr std::array<u64, 8> kSeeds = {11, 12, 13, 14, 15, 16, 17, 18};

struct Row {
  u64 seed;
  int rig;
  u64 cycles, instructions, squashed, mispredicts, chk_stalls;
  u64 il1_accesses, il1_misses, dl1_accesses, dl1_misses;
  u64 dispatches, commits, squashes, chks;

  bool operator==(const Row&) const = default;
};

Row measure(u64 seed, Rig rig) {
  RandomProgramOptions options;
  options.blocks = 20;
  options.ops_per_block = 10;
  options.with_memory = true;
  options.with_loops = true;
  options.with_calls = seed % 2 == 0;
  std::string source = testing::generate_random_program(seed, options);
  os::MachineConfig config;
  if (rig == Rig::kBareOddRing) {
    config.core.ruu_size = 12;
    config.core.lsq_size = 5;
  }
  if (rig == Rig::kIcmOddRing) {
    config.core.ruu_size = 20;
    config.core.lsq_size = 7;
  }
  const bool icm = rig == Rig::kIcm || rig == Rig::kIcmOddRing;
  config.framework_present = rig >= Rig::kFramework;
  if (icm) source = workloads::instrument_checks(source);

  SimRunner runner(config);
  runner.load_source(source);
  if (icm) runner.os().enable_module(isa::ModuleId::kIcm);
  if (rig == Rig::kDdt) runner.os().enable_module(isa::ModuleId::kDdt);
  runner.run();
  EXPECT_TRUE(runner.os().finished()) << "seed " << seed;

  const cpu::CoreStats& core = runner.core_stats();
  os::Machine& machine = runner.machine();
  Row row{seed, static_cast<int>(rig), runner.cycles(), core.instructions, core.squashed,
          core.mispredicts, core.chk_commit_stall_cycles, machine.il1().stats().accesses,
          machine.il1().stats().misses, machine.dl1().stats().accesses,
          machine.dl1().stats().misses, 0, 0, 0, 0};
  if (const engine::Framework* fw = machine.framework()) {
    row.dispatches = fw->stats().dispatches_seen;
    row.commits = fw->stats().commits_seen;
    row.squashes = fw->stats().squashes_seen;
    row.chks = fw->stats().chk_instructions;
  }
  return row;
}

std::string format(const Row& r) {
  std::ostringstream out;
  out << "    {" << r.seed << ", " << r.rig << ", " << r.cycles << ", " << r.instructions << ", "
      << r.squashed << ", " << r.mispredicts << ", " << r.chk_stalls << ", " << r.il1_accesses
      << ", " << r.il1_misses << ", " << r.dl1_accesses << ", " << r.dl1_misses << ", "
      << r.dispatches << ", " << r.commits << ", " << r.squashes << ", " << r.chks << "},\n";
  return out.str();
}

// {seed, rig, cycles, instructions, squashed, mispredicts, chk stalls,
//  il1 accesses, il1 misses, dl1 accesses, dl1 misses,
//  framework dispatches, commits, squashes, CHECKs}
const std::vector<Row> kGolden = {
    {11, 0, 687, 242, 20, 5, 0, 280, 21, 80, 9, 0, 0, 0, 0},
    {11, 1, 687, 242, 19, 5, 0, 279, 21, 80, 9, 0, 0, 0, 0},
    {11, 2, 815, 242, 20, 5, 0, 280, 21, 80, 9, 262, 242, 20, 0},
    {11, 3, 905, 242, 15, 5, 159, 288, 23, 80, 9, 273, 258, 15, 16},
    {11, 4, 905, 242, 15, 5, 159, 288, 23, 80, 9, 273, 258, 15, 16},
    {11, 5, 815, 242, 20, 5, 0, 280, 21, 80, 9, 262, 242, 20, 0},
    {12, 0, 799, 315, 16, 4, 0, 345, 24, 85, 10, 0, 0, 0, 0},
    {12, 1, 805, 315, 12, 4, 0, 341, 24, 85, 10, 0, 0, 0, 0},
    {12, 2, 943, 315, 16, 4, 0, 345, 24, 85, 10, 331, 315, 16, 0},
    {12, 3, 1040, 315, 15, 4, 191, 368, 27, 85, 10, 354, 339, 15, 24},
    {12, 4, 1038, 315, 17, 4, 191, 370, 27, 85, 10, 356, 339, 17, 24},
    {12, 5, 943, 315, 16, 4, 0, 345, 24, 85, 10, 331, 315, 16, 0},
    {13, 0, 962, 571, 46, 9, 0, 647, 31, 120, 10, 0, 0, 0, 0},
    {13, 1, 988, 571, 37, 9, 0, 639, 31, 120, 10, 0, 0, 0, 0},
    {13, 2, 1122, 571, 46, 9, 0, 647, 31, 120, 10, 617, 571, 46, 0},
    {13, 3, 1257, 571, 39, 9, 154, 677, 33, 120, 10, 649, 610, 39, 39},
    {13, 4, 1240, 571, 32, 9, 154, 670, 33, 120, 10, 642, 610, 32, 39},
    {13, 5, 1122, 571, 46, 9, 0, 647, 31, 120, 10, 617, 571, 46, 0},
    {14, 0, 632, 237, 20, 4, 0, 274, 18, 50, 8, 0, 0, 0, 0},
    {14, 1, 632, 237, 17, 4, 0, 271, 18, 50, 8, 0, 0, 0, 0},
    {14, 2, 752, 237, 20, 4, 0, 274, 18, 50, 8, 257, 237, 20, 0},
    {14, 3, 847, 237, 20, 4, 379, 295, 19, 50, 8, 278, 258, 20, 21},
    {14, 4, 841, 237, 20, 4, 373, 295, 19, 50, 8, 278, 258, 20, 21},
    {14, 5, 752, 237, 20, 4, 0, 274, 18, 50, 8, 257, 237, 20, 0},
    {15, 0, 830, 364, 27, 6, 0, 410, 24, 99, 10, 0, 0, 0, 0},
    {15, 1, 843, 364, 13, 6, 0, 396, 24, 99, 10, 0, 0, 0, 0},
    {15, 2, 982, 364, 27, 6, 0, 410, 24, 99, 10, 391, 364, 27, 0},
    {15, 3, 952, 364, 27, 6, 73, 432, 26, 99, 10, 414, 387, 27, 23},
    {15, 4, 948, 364, 28, 6, 73, 433, 26, 99, 10, 415, 387, 28, 23},
    {15, 5, 982, 364, 27, 6, 0, 410, 24, 99, 10, 391, 364, 27, 0},
    {16, 0, 979, 524, 41, 11, 0, 595, 33, 106, 10, 0, 0, 0, 0},
    {16, 1, 986, 524, 38, 11, 0, 592, 33, 106, 10, 0, 0, 0, 0},
    {16, 2, 1147, 524, 41, 11, 0, 595, 33, 106, 10, 565, 524, 41, 0},
    {16, 3, 1345, 524, 34, 11, 294, 637, 38, 106, 10, 607, 573, 34, 49},
    {16, 4, 1329, 524, 36, 11, 292, 639, 38, 106, 10, 609, 573, 36, 49},
    {16, 5, 1147, 524, 41, 11, 0, 595, 33, 106, 10, 565, 524, 41, 0},
    {17, 0, 473, 168, 15, 3, 0, 196, 12, 45, 8, 0, 0, 0, 0},
    {17, 1, 478, 168, 13, 3, 0, 194, 12, 45, 8, 0, 0, 0, 0},
    {17, 2, 569, 168, 15, 3, 0, 196, 12, 45, 8, 183, 168, 15, 0},
    {17, 3, 699, 168, 14, 3, 214, 207, 13, 45, 8, 194, 180, 14, 12},
    {17, 4, 695, 168, 4, 3, 214, 197, 13, 45, 8, 184, 180, 4, 12},
    {17, 5, 569, 168, 15, 3, 0, 196, 12, 45, 8, 183, 168, 15, 0},
    {18, 0, 941, 473, 33, 9, 0, 534, 29, 139, 10, 0, 0, 0, 0},
    {18, 1, 952, 473, 27, 9, 0, 528, 29, 139, 10, 0, 0, 0, 0},
    {18, 2, 1101, 473, 33, 9, 0, 534, 29, 139, 10, 506, 473, 33, 0},
    {18, 3, 1256, 473, 37, 9, 200, 580, 33, 139, 10, 552, 515, 37, 42},
    {18, 4, 1254, 473, 41, 9, 200, 584, 33, 139, 10, 556, 515, 41, 42},
    {18, 5, 1101, 473, 33, 9, 0, 534, 29, 139, 10, 506, 473, 33, 0},
};

TEST(PipelineGolden, EverySeedAndSetupMatchesThePinnedTable) {
  std::vector<Row> actual;
  for (u64 seed : kSeeds) {
    for (Rig rig : kRigs) actual.push_back(measure(seed, rig));
  }
  if (actual != kGolden) {
    std::string table;
    for (const Row& row : actual) table += format(row);
    ADD_FAILURE() << "pipeline golden table differs; it now reads:\n" << table;
  }
}

// Divides (20-cycle, unpipelined) and loads that miss every iteration keep
// issued, uncompleted entries in the RUU at most cycles.
const char* const kLongLatencyLoop = R"(
.data
.align 4
buf: .space 1024
.text
main:
  la s0, buf
  li t0, 1000
  li t1, 7
  li s1, 0
loop:
  div t2, t0, t1
  mul t3, t2, t1
  lw t4, 0(s0)
  add t4, t4, t3
  sw t4, 0(s0)
  addi s0, s0, 64
  addi t0, t0, 13
  addi s1, s1, 1
  li t5, 12
  blt s1, t5, loop
  li a0, 0
  li v0, 1
  syscall
)";

struct RunEnd {
  Cycle cycles = 0;
  cpu::CoreStats core{};
  std::array<Word, isa::kNumRegs> regs{};

  bool operator==(const RunEnd& other) const {
    return cycles == other.cycles && regs == other.regs &&
           std::memcmp(&core, &other.core, sizeof core) == 0;
  }
};

RunEnd finish(os::Machine& machine, os::GuestOs& guest) {
  guest.run();
  EXPECT_TRUE(guest.finished());
  RunEnd end{machine.now(), machine.core().stats(), {}};
  for (unsigned r = 0; r < isa::kNumRegs; ++r) end.regs[r] = machine.core().reg(static_cast<u8>(r));
  return end;
}

TEST(PipelineGolden, SnapshotsTakenMidFlightFinishLikeTheUninterruptedRun) {
  for (const bool framework : {false, true}) {
    os::MachineConfig config;
    config.core.ruu_size = 12;
    config.core.lsq_size = 5;
    config.framework_present = framework;
    // With the framework, ICM CHECKs are live while the DDT and CFC stay
    // disabled, so commit events are held aside at every capture point.
    const isa::Program program = isa::assemble(
        framework ? workloads::instrument_checks(kLongLatencyLoop) : std::string(kLongLatencyLoop));
    auto start = [&](os::Machine& machine, os::GuestOs& guest) {
      guest.load(program);
      if (framework) guest.enable_module(isa::ModuleId::kIcm);
      (void)machine;
    };

    os::Machine reference_machine(config);
    os::GuestOs reference(reference_machine);
    start(reference_machine, reference);
    const RunEnd expected = finish(reference_machine, reference);

    os::Machine machine(config);
    os::GuestOs guest(machine);
    start(machine, guest);
    u32 restored = 0;
    u32 busy = 0;
    while (!guest.finished()) {
      guest.step();
      if (machine.now() % 3 != 0 || !os::MachineSnapshot::quiescent(machine)) continue;
      if (machine.core().inflight_ranges().size() > 4) ++busy;
      const os::MachineSnapshot snapshot = os::MachineSnapshot::capture(machine, guest);
      os::Machine fresh_machine(config);
      os::GuestOs fresh(fresh_machine);
      start(fresh_machine, fresh);
      os::MachineSnapshot::restore(snapshot, fresh_machine, fresh);
      ASSERT_EQ(finish(fresh_machine, fresh), expected)
          << "framework " << framework << ", captured at cycle " << snapshot.at;
      ++restored;
    }
    EXPECT_EQ(finish(machine, guest), expected) << "capture perturbed the run";
    EXPECT_GT(restored, 100u) << "framework " << framework;
    EXPECT_GT(busy, restored / 2) << "framework " << framework;
  }
}

}  // namespace
}  // namespace rse
