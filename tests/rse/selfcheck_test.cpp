// Table 2 error scenarios of the RSE and the self-checking watchdog of
// section 3.4: no-progress modules, false-alarm storms, stuck-at output
// bits, and the safe-mode decoupling that keeps the application running.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "isa/assembler.hpp"
#include "os/guest_os.hpp"
#include "os/machine.hpp"
#include "os/snapshot.hpp"
#include "rse/framework.hpp"

namespace rse::engine {
namespace {

class SilentModule : public Module {
 public:
  using Module::Module;
  isa::ModuleId id() const override { return isa::ModuleId::kIcm; }
  const char* name() const override { return "silent"; }
};

struct SelfCheckFixture : ::testing::Test {
  mem::MainMemory memory;
  mem::BusArbiter bus{mem::BusTiming{19, 3, 8}};
  Framework fw{memory, bus, 16};
  SilentModule* module = nullptr;
  std::vector<SelfCheckVerdict> verdicts;

  void SetUp() override {
    auto m = std::make_unique<SilentModule>(fw);
    module = m.get();
    fw.add_module(std::move(m));
    module->set_enabled(true);
    SelfCheckConfig config;
    config.watchdog_timeout = 100;
    config.alarm_threshold = 3;
    fw.set_selfcheck_config(config);
    fw.set_selfcheck_observer([this](SelfCheckVerdict v, Cycle) { verdicts.push_back(v); });
  }

  DispatchInfo chk(u32 slot, u64 seq) {
    DispatchInfo info;
    info.tag = {slot, seq};
    info.instr.op = isa::Op::kChk;
    info.instr.chk_module = isa::ModuleId::kIcm;
    info.instr.chk_blocking = true;
    return info;
  }
};

TEST_F(SelfCheckFixture, NoProgressModuleTripsWatchdog) {
  // Table 2 row 1: the module never produces a result; an instruction could
  // wait forever.  The watchdog detects the missing 0->1 transition.
  fw.on_dispatch(chk(0, 1), 0);
  for (Cycle c = 1; c <= 150 && !fw.safe_mode(); ++c) fw.tick(c);
  EXPECT_TRUE(fw.safe_mode());
  EXPECT_EQ(fw.verdict(), SelfCheckVerdict::kNoProgress);
  ASSERT_EQ(verdicts.size(), 1u);
  // Decoupled: the stuck CHECK is released so the pipeline can commit.
  EXPECT_TRUE(fw.check_bits(0).check_valid);
  EXPECT_FALSE(fw.check_bits(0).check);
}

TEST_F(SelfCheckFixture, HealthyCheckDoesNotTrip) {
  fw.on_dispatch(chk(0, 1), 0);
  fw.module_write_ioq(*module, {0, 1}, true, false, 5);
  CommitInfo info;
  info.tag = {0, 1};
  info.instr.op = isa::Op::kChk;
  info.instr.chk_module = isa::ModuleId::kIcm;
  fw.on_commit(info, 10);
  for (Cycle c = 1; c <= 400; ++c) fw.tick(c);
  EXPECT_FALSE(fw.safe_mode());
}

TEST_F(SelfCheckFixture, FalseAlarmStormTripsThresholdCounter) {
  // Table 2 row 2: the module always declares an error; the pipeline would
  // flush and retry the same CHECK forever.  Each retry lands in the same
  // IOQ slot; the commit stage observes check=1 there every time, so the
  // per-entry error-transition counter crosses the threshold within the
  // watchdog window.
  for (u64 retry = 1; retry <= 5 && !fw.safe_mode(); ++retry) {
    fw.on_dispatch(chk(0, retry), 10 * retry);
    fw.module_write_ioq(*module, {0, retry}, true, true, 10 * retry + 1);
    fw.on_check_error(0, 10 * retry + 2);      // commit observed the error
    fw.on_squash({0, retry}, 10 * retry + 2);  // the flush squashes the CHECK
    fw.tick(10 * retry + 3);
  }
  EXPECT_TRUE(fw.safe_mode());
  EXPECT_EQ(fw.verdict(), SelfCheckVerdict::kFalseAlarmStorm);
}

TEST_F(SelfCheckFixture, StuckAt1CheckFieldStormAlsoTrips) {
  // Table 2 row 4 last case: check stuck-at-1 causes repeated flushes at the
  // same slot; the same commit-side counter catches it even though no module
  // ever wrote the bit.
  fw.ioq().inject_stuck_fault(0, IoqStuckFault::kCheckStuck1);
  for (u64 retry = 1; retry <= 5 && !fw.safe_mode(); ++retry) {
    fw.on_dispatch(chk(0, retry), 10 * retry);
    fw.on_check_error(0, 10 * retry + 2);
    fw.on_squash({0, retry}, 10 * retry + 2);
    fw.tick(10 * retry + 3);
  }
  EXPECT_TRUE(fw.safe_mode());
  EXPECT_EQ(fw.verdict(), SelfCheckVerdict::kFalseAlarmStorm);
  // Decoupled output lets the pipeline commit despite the stuck bit.
  fw.on_dispatch(chk(1, 9), 100);
  EXPECT_TRUE(fw.check_bits(1).check_valid);
  EXPECT_FALSE(fw.check_bits(1).check);
}

TEST_F(SelfCheckFixture, StuckAt1CheckValidOnFreeEntryDetected) {
  // Table 2 row 4: a free IOQ entry reading 1 means a stuck-at-1 output.
  fw.ioq().inject_stuck_fault(5, IoqStuckFault::kCheckValidStuck1);
  for (Cycle c = 1; c <= 200 && !fw.safe_mode(); ++c) fw.tick(c);
  EXPECT_TRUE(fw.safe_mode());
  EXPECT_EQ(fw.verdict(), SelfCheckVerdict::kStuckAt1);
}

TEST_F(SelfCheckFixture, StuckAt1CheckOnFreeEntryDetected) {
  fw.ioq().inject_stuck_fault(7, IoqStuckFault::kCheckStuck1);
  for (Cycle c = 1; c <= 200 && !fw.safe_mode(); ++c) fw.tick(c);
  EXPECT_TRUE(fw.safe_mode());
  EXPECT_EQ(fw.verdict(), SelfCheckVerdict::kStuckAt1);
}

TEST_F(SelfCheckFixture, StuckAt0CheckValidLooksLikeNoProgress) {
  // Table 2: stuck-at-0 of checkValid is equivalent to a module that makes
  // no progress — and is handled by the same watchdog path.
  fw.ioq().inject_stuck_fault(0, IoqStuckFault::kCheckValidStuck0);
  fw.on_dispatch(chk(0, 1), 0);
  fw.module_write_ioq(*module, {0, 1}, true, false, 2);  // module DID answer
  for (Cycle c = 1; c <= 200 && !fw.safe_mode(); ++c) fw.tick(c);
  EXPECT_TRUE(fw.safe_mode());
  EXPECT_EQ(fw.verdict(), SelfCheckVerdict::kNoProgress);
}

TEST_F(SelfCheckFixture, SafeModeOverridesAllSubsequentWrites) {
  fw.on_dispatch(chk(0, 1), 0);
  for (Cycle c = 1; c <= 150; ++c) fw.tick(c);
  ASSERT_TRUE(fw.safe_mode());
  fw.on_dispatch(chk(1, 2), 200);
  fw.module_write_ioq(*module, {1, 2}, true, true, 201);  // module says error
  EXPECT_TRUE(fw.check_bits(1).check_valid);
  EXPECT_FALSE(fw.check_bits(1).check);  // safe mode: always commit
}

TEST_F(SelfCheckFixture, SafeModeChksToLiveModuleCommitImmediately) {
  fw.on_dispatch(chk(0, 1), 0);
  for (Cycle c = 1; c <= 150; ++c) fw.tick(c);
  ASSERT_TRUE(fw.safe_mode());
  fw.on_dispatch(chk(2, 3), 200);
  EXPECT_TRUE(fw.check_bits(2).check_valid);
}

TEST_F(SelfCheckFixture, RecoupleRestoresChecking) {
  fw.on_dispatch(chk(0, 1), 0);
  for (Cycle c = 1; c <= 150; ++c) fw.tick(c);
  ASSERT_TRUE(fw.safe_mode());
  CommitInfo info;
  info.tag = {0, 1};
  info.instr.op = isa::Op::kChk;
  info.instr.chk_module = isa::ModuleId::kIcm;
  fw.on_commit(info, 160);
  fw.recouple();
  EXPECT_FALSE(fw.safe_mode());
  fw.on_dispatch(chk(1, 2), 200);
  EXPECT_FALSE(fw.check_bits(1).check_valid);  // pending again
}

TEST_F(SelfCheckFixture, DisabledSelfCheckNeverTrips) {
  SelfCheckConfig config;
  config.enabled = false;
  fw.set_selfcheck_config(config);
  fw.on_dispatch(chk(0, 1), 0);
  for (Cycle c = 1; c <= 1000; ++c) fw.tick(c);
  EXPECT_FALSE(fw.safe_mode());
}

// ---- whole-machine golden table ------------------------------------------
//
// Every module fault mode x every IOQ stuck-at fault x three watchdog
// timeouts x two stuck slots, each run on the full machine (core + framework
// + ICM) over a CHECK-instrumented loop.  The rows pin what the watchdog
// decided and when, so any change to how or how often the self-check runs
// must reproduce the same verdicts at the same cycles.

constexpr const char* kCheckedLoop = R"(
.text
main:
  chk frame, 1, nblk, r0, 1   # enable ICM
  li t0, 0
  li t1, 0
loop:
  li t2, 120
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

struct GoldenRow {
  ModuleFaultMode module_fault;
  IoqStuckFault ioq_fault;
  Cycle timeout;
  u32 slot;
  SelfCheckVerdict verdict;
  Cycle trip_cycle;
  bool safe_mode;
};

os::MachineConfig golden_machine(Cycle timeout) {
  os::MachineConfig config;
  config.framework_present = true;
  config.selfcheck.watchdog_timeout = timeout;
  config.selfcheck.alarm_threshold = 4;
  return config;
}

os::OsConfig golden_os() {
  os::OsConfig config;
  config.check_error_retries = 50;  // let the hardware watchdog act first
  config.run_limit = 400'000;
  return config;
}

/// Run the checked loop, then keep the quiet machine stepping for two
/// watchdog intervals so free-entry monitoring can conclude.
GoldenRow run_golden(ModuleFaultMode module_fault, IoqStuckFault ioq_fault, Cycle timeout,
                     u32 slot) {
  os::Machine machine(golden_machine(timeout));
  os::GuestOs guest(machine, golden_os());
  guest.load(isa::assemble(kCheckedLoop));
  machine.icm()->inject_fault(module_fault);
  machine.framework()->ioq().inject_stuck_fault(slot, ioq_fault);
  guest.run();
  for (Cycle i = 0; i < 2 * timeout + 2 && !machine.framework()->safe_mode(); ++i) {
    machine.step();
  }
  const Framework& fw = *machine.framework();
  return {module_fault,    ioq_fault, timeout, slot, fw.verdict(), fw.stats().selfcheck_trip_cycle,
          fw.safe_mode()};
}

std::string row_text(const GoldenRow& r) {
  std::ostringstream out;
  out << "{" << static_cast<int>(r.module_fault) << ", " << static_cast<int>(r.ioq_fault) << ", "
      << r.timeout << ", " << r.slot << ", " << static_cast<int>(r.verdict) << ", "
      << r.trip_cycle << ", " << (r.safe_mode ? 1 : 0) << "}";
  return out.str();
}

// (module fault, ioq fault, timeout, slot, verdict, trip cycle, safe mode);
// enum values as integers in declaration order.
constexpr int kGolden[][7] = {
    {0, 0, 150, 3, 0, 0, 0},
    {0, 0, 150, 12, 0, 0, 0},
    {0, 0, 1200, 3, 0, 0, 0},
    {0, 0, 1200, 12, 0, 0, 0},
    {0, 0, 6000, 3, 0, 0, 0},
    {0, 0, 6000, 12, 0, 0, 0},
    {0, 1, 150, 3, 1, 244, 1},
    {0, 1, 150, 12, 1, 254, 1},
    {0, 1, 1200, 3, 1, 1294, 1},
    {0, 1, 1200, 12, 1, 1304, 1},
    {0, 1, 6000, 3, 1, 6094, 1},
    {0, 1, 6000, 12, 1, 6104, 1},
    {0, 2, 150, 3, 3, 466, 1},
    {0, 2, 150, 12, 3, 479, 1},
    {0, 2, 1200, 3, 3, 1516, 1},
    {0, 2, 1200, 12, 3, 1529, 1},
    {0, 2, 6000, 3, 3, 6316, 1},
    {0, 2, 6000, 12, 3, 6329, 1},
    {0, 3, 150, 3, 0, 0, 0},
    {0, 3, 150, 12, 0, 0, 0},
    {0, 3, 1200, 3, 0, 0, 0},
    {0, 3, 1200, 12, 0, 0, 0},
    {0, 3, 6000, 3, 0, 0, 0},
    {0, 3, 6000, 12, 0, 0, 0},
    {0, 4, 150, 3, 2, 72, 1},
    {0, 4, 150, 12, 2, 104, 1},
    {0, 4, 1200, 3, 2, 72, 1},
    {0, 4, 1200, 12, 2, 104, 1},
    {0, 4, 6000, 3, 2, 72, 1},
    {0, 4, 6000, 12, 2, 104, 1},
    {1, 0, 150, 3, 1, 201, 1},
    {1, 0, 150, 12, 1, 201, 1},
    {1, 0, 1200, 3, 1, 1251, 1},
    {1, 0, 1200, 12, 1, 1251, 1},
    {1, 0, 6000, 3, 1, 6051, 1},
    {1, 0, 6000, 12, 1, 6051, 1},
    {1, 1, 150, 3, 1, 201, 1},
    {1, 1, 150, 12, 1, 201, 1},
    {1, 1, 1200, 3, 1, 1251, 1},
    {1, 1, 1200, 12, 1, 1251, 1},
    {1, 1, 6000, 3, 1, 6051, 1},
    {1, 1, 6000, 12, 1, 6051, 1},
    {1, 2, 150, 3, 1, 201, 1},
    {1, 2, 150, 12, 1, 201, 1},
    {1, 2, 1200, 3, 1, 1251, 1},
    {1, 2, 1200, 12, 1, 1251, 1},
    {1, 2, 6000, 3, 1, 6051, 1},
    {1, 2, 6000, 12, 1, 6051, 1},
    {1, 3, 150, 3, 1, 201, 1},
    {1, 3, 150, 12, 1, 201, 1},
    {1, 3, 1200, 3, 1, 1251, 1},
    {1, 3, 1200, 12, 1, 1251, 1},
    {1, 3, 6000, 3, 1, 6051, 1},
    {1, 3, 6000, 12, 1, 6051, 1},
    {1, 4, 150, 3, 2, 72, 1},
    {1, 4, 150, 12, 1, 201, 1},
    {1, 4, 1200, 3, 2, 72, 1},
    {1, 4, 1200, 12, 1, 1251, 1},
    {1, 4, 6000, 3, 2, 72, 1},
    {1, 4, 6000, 12, 1, 6051, 1},
    {2, 0, 150, 3, 2, 107, 1},
    {2, 0, 150, 12, 2, 107, 1},
    {2, 0, 1200, 3, 2, 107, 1},
    {2, 0, 1200, 12, 2, 107, 1},
    {2, 0, 6000, 3, 2, 107, 1},
    {2, 0, 6000, 12, 2, 107, 1},
    {2, 1, 150, 3, 2, 107, 1},
    {2, 1, 150, 12, 2, 107, 1},
    {2, 1, 1200, 3, 2, 107, 1},
    {2, 1, 1200, 12, 2, 107, 1},
    {2, 1, 6000, 3, 2, 107, 1},
    {2, 1, 6000, 12, 2, 107, 1},
    {2, 2, 150, 3, 2, 107, 1},
    {2, 2, 150, 12, 2, 107, 1},
    {2, 2, 1200, 3, 2, 107, 1},
    {2, 2, 1200, 12, 2, 107, 1},
    {2, 2, 6000, 3, 2, 107, 1},
    {2, 2, 6000, 12, 2, 107, 1},
    {2, 3, 150, 3, 2, 107, 1},
    {2, 3, 150, 12, 2, 107, 1},
    {2, 3, 1200, 3, 2, 107, 1},
    {2, 3, 1200, 12, 2, 107, 1},
    {2, 3, 6000, 3, 2, 107, 1},
    {2, 3, 6000, 12, 2, 107, 1},
    {2, 4, 150, 3, 2, 72, 1},
    {2, 4, 150, 12, 2, 107, 1},
    {2, 4, 1200, 3, 2, 72, 1},
    {2, 4, 1200, 12, 2, 107, 1},
    {2, 4, 6000, 3, 2, 72, 1},
    {2, 4, 6000, 12, 2, 107, 1},
    {3, 0, 150, 3, 0, 0, 0},
    {3, 0, 150, 12, 0, 0, 0},
    {3, 0, 1200, 3, 0, 0, 0},
    {3, 0, 1200, 12, 0, 0, 0},
    {3, 0, 6000, 3, 0, 0, 0},
    {3, 0, 6000, 12, 0, 0, 0},
    {3, 1, 150, 3, 1, 244, 1},
    {3, 1, 150, 12, 1, 254, 1},
    {3, 1, 1200, 3, 1, 1294, 1},
    {3, 1, 1200, 12, 1, 1304, 1},
    {3, 1, 6000, 3, 1, 6094, 1},
    {3, 1, 6000, 12, 1, 6104, 1},
    {3, 2, 150, 3, 3, 466, 1},
    {3, 2, 150, 12, 3, 479, 1},
    {3, 2, 1200, 3, 3, 1516, 1},
    {3, 2, 1200, 12, 3, 1529, 1},
    {3, 2, 6000, 3, 3, 6316, 1},
    {3, 2, 6000, 12, 3, 6329, 1},
    {3, 3, 150, 3, 0, 0, 0},
    {3, 3, 150, 12, 0, 0, 0},
    {3, 3, 1200, 3, 0, 0, 0},
    {3, 3, 1200, 12, 0, 0, 0},
    {3, 3, 6000, 3, 0, 0, 0},
    {3, 3, 6000, 12, 0, 0, 0},
    {3, 4, 150, 3, 2, 72, 1},
    {3, 4, 150, 12, 2, 104, 1},
    {3, 4, 1200, 3, 2, 72, 1},
    {3, 4, 1200, 12, 2, 104, 1},
    {3, 4, 6000, 3, 2, 72, 1},
    {3, 4, 6000, 12, 2, 104, 1},
};

TEST(SelfCheckGolden, EveryFaultTimeoutAndSlotMatchesThePinnedTable) {
  const ModuleFaultMode module_faults[] = {ModuleFaultMode::kNone, ModuleFaultMode::kNoProgress,
                                           ModuleFaultMode::kFalseAlarm,
                                           ModuleFaultMode::kFalseNegative};
  const IoqStuckFault ioq_faults[] = {IoqStuckFault::kNone, IoqStuckFault::kCheckValidStuck0,
                                      IoqStuckFault::kCheckValidStuck1,
                                      IoqStuckFault::kCheckStuck0, IoqStuckFault::kCheckStuck1};
  const Cycle timeouts[] = {150, 1200, 6000};
  const u32 slots[] = {3, 12};
  std::vector<std::string> got;
  for (ModuleFaultMode mf : module_faults) {
    for (IoqStuckFault iof : ioq_faults) {
      for (Cycle timeout : timeouts) {
        for (u32 slot : slots) got.push_back(row_text(run_golden(mf, iof, timeout, slot)));
      }
    }
  }
  std::vector<std::string> want;
  for (const auto& row : kGolden) {
    want.push_back(row_text({static_cast<ModuleFaultMode>(row[0]),
                             static_cast<IoqStuckFault>(row[1]), static_cast<Cycle>(row[2]),
                             static_cast<u32>(row[3]), static_cast<SelfCheckVerdict>(row[4]),
                             static_cast<Cycle>(row[5]), row[6] != 0}));
  }
  std::string listing;
  for (const std::string& row : got) listing += "    " + row + ",\n";
  EXPECT_EQ(got, want) << "measured table:\n" << listing;
}

TEST(SelfCheckGolden, RestoredPendingCheckTimesOutLikeTheUninterruptedRun) {
  // A no-progress ICM leaves a blocking CHECK waiting; a snapshot taken
  // mid-wait and restored into another machine must trip the watchdog at
  // the same cycle as the run that was never interrupted.
  constexpr Cycle kTimeout = 2000;
  const isa::Program program = isa::assemble(kCheckedLoop);
  auto start = [&](os::Machine& machine, os::GuestOs& guest) {
    guest.load(program);
    machine.icm()->inject_fault(ModuleFaultMode::kNoProgress);
  };

  os::Machine reference_machine(golden_machine(kTimeout));
  os::GuestOs reference(reference_machine, golden_os());
  start(reference_machine, reference);
  reference.run();
  const Framework& ref_fw = *reference_machine.framework();
  ASSERT_EQ(ref_fw.verdict(), SelfCheckVerdict::kNoProgress);

  os::Machine captured_machine(golden_machine(kTimeout));
  os::GuestOs captured(captured_machine, golden_os());
  start(captured_machine, captured);
  const Ioq& ioq = captured_machine.framework()->ioq();
  auto oldest_pending = [&]() -> const Ioq::Entry* {
    const Ioq::Entry* oldest = nullptr;
    for (u32 slot = 0; slot < ioq.size(); ++slot) {
      const Ioq::Entry& e = ioq.entry(slot);
      if (e.allocated && e.pending_check && !e.check_valid &&
          (oldest == nullptr || e.allocated_at < oldest->allocated_at)) {
        oldest = &e;
      }
    }
    return oldest;
  };
  while (!captured.finished() && oldest_pending() == nullptr) captured.step();
  ASSERT_NE(oldest_pending(), nullptr);
  const Cycle wait_from = oldest_pending()->allocated_at;
  while (!captured.finished() &&
         (captured_machine.now() < wait_from + kTimeout / 2 ||
          !os::MachineSnapshot::quiescent(captured_machine))) {
    captured.step();
  }
  ASSERT_FALSE(captured_machine.framework()->safe_mode());
  ASSERT_NE(oldest_pending(), nullptr);
  const os::MachineSnapshot snapshot = os::MachineSnapshot::capture(captured_machine, captured);

  // The target has run a few cycles of its own, so its derived self-check
  // state is stale and only the restore can make it right.
  os::Machine restored_machine(golden_machine(kTimeout));
  os::GuestOs restored(restored_machine, golden_os());
  start(restored_machine, restored);
  while (restored_machine.now() < 20) restored.step();
  os::MachineSnapshot::restore(snapshot, restored_machine, restored);
  restored.run();
  const Framework& fw = *restored_machine.framework();
  EXPECT_GT(fw.stats().selfcheck_trip_cycle, snapshot.at);
  EXPECT_EQ(fw.verdict(), SelfCheckVerdict::kNoProgress);
  EXPECT_EQ(fw.stats().selfcheck_trip_cycle, ref_fw.stats().selfcheck_trip_cycle);
  EXPECT_EQ(restored_machine.now(), reference_machine.now());
  EXPECT_EQ(restored.output(), reference.output());
}

}  // namespace
}  // namespace rse::engine
