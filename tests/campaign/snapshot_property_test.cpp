// Whole-machine snapshot/restore property harness (docs/campaigns.md).
//
// For randomized guest programs, the suite proves the os::MachineSnapshot
// round trip is bit-exact in both directions:
//  - capture is non-perturbing: the captured machine, run on to completion,
//    finishes identically to an uninterrupted reference run;
//  - restore is exact: a fresh machine/guest pair restored from the
//    snapshot matches the captured machine's register file, PC, cycle, and
//    memory image immediately, and — run to completion — finishes
//    bit-identically to the reference (registers, memory digest, output,
//    exit code, instruction counts, module statistics).
// Snapshot points sweep the reference run's cycle buckets, and the
// campaign-level test pins the checkpoint-fork digest with --fast-forward
// both off (exact chain) and on (transplanted chain).
#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <cstring>
#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "isa/assembler.hpp"
#include "os/guest_os.hpp"
#include "os/machine.hpp"
#include "os/snapshot.hpp"
#include "workloads/workloads.hpp"
#include "../support/random_program.hpp"

using namespace rse;

namespace {

constexpr Cycle kRunLimit = 400'000;

struct HarnessConfig {
  rse::testing::RandomProgramOptions program;  // qualified: ::testing is gtest's
  bool framework = false;
  std::vector<isa::ModuleId> enables;

  os::OsConfig os_config() const {
    os::OsConfig config;
    config.run_limit = kRunLimit;
    return config;
  }
};

/// Everything the end of a run determines.  Two bit-identical executions
/// must agree on every field.
struct FinalState {
  Cycle cycles = 0;
  std::array<Word, isa::kNumRegs> regs{};
  Addr pc = 0;
  u64 memory_digest = 0;
  std::string output;
  int exit_code = 0;
  bool finished = false;
  cpu::CoreStats core{};
  modules::IcmStats icm{};
  modules::CfcStats cfc{};
};

os::Machine make_machine(const HarnessConfig& config) {
  os::MachineConfig mc;
  mc.framework_present = config.framework;
  return os::Machine(mc);
}

void step_until_done(os::Machine& machine, os::GuestOs& guest, Cycle limit) {
  while (!guest.finished() && machine.now() < limit) guest.step();
}

FinalState observe(os::Machine& machine, os::GuestOs& guest) {
  FinalState state;
  state.cycles = machine.now();
  for (unsigned r = 0; r < isa::kNumRegs; ++r) state.regs[r] = machine.core().reg(static_cast<u8>(r));
  state.pc = machine.core().pc();
  state.memory_digest = os::MachineSnapshot::memory_digest(machine.memory());
  state.output = guest.output();
  state.exit_code = guest.exit_code();
  state.finished = guest.finished();
  state.core = machine.core().stats();
  if (machine.icm() != nullptr) state.icm = machine.icm()->stats();
  if (machine.cfc() != nullptr) state.cfc = machine.cfc()->stats();
  return state;
}

void expect_identical(const FinalState& a, const FinalState& b, const std::string& what) {
  EXPECT_EQ(a.cycles, b.cycles) << what;
  EXPECT_EQ(a.regs, b.regs) << what;
  EXPECT_EQ(a.pc, b.pc) << what;
  EXPECT_EQ(a.memory_digest, b.memory_digest) << what;
  EXPECT_EQ(a.output, b.output) << what;
  EXPECT_EQ(a.exit_code, b.exit_code) << what;
  EXPECT_EQ(a.finished, b.finished) << what;
  // The stats structs are all-u64 aggregates, so memcmp equality is exact
  // field equality without naming every counter.
  EXPECT_EQ(0, std::memcmp(&a.core, &b.core, sizeof(a.core))) << what << " (core stats)";
  EXPECT_EQ(0, std::memcmp(&a.icm, &b.icm, sizeof(a.icm))) << what << " (icm stats)";
  EXPECT_EQ(0, std::memcmp(&a.cfc, &b.cfc, sizeof(a.cfc))) << what << " (cfc stats)";
}

/// One snapshot round trip at roughly `fraction` of the reference run.
void check_round_trip(const HarnessConfig& config, const isa::Program& program,
                      const FinalState& reference, double fraction, const std::string& what) {
  const Cycle point = static_cast<Cycle>(static_cast<double>(reference.cycles) * fraction);

  os::Machine captured_machine = make_machine(config);
  os::GuestOs captured(captured_machine, config.os_config());
  captured.load(program);
  for (isa::ModuleId id : config.enables) captured.enable_module(id);
  while (!captured.finished() && captured_machine.now() < point) captured.step();
  while (!captured.finished() && captured_machine.now() < kRunLimit &&
         !os::MachineSnapshot::quiescent(captured_machine)) {
    captured.step();
  }
  if (captured.finished()) return;  // bucket past the end of this program
  ASSERT_TRUE(os::MachineSnapshot::quiescent(captured_machine)) << what;
  const os::MachineSnapshot snapshot = os::MachineSnapshot::capture(captured_machine, captured);
  const FinalState at_capture = observe(captured_machine, captured);

  // Restore into a fresh pair and compare the immediate state.
  os::Machine restored_machine = make_machine(config);
  os::GuestOs restored(restored_machine, config.os_config());
  restored.load(program);
  for (isa::ModuleId id : config.enables) restored.enable_module(id);
  os::MachineSnapshot::restore(snapshot, restored_machine, restored);
  expect_identical(at_capture, observe(restored_machine, restored), what + " at capture point");

  // Both the captured machine (capture must not perturb) and the restored
  // one must finish exactly like the uninterrupted reference.
  step_until_done(captured_machine, captured, kRunLimit);
  step_until_done(restored_machine, restored, kRunLimit);
  expect_identical(reference, observe(captured_machine, captured), what + " captured-run end");
  expect_identical(reference, observe(restored_machine, restored), what + " restored-run end");
}

void run_property_suite(const HarnessConfig& config, unsigned programs, u64 seed_base) {
  unsigned snapshotted = 0;
  for (unsigned i = 0; i < programs; ++i) {
    const u64 seed = seed_base + i;
    const std::string source = rse::testing::generate_random_program(seed, config.program);
    const isa::Program program = isa::assemble(source);

    os::Machine ref_machine = make_machine(config);
    os::GuestOs ref_guest(ref_machine, config.os_config());
    ref_guest.load(program);
    for (isa::ModuleId id : config.enables) ref_guest.enable_module(id);
    step_until_done(ref_machine, ref_guest, kRunLimit);
    ASSERT_TRUE(ref_guest.finished()) << "random program " << seed << " hit the run limit";
    const FinalState reference = observe(ref_machine, ref_guest);

    // Sweep the snapshot point across cycle buckets: each seed exercises a
    // different quarter, and a handful of seeds exercise all three.
    std::vector<double> fractions{0.25 * static_cast<double>(1 + (i % 3))};
    if (i < 4) fractions = {0.25, 0.5, 0.75};
    for (double fraction : fractions) {
      check_round_trip(config, program, reference, fraction,
                       "seed " + std::to_string(seed) + " @" + std::to_string(fraction));
      ++snapshotted;
    }
  }
  // The sweep must actually test something: nearly every program is long
  // enough to snapshot mid-run.
  EXPECT_GE(snapshotted, programs);
}

TEST(SnapshotPropertyTest, PlainCoreRoundTripsBitExactly) {
  HarnessConfig config;
  config.program.with_memory = true;
  config.program.with_loops = true;
  run_property_suite(config, 50, 1000);
}

TEST(SnapshotPropertyTest, FrameworkAndModulesRoundTripBitExactly) {
  HarnessConfig config;
  config.framework = true;
  config.enables = {isa::ModuleId::kIcm, isa::ModuleId::kCfc};
  config.program.with_memory = true;
  config.program.with_loops = true;
  config.program.with_calls = true;
  run_property_suite(config, 50, 2000);
}

TEST(SnapshotPropertyTest, MidRunOutputRoundTripsBitExactly) {
  HarnessConfig config;
  config.framework = true;
  config.enables = {isa::ModuleId::kIcm};
  config.program.with_memory = true;
  config.program.print_progress = true;
  run_property_suite(config, 50, 3000);
}

// Campaign-level pin: checkpoint-fork must not move the deterministic
// digest, across bucket counts.
TEST(SnapshotPropertyTest, CheckpointForkDigestInvariantAcrossBuckets) {
  campaign::GoldenCache cache;
  campaign::CampaignRunner runner(&cache);
  campaign::CampaignSpec spec;
  spec.workload = "loop";
  spec.runs = 32;
  spec.seed = 11;
  spec.jobs = 2;
  const std::string baseline = campaign::deterministic_digest(runner.run(spec));

  for (const u32 buckets : {1u, 4u, 8u, 13u}) {
    campaign::CampaignSpec fork_spec = spec;
    fork_spec.snapshot_fork = true;
    fork_spec.snapshot_buckets = buckets;
    EXPECT_EQ(baseline, campaign::deterministic_digest(runner.run(fork_spec)))
        << "buckets=" << buckets;
  }
}

// ---- archive determinism --------------------------------------------------
//
// Two identically configured machines with identical histories must
// serialize byte-identical archives: the archive is a pure function of the
// value state, so no padding byte or stale buffer may leak into it.

struct TwinSetup {
  os::MachineConfig machine;
  std::string source;
  std::optional<os::NetworkConfig> network;
};

struct Twin {
  os::Machine machine;
  os::GuestOs guest;
  explicit Twin(const TwinSetup& setup, const isa::Program& program)
      : machine(setup.machine), guest(machine) {
    if (setup.network) guest.network().configure(*setup.network);
    guest.load(program);
  }
};

void expect_twins_capture_identical_bytes(const TwinSetup& setup, Cycle run_to) {
  const isa::Program program = isa::assemble(setup.source);
  Twin a(setup, program);
  Twin b(setup, program);
  auto first_difference = [](const std::vector<u8>& x, const std::vector<u8>& y) {
    std::size_t i = 0;
    while (i < x.size() && i < y.size() && x[i] == y[i]) ++i;
    return i;
  };
  {
    const auto snap_a = os::MachineSnapshot::capture(a.machine, a.guest);
    const auto snap_b = os::MachineSnapshot::capture(b.machine, b.guest);
    ASSERT_EQ(snap_a.bytes.size(), snap_b.bytes.size());
    EXPECT_TRUE(snap_a.bytes == snap_b.bytes)
        << "freshly loaded archives first differ at byte "
        << first_difference(snap_a.bytes, snap_b.bytes);
  }
  // Run both to the same quiescent mid-run point and capture again.
  for (Twin* t : {&a, &b}) {
    while (!t->guest.finished() && (t->machine.now() < run_to ||
                                    !os::MachineSnapshot::quiescent(t->machine))) {
      t->guest.step();
    }
  }
  ASSERT_EQ(a.machine.now(), b.machine.now());
  ASSERT_FALSE(a.guest.finished()) << "run_to lies past the end of the program";
  const auto snap_a = os::MachineSnapshot::capture(a.machine, a.guest);
  const auto snap_b = os::MachineSnapshot::capture(b.machine, b.guest);
  ASSERT_EQ(snap_a.bytes.size(), snap_b.bytes.size());
  EXPECT_TRUE(snap_a.bytes == snap_b.bytes)
      << "mid-run archives first differ at byte " << first_difference(snap_a.bytes, snap_b.bytes);
}

TEST(SnapshotDeterminism, FrameworkAndIcmTwinsCaptureIdenticalArchives) {
  workloads::PlaceParams params;
  params.temps = 2;
  params.moves_per_temp = 400;
  TwinSetup setup;
  setup.machine.framework_present = true;
  setup.source = workloads::instrument_checks(workloads::vpr_place_source(params));
  expect_twins_capture_identical_bytes(setup, 40'000);
}

TEST(SnapshotDeterminism, DdtServerTwinsCaptureIdenticalArchives) {
  workloads::ServerParams params;
  params.threads = 4;
  params.compute_iters = 200;
  params.enable_ddt = true;
  TwinSetup setup;
  setup.machine.framework_present = true;
  setup.source = workloads::server_source(params);
  os::NetworkConfig net;
  net.total_requests = 12;
  net.interarrival = 1200;
  net.io_latency_mean = 6000;
  net.seed = 7;
  setup.network = net;
  expect_twins_capture_identical_bytes(setup, 30'000);
}

}  // namespace
