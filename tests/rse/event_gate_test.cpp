// Enable boundaries of the framework's event gate.  Events of a kind that
// no enabled module handles are held aside instead of queued; a module
// enabled before such an event's delivery cycle must still receive it, in
// its place in the event order.  Each test enables a module while events
// are in flight — by a framework CHECK, by Module::set_enabled between
// cycles, and by GuestOs::enable_module between steps — and compares what
// the module saw with figures pinned from the ungated framework.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "../support/random_program.hpp"
#include "../support/sim_runner.hpp"
#include "cpu/core.hpp"
#include "isa/assembler.hpp"
#include "mem/cache.hpp"
#include "rse/framework.hpp"

namespace rse::engine {
namespace {

/// Folds every dispatch and commit it is handed (kind, sequence number, PC,
/// delivery cycle) into an FNV-1a digest.
class CountingModule : public Module {
 public:
  using Module::Module;
  isa::ModuleId id() const override { return isa::ModuleId::kCfc; }
  const char* name() const override { return "counting"; }
  HandlerSet handlers() const override { return kHandleDispatch | kHandleCommit; }

  void on_dispatch(const DispatchInfo& info, Cycle now) override {
    ++dispatches;
    record(1, info.tag.seq, info.pc, now);
  }
  void on_commit(const CommitInfo& info, Cycle now) override {
    ++commits;
    record(2, info.tag.seq, info.pc, now);
  }

  u64 dispatches = 0;
  u64 commits = 0;
  u64 digest = 14695981039346656037ull;

 private:
  void record(u64 kind, u64 seq, Addr pc, Cycle now) {
    for (u64 word : {kind, seq, static_cast<u64>(pc), static_cast<u64>(now)}) {
      digest = (digest ^ word) * 1099511628211ull;
    }
  }
};

/// Core + framework with the counting module registered but disabled, the
/// only module handling dispatch and commit; `enable_after` enables it after
/// the framework tick of that cycle (0: never from outside).
struct Seen {
  u64 dispatches = 0;
  u64 commits = 0;
  u64 digest = 0;
  Cycle cycles = 0;
};

class GateRig : public cpu::OsClient {
 public:
  GateRig() {
    auto module = std::make_unique<CountingModule>(fw_);
    counting_ = module.get();
    fw_.add_module(std::move(module));
    core_ = std::make_unique<cpu::Core>(cpu::CoreConfig{}, memory_, il1_, dl1_);
    core_->attach_framework(&fw_);
    core_->set_os(this);
  }

  Seen run(const std::string& source, Cycle enable_after) {
    const isa::Program program = isa::assemble(source);
    for (std::size_t i = 0; i < program.text.size(); ++i) {
      memory_.write_u32(program.text_base + static_cast<Addr>(i * 4), program.text[i]);
    }
    if (!program.data.empty()) {
      memory_.write_block(program.data_base, program.data.data(),
                          static_cast<u32>(program.data.size()));
    }
    cpu::ThreadContext context;
    context.pc = program.entry;
    context.regs[isa::kSp] = 0x7FFE0000;
    core_->set_context(context, 0);
    core_->resume();
    Cycle now = 0;
    while (++now <= 20000 && !exited_) {
      core_->cycle(now);
      fw_.tick(now);
      if (now == enable_after) counting_->set_enabled(true);
    }
    EXPECT_TRUE(exited_) << "program did not finish";
    const Cycle end = now;
    for (int k = 0; k < 4; ++k) fw_.tick(++now);
    return Seen{counting_->dispatches, counting_->commits, counting_->digest, end};
  }

  // OsClient: syscall == exit.
  SyscallResult on_syscall(Cycle) override {
    exited_ = true;
    return SyscallResult{0, true};
  }
  bool on_check_error(Cycle, Addr, isa::ModuleId) override { return true; }
  void on_illegal(Cycle, Addr) override { exited_ = true; }

 private:
  mem::MainMemory memory_;
  mem::BusArbiter bus_{mem::BusTiming{19, 3, 8}};
  mem::BusMemory port_{bus_, mem::BusSource::kPipeline};
  mem::Cache il1_{mem::CacheConfig{"il1", 8192, 1, 32, 1}, port_};
  mem::Cache dl1_{mem::CacheConfig{"dl1", 8192, 1, 32, 1}, port_};
  Framework fw_{memory_, bus_, 16};
  CountingModule* counting_ = nullptr;
  std::unique_ptr<cpu::Core> core_;
  bool exited_ = false;
};

// Two store/load loops; the framework CHECK between them enables the
// counting module (module 5) while the instructions just before it are
// still in the pipeline.
const char* const kLoops = R"(
.data
.align 4
buf: .space 64
.text
main:
  la t0, buf
  li t1, 0
  li t2, 12
first:
  sw t1, 0(t0)
  lw t3, 0(t0)
  addi t1, t1, 1
  blt t1, t2, first
  lw t6, 0(t0)
  addi t6, t6, 1
  sw t6, 8(t0)
  chk framework, 1, nblk, zero, 5
  li t1, 0
second:
  sw t1, 4(t0)
  lw t3, 4(t0)
  add t4, t4, t3
  addi t1, t1, 1
  blt t1, t2, second
  syscall
)";

TEST(EventGate, ModuleEnabledByAFrameworkCheckSeesEveryEventItWouldBeQueued) {
  GateRig rig;
  const Seen seen = rig.run(kLoops, 0);
  EXPECT_EQ(seen.dispatches, 70u);
  EXPECT_EQ(seen.commits, 66u);
  EXPECT_EQ(seen.digest, 12693563129073552038ull);
}

TEST(EventGate, ModuleEnabledBetweenCyclesSeesTheEventsStillInFlight) {
  // Without the CHECK, the module stays off until set_enabled; sweeping the
  // enable cycle over the whole run puts every pipeline state at the
  // boundary.
  std::string source = kLoops;
  const std::size_t chk = source.find("chk framework");
  source.replace(chk, source.find('\n', chk) - chk, "nop");
  u64 dispatches = 0;
  u64 commits = 0;
  u64 digest = 0;
  const Cycle cycles = GateRig().run(source, 0).cycles;
  for (Cycle enable_after = 1; enable_after < cycles; ++enable_after) {
    const Seen seen = GateRig().run(source, enable_after);
    dispatches += seen.dispatches;
    commits += seen.commits;
    digest = (digest ^ seen.digest) * 1099511628211ull;
  }
  EXPECT_EQ(cycles, 153u);
  EXPECT_EQ(dispatches, 11383u);
  EXPECT_EQ(commits, 10838u);
  EXPECT_EQ(digest, 18320607759375988115ull);
}

TEST(EventGate, ModulesEnabledByTheGuestOsBetweenStepsSeeTheEventsStillInFlight) {
  // The machine registers every shipped module; the DDT (dispatch, commit
  // and store-commit handlers) and the CFC (commit only) start disabled and
  // are enabled through GuestOs::enable_module at a swept step.
  rse::testing::RandomProgramOptions options;
  options.with_memory = true;
  options.with_loops = true;
  const std::string source = rse::testing::generate_random_program(21, options);
  os::MachineConfig config;
  config.framework_present = true;
  u64 ddt_loads = 0;
  u64 ddt_stores = 0;
  u64 cfc_checked = 0;
  for (Cycle enable_at = 1; enable_at <= 700; enable_at += 11) {
    for (isa::ModuleId id : {isa::ModuleId::kDdt, isa::ModuleId::kCfc}) {
      rse::testing::SimRunner runner(config);
      runner.load_source(source);
      while (!runner.os().finished() && runner.machine().now() < enable_at) runner.os().step();
      runner.os().enable_module(id);
      runner.run();
      ASSERT_TRUE(runner.os().finished());
      ddt_loads += runner.machine().ddt()->stats().tracked_loads;
      ddt_stores += runner.machine().ddt()->stats().tracked_stores;
      cfc_checked += runner.machine().cfc()->stats().transitions_checked;
    }
  }
  EXPECT_EQ(ddt_loads, 49u);
  EXPECT_EQ(ddt_stores, 726u);
  EXPECT_EQ(cfc_checked, 1295u);
}

}  // namespace
}  // namespace rse::engine
