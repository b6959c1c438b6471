// Microbenchmarks of the simulator's hot paths (google-benchmark): cache
// lookups, DDM operations, assembly, and whole-machine cycle throughput.
#include <benchmark/benchmark.h>

#include <string>

#include "isa/assembler.hpp"
#include "mem/cache.hpp"
#include "modules/ddt/ddt.hpp"
#include "os/guest_os.hpp"
#include "os/machine.hpp"
#include "workloads/workloads.hpp"

using namespace rse;

namespace {

class NullLevel : public mem::MemLevel {
 public:
  Cycle access(Cycle now, Addr, u32, bool) override { return now + 30; }
};

void BM_CacheHit(benchmark::State& state) {
  NullLevel next;
  mem::Cache cache({"bm", 8 * 1024, 1, 32, 1}, next);
  cache.access(0, 0x100, 4, false);
  Cycle now = 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(now++, 0x100, 4, false));
  }
}
BENCHMARK(BM_CacheHit);

void BM_CacheMissWithEviction(benchmark::State& state) {
  NullLevel next;
  mem::Cache cache({"bm", 8 * 1024, 2, 32, 1}, next);
  Cycle now = 0;
  Addr addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(++now, addr, 4, true));
    addr += 8 * 1024;  // always the same set, always evicting dirty lines
  }
}
BENCHMARK(BM_CacheMissWithEviction);

void BM_DdtStoreCommit(benchmark::State& state) {
  mem::MainMemory memory;
  mem::BusArbiter bus{mem::BusTiming{19, 3, 8}};
  engine::Framework fw{memory, bus, 16};
  modules::DdtModule ddt(fw);
  ddt.set_enabled(true);
  ddt.set_save_page_handler([](u32, ThreadId, Cycle) { return Cycle{0}; });
  engine::CommitInfo info;
  info.instr.op = isa::Op::kSw;
  ThreadId thread = 0;
  Addr addr = 0x1000;
  for (auto _ : state) {
    info.thread = thread;
    info.eff_addr = addr;
    benchmark::DoNotOptimize(ddt.on_store_commit(info, 0));
    thread = (thread + 1) % 8;  // ownership ping-pong: worst case
    addr = 0x1000 + (addr + 4096) % (64 * 4096);
  }
}
BENCHMARK(BM_DdtStoreCommit);

void BM_DependentClosure(benchmark::State& state) {
  mem::MainMemory memory;
  mem::BusArbiter bus{mem::BusTiming{19, 3, 8}};
  engine::Framework fw{memory, bus, 16};
  modules::DdtModule ddt(fw);
  ddt.set_enabled(true);
  ddt.set_save_page_handler([](u32, ThreadId, Cycle) { return Cycle{0}; });
  // chain 0->1->2->...->31
  for (ThreadId t = 0; t + 1 < 32; ++t) {
    engine::CommitInfo store;
    store.instr.op = isa::Op::kSw;
    store.thread = t;
    store.eff_addr = 0x1000u * (t + 1);
    ddt.on_store_commit(store, 0);
    engine::CommitInfo load;
    load.instr.op = isa::Op::kLw;
    load.thread = t + 1;
    load.eff_addr = 0x1000u * (t + 1);
    ddt.on_commit(load, 0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ddt.dependent_closure(0));
  }
}
BENCHMARK(BM_DependentClosure);

void BM_Assemble(benchmark::State& state) {
  workloads::KMeansParams params;
  params.patterns = 50;
  const std::string source = workloads::kmeans_source(params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(isa::assemble(source));
  }
}
BENCHMARK(BM_Assemble);

void BM_MachineCycleThroughput(benchmark::State& state) {
  // Whole-machine simulation speed in guest cycles per host second.
  // Arg 0: framework absent.  Arg 1: framework present, no module enabled.
  // Arg 2: framework present and the loop CHECK-instrumented, so the ICM
  // checks every branch (Table 4's framework+ICM configuration).
  os::MachineConfig config;
  config.framework_present = state.range(0) != 0;
  os::Machine machine(config);
  os::GuestOs guest(machine);
  std::string source = R"(
.text
main:
spin:
  addi t0, t0, 1
  addi t1, t1, 2
  add t2, t0, t1
  b spin
)";
  if (state.range(0) == 2) source = workloads::instrument_checks(source);
  guest.load(isa::assemble(source));
  for (auto _ : state) {
    guest.step();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  if (machine.icm() != nullptr) {
    state.counters["icm_checks"] = static_cast<double>(machine.icm()->stats().checks_completed);
  }
}
BENCHMARK(BM_MachineCycleThroughput)->Arg(0)->Arg(1)->Arg(2);

}  // namespace

BENCHMARK_MAIN();
