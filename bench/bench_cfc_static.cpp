// Static-CFC detection study: the same next-PC-latch fault sweep run twice,
// once against the CFC's range-check baseline ("a control transfer must land
// in text") and once with the CFG-derived legal-successor table installed at
// load (docs/analysis.md).  Direct branches and jumps are fully checked
// either way; the gap is indirect control flow — a corrupted `jr $ra` return
// target that stays inside the text segment passes the range check but
// misses the statically inferred return-site set.
//
// For every inject cycle the sweep reports both outcomes plus the detection
// latency (cycles from injection to the end of the run) of detected faults.
#include <iostream>
#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "report/table.hpp"

using namespace rse;

namespace {

/// One CFC mode's fault-applied runs; campaign::aggregate does the tally.
struct ModeRuns {
  std::vector<campaign::RunResult> applied;

  void add(const campaign::RunResult& result) {
    if (result.fault_applied) applied.push_back(result);
  }
  campaign::CampaignReport report() const {
    return campaign::aggregate(campaign::CampaignSpec{}, 0, 0, applied, 0.0);
  }
};

u32 count(const campaign::CampaignReport& r, campaign::Outcome outcome) {
  return r.by_outcome[static_cast<unsigned>(outcome)];
}

double coverage_pct(const campaign::CampaignReport& r) {
  return r.unmasked() > 0
             ? 100.0 * static_cast<double>(r.detected()) / static_cast<double>(r.unmasked())
             : 0.0;
}

/// Mean cycles from injection to the end of the run over CFC detections.
double mean_latency(const campaign::CampaignReport& r) {
  u64 sum = 0;
  for (const campaign::RunResult& result : r.results) {
    if (result.outcome != campaign::Outcome::kDetectedCfc) continue;
    const Cycle inject = result.record.inject_cycle;
    sum += result.cycles > inject ? result.cycles - inject : 0;
  }
  const u32 n = count(r, campaign::Outcome::kDetectedCfc);
  return n > 0 ? static_cast<double>(sum) / n : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string workload = argc > 1 ? argv[1] : "calls";
  const Cycle stride = argc > 2 ? std::stoull(argv[2]) : 16;

  campaign::CampaignRunner runner;
  campaign::WorkloadSetup base = campaign::make_workload(workload);
  campaign::WorkloadSetup tight = base;
  tight.os.static_cfc = true;

  const auto golden_base = runner.cache().get(base);
  const auto golden_tight = runner.cache().get(tight);
  if (golden_base->cycles != golden_tight->cycles) {
    std::cerr << "golden runs diverge between CFC modes\n";
    return 1;
  }

  // One-shot corruption of the next-PC latch: the first control-flow
  // instruction to commit after inject_cycle lands mask bytes off target.
  // The small mask keeps the bogus landing inside text — the case a range
  // check cannot see.
  campaign::InjectionRecord record;
  record.target = campaign::InjectTarget::kRegisterBit;
  record.reg = campaign::kPcPseudoReg;
  record.mask = 0x8;

  ModeRuns range_runs, table_runs;
  u32 gap = 0;  // faults only the static table caught
  for (Cycle cycle = 20; cycle + 20 < golden_base->cycles; cycle += stride) {
    record.inject_cycle = cycle;
    const campaign::RunResult rb = runner.run_one(base, *golden_base, record);
    const campaign::RunResult rt = runner.run_one(tight, *golden_tight, record);
    range_runs.add(rb);
    table_runs.add(rt);
    if (rt.outcome == campaign::Outcome::kDetectedCfc &&
        rb.outcome != campaign::Outcome::kDetectedCfc) {
      ++gap;
    }
  }

  std::cout << "static-CFC detection study: workload=" << workload
            << " golden_cycles=" << golden_base->cycles << " mask=0x" << std::hex
            << record.mask << std::dec << " stride=" << stride << "\n";

  report::Table table({"cfc mode", "injected", "det cfc", "det other", "sdc", "masked",
                       "crash/hang", "coverage %", "mean latency"});
  using campaign::Outcome;
  const auto row = [&](const char* name, const campaign::CampaignReport& r) {
    const u32 cfc = count(r, Outcome::kDetectedCfc);
    table.row({name, std::to_string(r.results.size()), std::to_string(cfc),
               std::to_string(r.detected() - cfc), std::to_string(count(r, Outcome::kSdc)),
               std::to_string(count(r, Outcome::kMasked)),
               std::to_string(count(r, Outcome::kCrash) + count(r, Outcome::kHang)),
               report::fmt_fixed(coverage_pct(r), 1), report::fmt_fixed(mean_latency(r), 1)});
  };
  const campaign::CampaignReport range = range_runs.report();
  const campaign::CampaignReport table_mode = table_runs.report();
  row("range-check", range);
  row("static-table", table_mode);
  table.print();
  std::cout << "faults only the static table detected: " << gap << "\n";

  if (count(table_mode, Outcome::kDetectedCfc) <= count(range, Outcome::kDetectedCfc) ||
      gap == 0) {
    std::cerr << "static successor table failed to improve on the range check\n";
    return 1;
  }
  return 0;
}
