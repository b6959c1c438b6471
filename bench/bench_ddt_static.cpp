// Static-DDT detection study: a register/data-word fault sweep run twice,
// once with the dynamic-only DDT (page ownership tracking, no prediction)
// and once with the static data-flow footprint installed at load
// (docs/analysis.md).  The dynamic DDT tracks whatever pages the program
// touches — it cannot tell a legitimate page from one reached through a
// corrupted base register.  The footprint check can: a committed access at
// a statically resolved site landing outside the predicted page set is a
// detection the baseline has no mechanism for.
//
// The sweep also quantifies the activation benefit: the fraction of first
// store touches that found their PST entry pre-reserved (SavePage setup
// work paid at load instead of in the middle of the run) — and the
// context-sensitivity gain: a third mode runs the footprint at
// --context-depth 0, so "static-footprint minus static-ctx0" counts the
// detections only the per-call-site page tables provide — and the
// field-sensitivity gain: a fourth mode runs the dense-hull domain
// (--no-field-sensitive), so "static-footprint minus static-field-off"
// counts the detections only the strided residue pages provide (a fault
// landing between the residues of a strided walk is inside the hull).
// (usage: bench_ddt_static [workload] [samples] [--expect-context-gain]
//         [--expect-field-gain]).
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "isa/assembler.hpp"
#include "os/guest_os.hpp"
#include "os/machine.hpp"
#include "report/csv.hpp"
#include "report/table.hpp"

using namespace rse;

namespace {

/// One DDT mode's fault-applied runs; campaign::aggregate does the tally.
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

/// Fault-free run with the footprint installed: pre-reservation hit rate.
/// Returns the number of PST entries reserved at load (the footprint's
/// predicted store-page count — smaller is tighter).
u32 report_prereservation(const campaign::WorkloadSetup& setup, const char* label) {
  os::OsConfig os_config = setup.os;
  os_config.static_ddt = true;
  os::Machine machine(setup.machine);
  os::GuestOs guest(machine, os_config);
  guest.load(isa::assemble(setup.source));
  for (isa::ModuleId id : setup.host_enables) guest.enable_module(id);
  guest.run();
  const auto& stats = machine.ddt()->stats();
  const double hit_rate = stats.pst_prereserved > 0
                              ? 100.0 * static_cast<double>(stats.prereserve_hits) /
                                    static_cast<double>(stats.pst_prereserved)
                              : 0.0;
  std::cout << "PST pre-reservation (" << label << "): " << stats.pst_prereserved
            << " reserved at load, " << stats.prereserve_hits << " first-touch hits ("
            << report::fmt_fixed(hit_rate, 1) << "% of reservations used), "
            << stats.footprint_checks << " accesses checked, "
            << stats.footprint_violations << " violations (clean run)\n";
  return stats.pst_prereserved;
}

}  // namespace

int main(int argc, char** argv) {
  // kmeans is the showcase: single-threaded (a register fault is never
  // masked by a context-switch restore) with statically resolved store
  // kernels the corrupted base registers feed into.  The args workload is
  // the context-sensitivity showcase: its callee accesses only resolve
  // under --context-depth > 0, so the depth-0 sweep cannot check them.
  const std::string workload = argc > 1 ? argv[1] : "kmeans";
  const u32 samples = argc > 2 ? static_cast<u32>(std::stoul(argv[2])) : 96;
  bool expect_context_gain = false;
  bool expect_field_gain = false;
  for (int i = 3; i < argc; ++i) {
    if (std::string(argv[i]) == "--expect-context-gain") expect_context_gain = true;
    if (std::string(argv[i]) == "--expect-field-gain") expect_field_gain = true;
  }

  campaign::CampaignRunner runner;
  campaign::WorkloadSetup base = campaign::make_workload(workload);
  if (std::find(base.host_enables.begin(), base.host_enables.end(), isa::ModuleId::kDdt) ==
      base.host_enables.end()) {
    base.host_enables.push_back(isa::ModuleId::kDdt);  // dynamic-only baseline
  }
  campaign::WorkloadSetup ctx0 = base;
  ctx0.os.static_ddt = true;
  ctx0.os.context_depth = 0;  // context-insensitive footprint
  campaign::WorkloadSetup field_off = base;
  field_off.os.static_ddt = true;
  field_off.os.field_sensitive = false;  // dense interval hulls
  campaign::WorkloadSetup tight = base;
  tight.os.static_ddt = true;  // default context depth, field-sensitive

  const auto golden_base = runner.cache().get(base);
  const auto golden_ctx0 = runner.cache().get(ctx0);
  const auto golden_field = runner.cache().get(field_off);
  const auto golden_tight = runner.cache().get(tight);
  if (golden_base->cycles != golden_tight->cycles ||
      golden_base->cycles != golden_ctx0->cycles ||
      golden_base->cycles != golden_field->cycles) {
    std::cerr << "golden runs diverge between DDT modes\n";
    return 1;
  }
  if (golden_tight->ddt_footprint_violations != 0 ||
      golden_ctx0->ddt_footprint_violations != 0 ||
      golden_field->ddt_footprint_violations != 0) {
    std::cerr << "static footprint false-positives on the fault-free run\n";
    return 1;
  }

  const u32 prereserved_field_off = report_prereservation(field_off, "field-off");
  const u32 prereserved_tight = report_prereservation(tight, "field-on");

  // Register faults rotate through the working registers (r8..r23) flipping
  // a page-significant bit — the corrupted base sends the next resolved
  // store pages off target.  Data faults flip one bit of a data word.
  const Cycle stride = std::max<Cycle>(1, (golden_base->cycles - 40) / samples);
  ModeRuns reg_base_runs, reg_ctx0_runs, reg_field_runs, reg_tight_runs;
  ModeRuns data_base_runs, data_ctx0_runs, data_field_runs, data_tight_runs;
  u32 gap = 0;          // faults only the footprint check caught
  u32 context_gain = 0; // faults only the context-sensitive footprint caught
  u32 field_gain = 0;   // faults only the field-sensitive footprint caught

  u32 index = 0;
  for (Cycle cycle = 20; cycle + 20 < golden_base->cycles; cycle += stride, ++index) {
    campaign::InjectionRecord reg_fault;
    reg_fault.target = campaign::InjectTarget::kRegisterBit;
    reg_fault.inject_cycle = cycle;
    reg_fault.reg = static_cast<u8>(8 + (index % 16));  // t0..t7, s0..s7
    reg_fault.bit = static_cast<u8>(14 + (index % 8));  // 16 KB .. 2 MB off
    reg_fault.mask = Word{1} << reg_fault.bit;
    const campaign::RunResult rb = runner.run_one(base, *golden_base, reg_fault);
    const campaign::RunResult rc = runner.run_one(ctx0, *golden_ctx0, reg_fault);
    const campaign::RunResult rf = runner.run_one(field_off, *golden_field, reg_fault);
    const campaign::RunResult rt = runner.run_one(tight, *golden_tight, reg_fault);
    reg_base_runs.add(rb);
    reg_ctx0_runs.add(rc);
    reg_field_runs.add(rf);
    reg_tight_runs.add(rt);
    if (rt.outcome == campaign::Outcome::kDetectedDdt &&
        rb.outcome != campaign::Outcome::kDetectedDdt) {
      ++gap;
    }
    if (rt.outcome == campaign::Outcome::kDetectedDdt &&
        rc.outcome != campaign::Outcome::kDetectedDdt) {
      ++context_gain;
    }
    if (rt.outcome == campaign::Outcome::kDetectedDdt &&
        rf.outcome != campaign::Outcome::kDetectedDdt) {
      ++field_gain;
    }

    if (golden_base->program.data.size() >= 4) {
      campaign::InjectionRecord data_fault;
      data_fault.target = campaign::InjectTarget::kDataWord;
      data_fault.inject_cycle = cycle;
      const u32 words = static_cast<u32>(golden_base->program.data.size() / 4);
      data_fault.addr = golden_base->program.data_base + (index % words) * 4;
      data_fault.mask = Word{1} << (index % 32);
      data_base_runs.add(runner.run_one(base, *golden_base, data_fault));
      data_ctx0_runs.add(runner.run_one(ctx0, *golden_ctx0, data_fault));
      data_field_runs.add(runner.run_one(field_off, *golden_field, data_fault));
      data_tight_runs.add(runner.run_one(tight, *golden_tight, data_fault));
    }
  }

  std::cout << "static-DDT detection study: workload=" << workload
            << " golden_cycles=" << golden_base->cycles << " stride=" << stride << "\n";

  report::Table table({"fault class", "ddt mode", "injected", "det ddt", "det other", "sdc",
                       "masked", "crash/hang", "coverage %"});
  const campaign::CampaignReport reg_base = reg_base_runs.report();
  const campaign::CampaignReport reg_ctx0 = reg_ctx0_runs.report();
  const campaign::CampaignReport reg_field = reg_field_runs.report();
  const campaign::CampaignReport reg_tight = reg_tight_runs.report();
  const campaign::CampaignReport data_base = data_base_runs.report();
  const campaign::CampaignReport data_ctx0 = data_ctx0_runs.report();
  const campaign::CampaignReport data_field = data_field_runs.report();
  const campaign::CampaignReport data_tight = data_tight_runs.report();
  // (fault class, ddt mode, tallies) in print order.
  struct Row {
    const char* cls;
    const char* mode;
    const campaign::CampaignReport& r;
  };
  const std::vector<Row> rows = {
      {"register", "dynamic-only", reg_base},   {"register", "static-ctx0", reg_ctx0},
      {"register", "static-field-off", reg_field}, {"register", "static-footprint", reg_tight},
      {"data-word", "dynamic-only", data_base}, {"data-word", "static-ctx0", data_ctx0},
      {"data-word", "static-field-off", data_field},
      {"data-word", "static-footprint", data_tight},
  };
  using campaign::Outcome;
  // fault class, ddt mode, injected, det ddt, det other, sdc, masked,
  // crash/hang, coverage %
  const auto cells = [](const Row& row, int decimals) {
    const campaign::CampaignReport& r = row.r;
    const u32 ddt = count(r, Outcome::kDetectedDdt);
    return std::vector<std::string>{
        row.cls,
        row.mode,
        std::to_string(r.results.size()),
        std::to_string(ddt),
        std::to_string(r.detected() - ddt),
        std::to_string(count(r, Outcome::kSdc)),
        std::to_string(count(r, Outcome::kMasked)),
        std::to_string(count(r, Outcome::kCrash) + count(r, Outcome::kHang)),
        report::fmt_fixed(coverage_pct(r), decimals)};
  };
  for (const Row& row : rows) table.row(cells(row, 1));
  table.print();
  std::cout << "faults only the footprint check detected: " << gap << "\n";
  std::cout << "faults only the context-sensitive footprint detected: " << context_gain
            << "\n";
  std::cout << "faults only the field-sensitive footprint detected: " << field_gain << "\n";

  if (auto dir = report::csv_export_dir()) {
    report::CsvWriter csv(*dir + "/ddt_static.csv",
                          {"fault_class", "mode", "injected", "det_ddt", "det_other", "sdc",
                           "masked", "crash_hang", "coverage_pct"});
    for (const Row& row : rows) csv.row(cells(row, 2));
    csv.flush();
  }

  const u32 tight_total =
      count(reg_tight, Outcome::kDetectedDdt) + count(data_tight, Outcome::kDetectedDdt);
  const u32 base_total =
      count(reg_base, Outcome::kDetectedDdt) + count(data_base, Outcome::kDetectedDdt);
  if (tight_total <= base_total || gap == 0) {
    std::cerr << "static footprint failed to improve on the dynamic-only DDT\n";
    return 1;
  }
  if (expect_context_gain && context_gain == 0) {
    std::cerr << "context-sensitive footprint failed to improve on depth 0\n";
    return 1;
  }
  if (expect_field_gain) {
    // Strictly higher register-fault coverage, or — at equal coverage — a
    // strictly tighter (smaller) pre-reserved page set.
    const double cov_on = coverage_pct(reg_tight);
    const double cov_off = coverage_pct(reg_field);
    const bool better = cov_on > cov_off ||
                        (cov_on == cov_off && prereserved_tight < prereserved_field_off);
    if (!better) {
      std::cerr << "field-sensitive footprint failed to improve on the dense hull\n";
      return 1;
    }
  }
  return 0;
}
