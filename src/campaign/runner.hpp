// Parallel fault-injection campaign engine.
//
// The runner fans independent Machine simulations out across std::thread
// workers.  Work distribution is a single atomic run-index counter and each
// run writes into its own preallocated result slot, so the hot path takes no
// locks and the aggregate report is identical for any --jobs value: every
// simulation is hermetic (its own Machine/GuestOs), its fault comes from the
// deterministic InjectionPlan, and aggregation happens in index order after
// the workers join.
//
// Every faulty run goes through one pipeline: boot a fresh machine, start
// (from reset, by forking a snapshot, or by fast-forwarding the fault-free
// prefix — eligibility() decides), step to the injection cycle and apply the
// fault, step to the budget, classify.  Whatever the start, the classified
// outcome is the classic one.  A hang watchdog bounds every faulty run at
// hang_factor x the golden run's cycle count; runs that exceed it classify as
// kHang.
#pragma once

#include <array>
#include <atomic>

#include "campaign/golden.hpp"
#include "campaign/injection.hpp"
#include "campaign/report.hpp"
#include "exec/fast_forward.hpp"
#include "os/snapshot.hpp"
#include "rse/dme.hpp"

namespace rse::campaign {

/// One whole-machine snapshot per injection-cycle bucket, in increasing `at`
/// order, captured by a single from-reset pass.  Restoring any snapshot
/// reproduces the classic run's machine state at that cycle bit for bit, so
/// runs of every fault target may fork from it.
struct SnapshotChain {
  std::vector<os::MachineSnapshot> snaps;
};

/// Whether a faulty run may skip its fault-free prefix (kFast), or why it
/// starts from reset.  In FastForwardStats' field order: indexes its counters.
enum class Eligibility : u8 {
  kFast,
  kGolden,    // the golden run had detector activity (or a DME baseline
              // divergence): the whole campaign runs from reset
  kTarget,    // fault target a fast-forward boundary cannot take (config)
  kUnmapped,  // no boundary or snapshot at or before the injection cycle
              // (golden finished first, or a CI-refinement index)
  kConflict,  // memory-word fault overlapped in-flight state
  kChecked,   // instr-word fault on an ICM-checked instruction
  kSyscall,   // fast prefix: un-executed, non-resumable syscall
  kSuspend,   // fast prefix: post-syscall suspend it couldn't resume
  kIllegal,   // fast prefix: illegal word or host trap
  kOther,     // fast prefix: early exit / boundary position mismatch
};
inline constexpr std::size_t kNumEligibilities = 10;

/// Where an eligible record starts: a snapshot to fork from or a boundary to
/// fast-forward to (neither: from reset, for `reason`).
struct Start {
  Eligibility reason = Eligibility::kFast;
  const os::MachineSnapshot* snapshot = nullptr;
  const exec::FastForwardController::Boundary* boundary = nullptr;
};

/// The one rule that decides fast, fork or fallback for a record: fork from
/// the latest `chain` snapshot at or before the injection cycle, or
/// fast-forward to its entry in `boundaries` (pass one of the two).  Target
/// checks come first, so an empty boundary map answers kUnmapped for exactly
/// the records a boundary would serve.  (The fast prefix can still bail at
/// run time: kSyscall to kOther.)
Start eligibility(const InjectionRecord& record, const isa::Program& program,
                  const SnapshotChain* chain,
                  const exec::FastForwardController::BoundaryMap* boundaries);

/// Fallback accounting for the fast-forward path, aggregated over one run()
/// call (reset at campaign start).  Purely observational — the classified
/// outcomes and the deterministic digest never depend on which path a run
/// took — but it answers "why wasn't this campaign faster?" precisely.
/// fallback_X counts Eligibility::kX.
struct FastForwardStats {
  u64 fast = 0;  // runs whose prefix ran through the fast engine
  u64 fallback_golden = 0;
  u64 fallback_target = 0;
  u64 fallback_unmapped = 0;
  u64 fallback_conflict = 0;
  u64 fallback_checked = 0;
  u64 fallback_syscall = 0;
  u64 fallback_suspend = 0;
  u64 fallback_illegal = 0;
  u64 fallback_other = 0;

  u64 fallbacks() const {
    return fallback_golden + fallback_target + fallback_unmapped + fallback_conflict +
           fallback_checked + fallback_syscall + fallback_suspend + fallback_illegal +
           fallback_other;
  }
};

class CampaignRunner {
 public:
  /// `cache` lets several campaigns share golden runs; pass nullptr to use a
  /// runner-private cache.
  explicit CampaignRunner(GoldenCache* cache = nullptr);

  /// Execute a whole campaign: golden run (cached), plan, parallel fan-out,
  /// classification, aggregation.
  CampaignReport run(const CampaignSpec& spec);

  /// Reproduce a single run in isolation (tests, debugging a campaign hit)
  /// with the default hang budget.  A non-null `dme_reference` streams the
  /// run's canonical committed-instruction trace (rse/dme.hpp) against the
  /// reference variant and fills RunEvidence::dme_divergences; the caller is
  /// responsible for recording the reference and for a golden whose DME
  /// baseline fields reflect the fault-free comparison.
  RunResult run_one(const WorkloadSetup& setup, const GoldenRun& golden,
                    const InjectionRecord& record,
                    const dme::CanonicalTrace* dme_reference = nullptr) const;

  RunResult run_one_with_budget(const WorkloadSetup& setup, const GoldenRun& golden,
                                const InjectionRecord& record, Cycle budget,
                                const dme::CanonicalTrace* dme_reference = nullptr) const;

  /// Fast-forward variant: when eligibility() allows, the fault-free prefix
  /// runs through the exec/ fast engine and is transplanted into the
  /// cycle-accurate core at the injection cycle; a non-null `schedule` lets
  /// it bail-and-resume through non-whitelisted syscalls.  Ineligible records
  /// and fast-mode bails run from reset (docs/execution.md).
  RunResult run_one_fast_forward(const WorkloadSetup& setup, const GoldenRun& golden,
                                 const InjectionRecord& record, Cycle budget,
                                 const exec::FastForwardController::BoundaryMap& boundaries,
                                 const exec::FastForwardController::SyscallSchedule* schedule =
                                     nullptr,
                                 const dme::CanonicalTrace* dme_reference = nullptr) const;

  /// Fast-forward fallback accounting for the most recent run() (and the
  /// run_one_fast_forward calls since then).  Not part of any digest.
  FastForwardStats fast_forward_stats() const;

  /// Checkpoint-fork variant: restore the latest chain snapshot at or before
  /// the injection cycle (eligibility()), so only the post-snapshot suffix is
  /// simulated.  Records with no eligible snapshot run from reset.  Forked
  /// runs are not counted in fast_forward_stats().
  RunResult run_one_forked(const WorkloadSetup& setup, const GoldenRun& golden,
                           const InjectionRecord& record, Cycle budget,
                           const SnapshotChain& chain) const;

  /// Build the per-bucket snapshot chain for a spec: bucket boundaries are
  /// golden.cycles * b / snapshot_buckets, all captured by one from-reset
  /// cycle-accurate pass.  Each capture steps past its boundary to the next
  /// quiescent cycle (os::MachineSnapshot::quiescent).  `use_fast_forward`
  /// must be false: a chain built through fast-forward transplants is not
  /// bit-exact, so `true` throws ConfigError.
  SnapshotChain build_snapshot_chain(const WorkloadSetup& setup, const GoldenRun& golden,
                                     const CampaignSpec& spec, Cycle budget,
                                     bool use_fast_forward) const;

  /// The plan a spec expands to (exposed for tests and --describe).
  InjectionPlan plan_for(const CampaignSpec& spec, const GoldenRun& golden,
                         const WorkloadSetup& setup) const;

  GoldenCache& cache() { return *cache_; }

 private:
  Cycle budget_for(const GoldenRun& golden, double hang_factor) const;
  bool apply_fault(os::Machine& machine, const InjectionRecord& record) const;
  /// The one run pipeline: boot -> start (reset; fork from `start.snapshot`;
  /// or fast-forward to `start.boundary`, rerunning from reset on a bail) ->
  /// inject -> finish -> classify.
  RunResult run_from(const WorkloadSetup& setup, const GoldenRun& golden,
                     const InjectionRecord& record, Cycle budget, const Start& start,
                     const exec::FastForwardController::SyscallSchedule* schedule,
                     const dme::CanonicalTrace* dme_reference) const;
  void count(Eligibility reason) const {
    ff_accum_[static_cast<std::size_t>(reason)].fetch_add(1, std::memory_order_relaxed);
  }

  GoldenCache own_cache_;
  GoldenCache* cache_;

  // Workers increment concurrently; relaxed atomics indexed by Eligibility,
  // snapshot via fast_forward_stats().
  mutable std::array<std::atomic<u64>, kNumEligibilities> ff_accum_{};
};

}  // namespace rse::campaign
