// Run-pipeline golden table (docs/campaigns.md, "One run pipeline"): every
// faulty run goes boot -> start -> inject -> finish -> classify, whichever
// start strategy (reset, fork, fast) carries it to its injection cycle.  For
// one fixed 32-run kmeans plan this pins each run's (fault_applied, outcome,
// cycles) in the four campaign modes, plus each mode's FastForwardStats
// counters, so a change to the shared pipeline that moves any per-run result
// shows here by run index and mode.
//
// Classic, --snapshot-fork and --dme runs are cycle-exact by construction.
// Fast-forward runs transplant a drained pipeline, so their cycle counts may
// legitimately differ from the classic ones; the table pins them as they are.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "common/error.hpp"

using namespace rse;

namespace {

struct Mode {
  const char* name;
  bool fast_forward;
  bool snapshot_fork;
  bool dme;
};

constexpr Mode kModes[] = {
    {"classic", false, false, false},
    {"ff", true, false, false},
    {"fork", false, true, false},
    {"dme", false, false, true},
};

campaign::CampaignSpec spec_for(const Mode& mode) {
  campaign::CampaignSpec spec;
  spec.workload = "kmeans";
  spec.runs = 32;
  spec.seed = 64;
  spec.jobs = 2;
  spec.fast_forward = mode.fast_forward;
  spec.snapshot_fork = mode.snapshot_fork;
  spec.dme = mode.dme;
  return spec;
}

std::string counters_of(const campaign::FastForwardStats& ff) {
  std::ostringstream out;
  out << "fast " << ff.fast << " golden " << ff.fallback_golden << " target "
      << ff.fallback_target << " unmapped "
      << ff.fallback_unmapped << " conflict " << ff.fallback_conflict << " checked "
      << ff.fallback_checked << " syscall " << ff.fallback_syscall << " suspend "
      << ff.fallback_suspend << " illegal " << ff.fallback_illegal << " other "
      << ff.fallback_other;
  return out.str();
}

struct ModeResult {
  std::vector<campaign::RunResult> runs;
  campaign::FastForwardStats counters;
};

class RunPipelineGolden : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    campaign::GoldenCache cache;
    campaign::CampaignRunner runner(&cache);
    results_ = new std::vector<ModeResult>;
    for (const Mode& mode : kModes) {
      campaign::CampaignReport report = runner.run(spec_for(mode));
      results_->push_back({std::move(report.results), runner.fast_forward_stats()});
    }
  }
  static void TearDownTestSuite() {
    delete results_;
    results_ = nullptr;
  }

  static std::vector<ModeResult>* results_;
};

std::vector<ModeResult>* RunPipelineGolden::results_ = nullptr;

// One line per run (after a leading newline): "index | classic | ff | fork |
// dme", each cell "fault_applied outcome cycles".
constexpr const char* kRunTable = R"(
0 | 1 masked 8461 | 1 masked 8952 | 1 masked 8461 | 1 masked 8461
1 | 1 masked 8461 | 1 masked 8461 | 1 masked 8461 | 1 masked 8461
2 | 1 masked 8461 | 1 masked 9285 | 1 masked 8461 | 1 masked 8461
3 | 1 masked 8461 | 1 masked 9361 | 1 masked 8461 | 1 masked 8461
4 | 1 masked 8461 | 1 masked 8576 | 1 masked 8461 | 1 masked 8461
5 | 1 masked 8461 | 1 masked 9209 | 1 masked 8461 | 1 masked 8461
6 | 1 crash 572 | 1 crash 563 | 1 crash 572 | 1 detected_dme 572
7 | 1 masked 8461 | 1 masked 9107 | 1 masked 8461 | 1 masked 8461
8 | 1 sdc 8267 | 1 sdc 9180 | 1 sdc 8267 | 1 detected_dme 8267
9 | 1 sdc 9521 | 1 sdc 10389 | 1 sdc 9521 | 1 detected_dme 9521
10 | 1 masked 8461 | 1 masked 9303 | 1 masked 8461 | 1 masked 8461
11 | 1 masked 8203 | 1 masked 8914 | 1 masked 8203 | 1 detected_dme 8203
12 | 1 sdc 8323 | 1 sdc 8779 | 1 sdc 8323 | 1 detected_dme 8323
13 | 1 masked 8461 | 1 masked 8582 | 1 masked 8461 | 1 detected_dme 8461
14 | 1 masked 8470 | 1 masked 9332 | 1 masked 8470 | 1 detected_dme 8470
15 | 1 masked 8461 | 1 masked 9174 | 1 masked 8461 | 1 masked 8461
16 | 1 masked 8461 | 1 masked 9224 | 1 masked 8461 | 1 masked 8461
17 | 1 crash 5375 | 1 crash 5375 | 1 crash 5375 | 1 crash 5375
18 | 1 crash 4283 | 1 crash 4283 | 1 crash 4283 | 1 crash 4283
19 | 1 sdc 8037 | 1 sdc 8388 | 1 sdc 8037 | 1 detected_dme 8037
20 | 1 sdc 9751 | 1 sdc 9796 | 1 sdc 9751 | 1 detected_dme 9751
21 | 1 masked 8461 | 1 masked 9057 | 1 masked 8461 | 1 masked 8461
22 | 1 sdc 8461 | 1 sdc 9317 | 1 sdc 8461 | 1 detected_dme 8461
23 | 1 masked 8461 | 1 masked 9275 | 1 masked 8461 | 1 masked 8461
24 | 1 masked 8455 | 1 masked 9086 | 1 masked 8455 | 1 detected_dme 8455
25 | 1 sdc 8048 | 1 sdc 8844 | 1 sdc 8048 | 1 detected_dme 8048
26 | 1 masked 8521 | 1 masked 9186 | 1 masked 8521 | 1 detected_dme 8521
27 | 1 crash 4768 | 1 crash 4768 | 1 crash 4768 | 1 crash 4768
28 | 1 sdc 8404 | 1 sdc 8606 | 1 sdc 8404 | 1 detected_dme 8404
29 | 1 detected_selfcheck 13458 | 1 detected_selfcheck 13458 | 1 detected_selfcheck 13458 | 1 detected_selfcheck 13458
30 | 1 sdc 8424 | 1 sdc 9336 | 1 sdc 8424 | 1 detected_dme 8424
31 | 1 detected_icm 4455 | 1 detected_icm 4455 | 1 detected_icm 4455 | 1 detected_icm 4455
)";

// Forked runs are never counted: only --fast-forward runs are.
constexpr const char* kCounterTable = R"(
classic: fast 0 golden 0 target 0 unmapped 0 conflict 0 checked 0 syscall 0 suspend 0 illegal 0 other 0
ff: fast 26 golden 0 target 4 unmapped 0 conflict 0 checked 2 syscall 0 suspend 0 illegal 0 other 0
fork: fast 0 golden 0 target 0 unmapped 0 conflict 0 checked 0 syscall 0 suspend 0 illegal 0 other 0
dme: fast 0 golden 0 target 0 unmapped 0 conflict 0 checked 0 syscall 0 suspend 0 illegal 0 other 0
)";

TEST_F(RunPipelineGolden, PerRunResultsMatchTheTableInEveryMode) {
  std::ostringstream table;
  table << '\n';
  for (std::size_t i = 0; i < results_->front().runs.size(); ++i) {
    table << i;
    for (const ModeResult& mode : *results_) {
      ASSERT_EQ(mode.runs.size(), results_->front().runs.size());
      const campaign::RunResult& r = mode.runs[i];
      table << " | " << r.fault_applied << ' ' << campaign::to_string(r.outcome) << ' '
            << r.cycles;
    }
    table << '\n';
  }
  EXPECT_EQ(table.str(), kRunTable);
}

TEST_F(RunPipelineGolden, FastForwardCountersMatchTheTableInEveryMode) {
  std::ostringstream table;
  table << '\n';
  for (std::size_t m = 0; m < results_->size(); ++m) {
    table << kModes[m].name << ": " << counters_of((*results_)[m].counters) << '\n';
  }
  EXPECT_EQ(table.str(), kCounterTable);
}

TEST_F(RunPipelineGolden, EveryFastForwardModeAccountsForEveryRun) {
  for (std::size_t m = 0; m < results_->size(); ++m) {
    if (!kModes[m].fast_forward) continue;
    const campaign::FastForwardStats& ff = (*results_)[m].counters;
    EXPECT_EQ(ff.fast + ff.fallbacks(), (*results_)[m].runs.size()) << kModes[m].name;
    EXPECT_GT(ff.fast, 0u) << kModes[m].name;
  }
}

// The attack-chk golden run has baseline detector activity, so
// --fast-forward runs every run from reset; each one counts as a `golden`
// fallback, CI refinement runs included.
TEST_F(RunPipelineGolden, DetectorActiveGoldenCountsEveryRunAsGolden) {
  campaign::CampaignRunner runner;
  campaign::CampaignSpec spec;
  spec.workload = "attack-chk";
  spec.runs = 48;
  spec.seed = 11;
  spec.jobs = 2;
  spec.fast_forward = true;
  runner.run(spec);
  EXPECT_EQ(counters_of(runner.fast_forward_stats()),
            "fast 0 golden 48 target 0 unmapped 0 conflict 0 checked 0 syscall 0 suspend 0 "
            "illegal 0 other 0");

  spec.runs = 16;
  spec.ci_threshold = 0.2;
  const campaign::CampaignReport refined = runner.run(spec);
  ASSERT_GT(refined.results.size(), spec.runs);
  const campaign::FastForwardStats ff = runner.fast_forward_stats();
  EXPECT_EQ(ff.fast, 0u);
  EXPECT_EQ(ff.fallback_golden, refined.results.size());
  EXPECT_EQ(ff.fallbacks(), refined.results.size());
}

// Forking from the from-reset chain and fast-forwarding are two start
// strategies; a campaign takes one.  A fast-forward-built chain does not
// exist.
TEST_F(RunPipelineGolden, SnapshotForkWithFastForwardIsAConfigError) {
  campaign::CampaignRunner runner;
  const campaign::CampaignSpec spec = spec_for({"fork+ff", true, true, false});
  EXPECT_THROW(runner.run(spec), ConfigError);

  const campaign::WorkloadSetup setup = campaign::make_workload(spec.workload);
  const std::shared_ptr<const campaign::GoldenRun> golden = runner.cache().get(setup);
  EXPECT_THROW(runner.build_snapshot_chain(setup, *golden, spec, golden->cycles * 8, true),
               ConfigError);
  EXPECT_FALSE(
      runner.build_snapshot_chain(setup, *golden, spec, golden->cycles * 8, false).snaps.empty());
}

}  // namespace
