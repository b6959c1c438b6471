// rsebench: the repository benchmark.  One process runs one workload at one
// seed for a fixed measuring time, checks every result it produces, and
// prints its metrics as the last line of stdout:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// --trace 0 prints the end-to-end metrics (host time, measured from outside
// the simulator's public calls with tracing off, scaled to a reference host
// speed that a fixed probe measures around each unit).  --trace 1 prints the
// per-layer metrics: the same measured loop runs with spans recorded around
// each public call, then the layer suite (Table 4 configuration split, the
// Figure 9 DDT pair, and a step-by-step replay of both campaign modes) runs
// once.  Spans are kept in memory and written to --spans at exit.
//
// Workloads, metric definitions and the layer -> end-to-end map are in
// rsebench/README.md.  rsebench/run.py builds this program and runs it.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/golden.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "campaign/workload.hpp"
#include "exec/fast_forward.hpp"
#include "exec/fast_session.hpp"
#include "isa/assembler.hpp"
#include "isa/interpreter.hpp"
#include "os/guest_os.hpp"
#include "os/machine.hpp"
#include "os/snapshot.hpp"
#include "workloads/workloads.hpp"

using namespace rse;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank percentile (p in (0, 1]).
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// ---------------------------------------------------------------------------
// Tracing: spans (name, start, end, parent) kept in memory, written at exit.
// A disabled tracer records nothing; Span still measures its own duration,
// so the measured loop is the same code with tracing on or off.

class Tracer {
 public:
  struct Record {
    std::string name;
    i64 start_ns = 0;
    i64 end_ns = 0;
    int parent = -1;
  };

  void set_enabled(bool enabled) { enabled_ = enabled; }

  int open(const char* name) {
    if (!enabled_) return -1;
    spans_.push_back(Record{name, now_ns(), 0, current_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }

  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    current_ = spans_[static_cast<std::size_t>(id)].parent;
  }

  /// Spans plus a per-name summary (count, total, self time = duration
  /// minus the part covered by child spans).
  bool write(const std::string& path, const std::string& header_json) const {
    struct Summary {
      u64 count = 0;
      double total_ms = 0, self_ms = 0;
    };
    const auto ms = [](const Record& s) {
      return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    };
    std::vector<double> child_ms(spans_.size(), 0.0);
    for (const Record& s : spans_) {
      if (s.parent >= 0) child_ms[static_cast<std::size_t>(s.parent)] += ms(s);
    }
    std::map<std::string, Summary> summary;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Summary& entry = summary[spans_[i].name];
      entry.count++;
      entry.total_ms += ms(spans_[i]);
      entry.self_ms += ms(spans_[i]) - child_ms[i];
    }
    std::ofstream out(path);
    if (!out) return false;
    out.precision(12);
    out << "{\"host\": " << header_json << ",\n \"summary\": {";
    bool first = true;
    for (const auto& [name, entry] : summary) {
      out << (first ? "\n" : ",\n") << "  \"" << name << "\": {\"count\": " << entry.count
          << ", \"total_ms\": " << entry.total_ms << ", \"self_ms\": " << entry.self_ms << "}";
      first = false;
    }
    out << "},\n \"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Record& s = spans_[i];
      out << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << i << ", \"name\": \"" << s.name
          << "\", \"start_us\": " << s.start_ns / 1000.0 << ", \"end_us\": " << s.end_ns / 1000.0
          << ", \"parent\": " << s.parent << "}";
    }
    out << "\n ]}\n";
    return static_cast<bool>(out);
  }

 private:
  i64 now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }

  bool enabled_ = false;
  std::vector<Record> spans_;
  int current_ = -1;
  Clock::time_point origin_ = Clock::now();
};

Tracer g_tracer;

class Span {
 public:
  explicit Span(const char* name) : id_(g_tracer.open(name)), start_(Clock::now()) {}
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// End the span (idempotent) and return its duration in seconds.
  double stop() {
    if (!stopped_) {
      seconds_ = seconds_between(start_, Clock::now());
      g_tracer.close(id_);
      stopped_ = true;
    }
    return seconds_;
  }

 private:
  int id_;
  Clock::time_point start_;
  bool stopped_ = false;
  double seconds_ = 0.0;
};

// ---------------------------------------------------------------------------
// Results: named metrics with units, and the correctness tally.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back(Metric{name, value, unit});
  }

  /// One correctness check; a failure is also described on stderr.
  void check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::cerr << "rsebench: check failed: " << what << "\n";
    }
  }

  void print() const {
    std::ostringstream out;
    out.precision(17);
    out << "{\"correct\": " << (failed_ == 0 && attempted_ > 0 ? "true" : "false")
        << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_ << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      out << (i == 0 ? "" : ", ") << "\"" << metrics_[i].name << "\": {\"value\": "
          << metrics_[i].value << ", \"unit\": \"" << metrics_[i].unit << "\"}";
    }
    out << "}}";
    std::cout << out.str() << std::endl;
  }

 private:
  std::vector<Metric> metrics_;
  u64 attempted_ = 0;
  u64 failed_ = 0;
};

// ---------------------------------------------------------------------------
// Pinned values (rsebench/pins.txt): "<workload> <seed> <key> <value>" lines
// holding the exact simulated statistics and campaign outcomes at each
// workload's default seed.

class Pins {
 public:
  bool load(const std::string& path) {
    std::ifstream in(path);
    if (!in) return false;
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream fields(line);
      std::string workload, seed, key, value;
      if (!(fields >> workload >> seed >> key >> value)) continue;
      values_[workload + " " + seed][key] = value;
    }
    return true;
  }

  /// Pinned key -> value for (workload, seed); null when none are pinned.
  const std::map<std::string, std::string>* find(const std::string& workload, u64 seed) const {
    const auto it = values_.find(workload + " " + std::to_string(seed));
    return it == values_.end() ? nullptr : &it->second;
  }

 private:
  std::map<std::string, std::map<std::string, std::string>> values_;
};

using Counters = std::vector<std::pair<std::string, u64>>;

/// Every simulated statistic the benchmark pins and derives rates from.
Counters read_counters(os::Machine& machine, os::GuestOs& guest) {
  const cpu::CoreStats& core = machine.core().stats();
  Counters c = {
      {"cpu.cycles", machine.now()},
      {"cpu.instructions", core.instructions},
      {"cpu.chk_committed", core.chk_committed},
      {"cpu.mispredicts", core.mispredicts},
      {"cpu.squashed", core.squashed},
      {"cpu.chk_commit_stall_cycles", core.chk_commit_stall_cycles},
  };
  const std::pair<const char*, mem::Cache*> caches[] = {
      {"il1", &machine.il1()}, {"dl1", &machine.dl1()}, {"il2", &machine.il2()},
      {"dl2", &machine.dl2()}};
  for (const auto& [name, cache] : caches) {
    c.emplace_back(std::string("mem.") + name + ".accesses", cache->stats().accesses);
    c.emplace_back(std::string("mem.") + name + ".misses", cache->stats().misses);
  }
  c.emplace_back("mem.dl2.writebacks", machine.dl2().stats().writebacks);
  c.emplace_back("mem.bus.pipeline_wait_cycles", machine.bus().stats().pipeline_wait_cycles);
  c.emplace_back("mem.bus.mau_transfers", machine.bus().stats().mau_transfers);
  c.emplace_back("mem.pages_touched", machine.memory().pages_touched());
  const engine::FrameworkStats fw =
      machine.framework() != nullptr ? machine.framework()->stats() : engine::FrameworkStats{};
  c.emplace_back("rse.dispatches_seen", fw.dispatches_seen);
  c.emplace_back("rse.commits_seen", fw.commits_seen);
  c.emplace_back("rse.squashes_seen", fw.squashes_seen);
  c.emplace_back("rse.chk_instructions", fw.chk_instructions);
  const modules::IcmStats icm =
      machine.icm() != nullptr ? machine.icm()->stats() : modules::IcmStats{};
  c.emplace_back("modules.icm.checks", icm.checks_completed);
  c.emplace_back("modules.icm.cache_hits", icm.cache_hits);
  c.emplace_back("modules.icm.cache_misses", icm.cache_misses);
  const modules::DdtStats ddt =
      machine.ddt() != nullptr ? machine.ddt()->stats() : modules::DdtStats{};
  c.emplace_back("modules.ddt.tracked_stores", ddt.tracked_stores);
  c.emplace_back("modules.ddt.dependencies", ddt.dependencies_logged);
  c.emplace_back("os.context_switches", guest.stats().context_switches);
  c.emplace_back("os.pages_saved", guest.stats().pages_saved);
  return c;
}

u64 counter(const Counters& counters, const std::string& name) {
  for (const auto& [key, value] : counters) {
    if (key == name) return value;
  }
  throw std::logic_error("unknown counter " + name);
}

/// Check `counters` against the pins of (workload, seed), if any.
void check_pinned_counters(Report& report, const Pins& pins, const std::string& workload,
                           u64 seed, const Counters& counters) {
  const auto* pinned = pins.find(workload, seed);
  if (pinned == nullptr) return;
  for (const auto& [key, value] : counters) {
    const auto it = pinned->find(key);
    report.check(it != pinned->end() && it->second == std::to_string(value),
                 workload + " pinned " + key + " = " +
                     (it == pinned->end() ? std::string("<none>") : it->second) + ", got " +
                     std::to_string(value));
  }
}

/// Per-layer metrics derived from a program's simulated statistics.
void report_simulated(Report& report, const Counters& c) {
  const auto get = [&](const char* name) { return static_cast<double>(counter(c, name)); };
  report.metric("cpu.cycles", get("cpu.cycles"), "count");
  report.metric("cpu.instructions", get("cpu.instructions"), "count");
  report.metric("cpu.ipc", ratio(get("cpu.instructions"), get("cpu.cycles")), "ratio");
  report.metric("cpu.mispredicts", get("cpu.mispredicts"), "count");
  report.metric("cpu.squashed", get("cpu.squashed"), "count");
  report.metric("cpu.chk_commit_stall_cycles", get("cpu.chk_commit_stall_cycles"), "count");
  for (const char* cache : {"il1", "dl1", "il2", "dl2"}) {
    const std::string prefix = std::string("mem.") + cache;
    report.metric(prefix + ".miss_rate",
                  ratio(get((prefix + ".misses").c_str()), get((prefix + ".accesses").c_str())),
                  "ratio");
  }
  report.metric("mem.dl2.writebacks", get("mem.dl2.writebacks"), "count");
  report.metric("mem.bus.pipeline_wait_cycles", get("mem.bus.pipeline_wait_cycles"), "count");
  report.metric("mem.bus.mau_transfers", get("mem.bus.mau_transfers"), "count");
  report.metric("mem.pages_touched", get("mem.pages_touched"), "count");
  report.metric("rse.dispatches_seen", get("rse.dispatches_seen"), "count");
  report.metric("rse.commits_seen", get("rse.commits_seen"), "count");
  report.metric("rse.squashes_seen", get("rse.squashes_seen"), "count");
  report.metric("rse.chk_instructions", get("rse.chk_instructions"), "count");
  report.metric("modules.icm.checks", get("modules.icm.checks"), "count");
  report.metric("modules.icm.cache_hit_rate",
                ratio(get("modules.icm.cache_hits"),
                      get("modules.icm.cache_hits") + get("modules.icm.cache_misses")),
                "ratio");
}

// ---------------------------------------------------------------------------
// Reference model: the ISA interpreter running the same program.

struct Reference {
  bool exited = false;
  int exit_code = 0;
  std::string output;
};

Reference interpret(const isa::Program& program) {
  mem::MainMemory memory;
  for (std::size_t i = 0; i < program.text.size(); ++i) {
    memory.write_u32(program.text_base + static_cast<Addr>(i * 4), program.text[i]);
  }
  if (!program.data.empty()) {
    memory.write_block(program.data_base, program.data.data(),
                       static_cast<u32>(program.data.size()));
  }
  isa::Interpreter interp(memory);
  interp.set_pc(program.entry);
  interp.set_reg(isa::kSp, (isa::kDefaultStackTop - 64) & ~Addr{15});
  Reference ref;
  bool unsupported = false;
  interp.set_syscall_handler([&](isa::Interpreter& in) {
    const Word a0 = in.reg(isa::kA0);
    switch (static_cast<os::Sys>(in.reg(isa::kV0))) {
      case os::Sys::kExit:
        ref.exited = true;
        ref.exit_code = static_cast<int>(a0);
        return false;
      case os::Sys::kPrintInt: ref.output += std::to_string(static_cast<i32>(a0)); return true;
      case os::Sys::kPrintChar: ref.output += static_cast<char>(a0); return true;
      default: unsupported = true; return false;
    }
  });
  interp.run(2'000'000'000);
  if (unsupported) ref.exited = false;
  return ref;
}

// ---------------------------------------------------------------------------
// Simulation workloads (place-icm, server-ddt): each unit generates,
// assembles and loads the program (timed as set-up), then GuestOs::run.

struct SimConfig {
  std::string source;  // generated guest assembly
  os::MachineConfig machine;
  std::optional<os::NetworkConfig> network;
};

SimConfig place_config(u64 seed, bool framework, bool instrumented) {
  workloads::PlaceParams params;
  params.seed = seed;
  SimConfig config;
  config.source = workloads::vpr_place_source(params);
  if (instrumented) config.source = workloads::instrument_checks(config.source);
  config.machine.framework_present = framework;
  return config;
}

/// The Figure 9 server at 8 worker threads: 100 requests on the fig9
/// network, on the RSE machine.
SimConfig server_config(u64 seed, bool ddt) {
  workloads::ServerParams params;
  params.threads = 8;
  params.compute_iters = 1100;
  params.io_phases = 3;
  params.enable_ddt = ddt;
  SimConfig config;
  config.source = workloads::server_source(params);
  config.machine.framework_present = true;
  os::NetworkConfig net;
  net.total_requests = 100;
  net.interarrival = 1200;
  net.io_latency_mean = 27000;
  net.jitter_pct = 40;
  net.seed = seed;
  config.network = net;
  return config;
}

struct SimRun {
  isa::Program program;
  std::unique_ptr<os::Machine> machine;
  std::unique_ptr<os::GuestOs> guest;
  double generate_s = 0, assemble_s = 0, load_s = 0, run_s = 0;
  double setup_s() const { return generate_s + assemble_s + load_s; }
};

/// Set up one simulation, timing each step: `make` generates the source,
/// so generation is part of the measured set-up.
template <class Make>
SimRun set_up(const Make& make) {
  SimRun r;
  SimConfig config;
  {
    Span span("workloads.generate");
    config = make();
    r.generate_s = span.stop();
  }
  {
    Span span("isa.assemble");
    r.program = isa::assemble(config.source);
    r.assemble_s = span.stop();
  }
  {
    Span span("os.load");
    r.machine = std::make_unique<os::Machine>(config.machine);
    r.guest = std::make_unique<os::GuestOs>(*r.machine);
    if (config.network) r.guest->network().configure(*config.network);
    r.guest->load(r.program);
    r.load_s = span.stop();
  }
  return r;
}

template <class Make>
SimRun simulate(const Make& make) {
  SimRun r = set_up(make);
  Span span("os.run");
  r.guest->run();
  r.run_s = span.stop();
  return r;
}

struct UnitTimes {
  std::vector<double> setup_s, mcycles_per_s, runs_per_s, peak_rss_mb;
  std::vector<double> generate_s, assemble_s, load_s;
  std::vector<double> probe_s, raw_mcycles_per_s;
};

/// Peak resident set of this process since start or the last
/// reset_peak_rss() (VmHWM; ru_maxrss would carry over the launcher's peak
/// across exec).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

/// Lower the peak resident set to the current one, so a unit's own peak can
/// be read.
void reset_peak_rss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
}

void report_end_to_end(Report& report, const UnitTimes& t) {
  report.metric("setup_s", median(t.setup_s), "s");
  report.metric("sim_mcycles_per_s", median(t.mcycles_per_s), "Mcycle/s");
  report.metric("campaign_runs_per_s", median(t.runs_per_s), "1/s");
  report.metric("peak_rss_mb", median(t.peak_rss_mb), "MB");
  std::cerr << "rsebench: unscaled sim_mcycles_per_s " << median(t.raw_mcycles_per_s)
            << ", probe " << 1e3 * median(t.probe_s) << " ms\n";
}

// ---------------------------------------------------------------------------
// Host speed.  The shared host changes speed by a third or more over minutes
// (README, "Host noise"), which moves every unit of a run alike.  A fixed
// probe -- the benchmark's own code, not the simulator's -- runs right before
// and after each unit.  End-to-end host times are reported at the host speed
// at which the probe takes kProbeReferenceS: each unit's times are scaled by
// kProbeReferenceS / (mean probe time around it), its rates by the inverse.
// A change to the simulator leaves the probe alone, so it moves the scaled
// figures as it moves the raw ones.

constexpr double kProbeReferenceS = 0.04;
constexpr u32 kProbeSets = 4096;
constexpr u32 kProbeWays = 8;
volatile u64 g_probe_sink = 0;

/// The probe is work of the simulator's kind, a cache model: an 8-way LRU
/// tag array (256 KB of tags) fed a mostly sequential address stream with
/// random jumps, the same 1.5 M accesses from the same empty state each
/// call.  Of the candidates the README lists, it followed the host most
/// consistently.  Returns its host time in seconds.
double probe_host() {
  static std::vector<u64> tags(kProbeSets * kProbeWays);
  static std::vector<u8> age(kProbeSets * kProbeWays);
  const auto start = Clock::now();
  std::fill(tags.begin(), tags.end(), 0);
  std::fill(age.begin(), age.end(), 0);
  u64 x = 0x243F6A8885A308D3ull, address = 0, hits = 0;
  for (u32 i = 0; i < 1'500'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    address = (x & 0xF) == 0 ? (x >> 8) & 0xFFFFFF : address + 8 + ((x >> 4) & 0x3F);
    const u64 line = address >> 6;
    u64* way_tag = &tags[(line % kProbeSets) * kProbeWays];
    u8* way_age = &age[(line % kProbeSets) * kProbeWays];
    const u64 tag = line / kProbeSets;
    u32 hit = kProbeWays;
    for (u32 w = 0; w < kProbeWays; ++w) {
      if (way_tag[w] == tag) {
        hit = w;
        break;
      }
    }
    if (hit < kProbeWays) {
      ++hits;
      for (u32 w = 0; w < kProbeWays; ++w) {
        if (w != hit && way_age[w] < 255) ++way_age[w];
      }
      way_age[hit] = 0;
    } else {
      u32 victim = 0;
      for (u32 w = 1; w < kProbeWays; ++w) {
        if (way_age[w] > way_age[victim]) victim = w;
      }
      way_tag[victim] = tag;
      way_age[victim] = 0;
    }
  }
  g_probe_sink = hits;
  return seconds_between(start, Clock::now());
}

/// Scale the entries [from, end) of `values`.
void scale_from(std::vector<double>& values, std::size_t from, double factor) {
  for (std::size_t i = from; i < values.size(); ++i) values[i] *= factor;
}

/// Run units for the measuring time: a unit starts only if it is expected to
/// end within half a unit of the deadline (at least one unit runs).  `unit`
/// notes its own raw metrics; this notes its peak resident set and host
/// speed and scales its set-up times and rates to the reference speed.
template <class Unit>
void measure(double seconds, UnitTimes& t, const Unit& unit) {
  const auto start = Clock::now();
  for (u32 i = 0;; ++i) {
    reset_peak_rss();
    const std::size_t setups = t.setup_s.size(), rates = t.mcycles_per_s.size();
    const auto t0 = Clock::now();
    const double probe_before = probe_host();
    unit();
    const double probe_after = probe_host();
    const auto t1 = Clock::now();
    t.peak_rss_mb.push_back(peak_rss_mb());
    const double probe = 0.5 * (probe_before + probe_after);
    t.probe_s.push_back(probe);
    t.raw_mcycles_per_s.insert(t.raw_mcycles_per_s.end(), t.mcycles_per_s.begin() + rates,
                               t.mcycles_per_s.end());
    const double speed = kProbeReferenceS / probe;  // 1 at the reference speed
    scale_from(t.setup_s, setups, speed);
    scale_from(t.mcycles_per_s, rates, 1.0 / speed);
    scale_from(t.runs_per_s, rates, 1.0 / speed);
    const double last = seconds_between(t0, t1);
    std::cerr << "rsebench: unit " << i << " took " << last << " s, host speed " << speed
              << "\n";
    if (seconds_between(start, t1) + last / 2 > seconds) break;
  }
}

/// The traced run's own end-to-end rates (every unit traced).  Tracing
/// overhead is these against the --trace 0 run's rates at the same seed.
void report_traced_rates(Report& report, const UnitTimes& t) {
  report.metric("traced.sim_mcycles_per_s", median(t.mcycles_per_s), "Mcycle/s");
  report.metric("traced.campaign_runs_per_s", median(t.runs_per_s), "1/s");
  report.metric("host.probe_ms", 1e3 * median(t.probe_s), "ms");
  report.metric("host.raw_sim_mcycles_per_s", median(t.raw_mcycles_per_s), "Mcycle/s");
}

void report_setup_split(Report& report, const UnitTimes& t) {
  report.metric("workloads.generate_ms", 1e3 * median(t.generate_s), "ms");
  report.metric("isa.assemble_ms", 1e3 * median(t.assemble_s), "ms");
  report.metric("os.load_ms", 1e3 * median(t.load_s), "ms");
}

struct Options {
  std::string workload;
  u64 seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string pins = "rsebench/pins.txt";
  std::string spans = ".bench_build/rsebench-spans.json";
  bool print_pins = false;
};

void print_pin_lines(const std::string& workload, u64 seed, const Counters& counters) {
  for (const auto& [key, value] : counters) {
    std::cout << workload << " " << seed << " " << key << " " << value << "\n";
  }
}

/// Each unit first repeats the workload's set-up, timed: at least once, and
/// until kSetupSeconds have passed.  Spreading set-ups over the whole run,
/// instead of timing them all at the start, lets the set-up median see the
/// same host as the unit rates; repeating them gives a set-up of well under
/// a millisecond a steady median.
constexpr double kSetupSeconds = 0.1;

template <class SetUp>
void repeat_setups(const SetUp& set_up_once) {
  const auto start = Clock::now();
  do {
    set_up_once();
  } while (seconds_between(start, Clock::now()) < kSetupSeconds);
}

/// A simulation workload: `make` generates its configuration, `correct`
/// checks one finished run.
template <class Make, class Correct>
void run_sim(const Options& opt, const Pins& pins, Report& report, const std::string& name,
             const Make& make, const Correct& correct) {
  UnitTimes t;
  const auto note_setup = [&](const SimRun& r) {
    t.setup_s.push_back(r.setup_s());
    t.generate_s.push_back(r.generate_s);
    t.assemble_s.push_back(r.assemble_s);
    t.load_s.push_back(r.load_s);
  };
  Counters last;
  measure(opt.seconds, t, [&] {
    repeat_setups([&] { note_setup(set_up(make)); });
    const SimRun r = simulate(make);
    report.check(correct(r), name + " result matches its reference");
    last = read_counters(*r.machine, *r.guest);
    check_pinned_counters(report, pins, name, opt.seed, last);
    note_setup(r);
    t.mcycles_per_s.push_back(static_cast<double>(r.machine->now()) / r.run_s / 1e6);
    t.runs_per_s.push_back(1.0 / r.run_s);
  });
  if (opt.print_pins) print_pin_lines(name, opt.seed, last);
  if (!opt.trace) {
    report_end_to_end(report, t);
  } else {
    report_traced_rates(report, t);
    report_setup_split(report, t);
    report_simulated(report, last);
  }
}

/// place-icm: the reference is the ISA interpreter on the same program.
void run_place(const Options& opt, const Pins& pins, Report& report) {
  const auto make = [&] { return place_config(opt.seed, true, true); };
  const Reference ref = interpret(isa::assemble(make().source));
  report.check(ref.exited, "interpreter reference reached sys_exit");
  run_sim(opt, pins, report, "place-icm", make, [&](const SimRun& r) {
    return r.guest->finished() && r.guest->exit_code() == ref.exit_code &&
           r.guest->output() == ref.output;
  });
}

/// server-ddt: every request completes, exit code 0, and the output is that
/// of the same server without DDT tracking.
void run_server(const Options& opt, const Pins& pins, Report& report) {
  std::string ref_output;
  {
    const SimRun plain = simulate([&] { return server_config(opt.seed, false); });
    report.check(plain.guest->finished() && plain.guest->exit_code() == 0,
                 "server reference (no DDT) exits 0");
    ref_output = plain.guest->output();
  }
  run_sim(opt, pins, report, "server-ddt", [&] { return server_config(opt.seed, true); },
          [&](const SimRun& r) {
            return r.guest->finished() && r.guest->exit_code() == 0 &&
                   r.guest->network().stats().completed == 100 &&
                   r.guest->output() == ref_output;
          });
}

// ---------------------------------------------------------------------------
// Campaign workloads (campaign-ff, campaign-fork): kmeans-large, all four
// fault targets, the full window, 16 runs, jobs 2.

constexpr const char* kCampaignWorkload = "kmeans-large";
constexpr u32 kCampaignRuns = 16;
constexpr u32 kCampaignJobs = 2;

campaign::CampaignSpec campaign_spec(u64 seed, bool fork, u32 runs = kCampaignRuns) {
  campaign::CampaignSpec spec;
  spec.workload = kCampaignWorkload;
  spec.runs = runs;
  spec.seed = seed;
  spec.jobs = kCampaignJobs;
  spec.fast_forward = !fork;
  spec.snapshot_fork = fork;
  spec.snapshot_buckets = 8;
  return spec;
}

/// The hang budget CampaignRunner derives from the golden run (runner.cpp
/// budget_for with the spec's hang factor); the step-by-step replay below
/// must use the same one.
Cycle hang_budget(const campaign::GoldenRun& golden, const campaign::CampaignSpec& spec) {
  return static_cast<Cycle>(static_cast<double>(golden.cycles) * spec.hang_factor) + 20'000;
}

char outcome_char(const campaign::RunResult& r) {
  return static_cast<char>('0' + static_cast<int>(r.outcome));
}

std::string outcome_string(const std::vector<campaign::RunResult>& results) {
  std::string s;
  for (const campaign::RunResult& r : results) s += outcome_char(r);
  return s;
}

/// Each --seed names a block of campaign plans: unit i of a run injects the
/// plan of campaign seed seed * kPlansPerSeed + i % kPlansPerSeed.  About one
/// 16-run plan in ten holds a hang run (each costs about twelve normal
/// runs), so one plan per seed would make throughput a property of the seed.
/// A 20 s run holds fewer units than the block has plans.
constexpr u32 kPlansPerSeed = 32;

u64 plan_seed(u64 seed, u32 unit) { return seed * kPlansPerSeed + unit % kPlansPerSeed; }

/// Runs at other seeds are checked against the classic path on this fixed
/// sample of plan indices.
constexpr u32 kSampleStride = 8;

/// Classic outcome (run_one_with_budget) of every `stride`-th record of the
/// plan `spec` names; '?' marks a record not run.
std::string classic_outcomes(const campaign::CampaignSpec& spec,
                             const campaign::WorkloadSetup& setup,
                             const campaign::GoldenRun& golden, u32 stride) {
  campaign::CampaignRunner runner;
  const campaign::InjectionPlan plan = runner.plan_for(spec, golden, setup);
  std::string outcomes(spec.runs, '?');
  for (u32 i = 0; i < spec.runs; i += stride) {
    outcomes[i] = outcome_char(
        runner.run_one_with_budget(setup, golden, plan.record(i), hang_budget(golden, spec)));
  }
  return outcomes;
}

/// Expected outcome per run index of one unit's plan: pinned, else the
/// classic outcome of each sampled record.
std::string expected_outcomes(const Pins& pins, u64 campaign_seed,
                              const campaign::WorkloadSetup& setup,
                              const campaign::GoldenRun& golden, Report& report) {
  if (const auto* pinned = pins.find("campaign", campaign_seed)) {
    const auto it = pinned->find("outcomes");
    report.check(it != pinned->end() && it->second.size() == kCampaignRuns,
                 "pinned campaign outcomes present");
    if (it != pinned->end()) return it->second;
  }
  return classic_outcomes(campaign_spec(campaign_seed, false), setup, golden, kSampleStride);
}

void check_outcomes(Report& report, const std::string& expected, const std::string& got,
                    const std::string& what) {
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (expected[i] == '?') continue;
    report.check(i < got.size() && got[i] == expected[i],
                 what + ": run " + std::to_string(i) + " outcome " +
                     (i < got.size() ? std::string(1, got[i]) : "-") + ", classic " +
                     expected[i]);
  }
}

/// Simulated statistics of a campaign's golden program: one cycle-accurate
/// replay on a machine whose counters the benchmark can read.
Counters golden_counters(const campaign::WorkloadSetup& setup, const campaign::GoldenRun& golden) {
  os::Machine machine(setup.machine);
  os::GuestOs guest(machine, setup.os);
  guest.load(golden.program);
  for (isa::ModuleId id : setup.host_enables) guest.enable_module(id);
  guest.run();
  return read_counters(machine, guest);
}

struct CampaignSetup {
  campaign::WorkloadSetup setup;
  std::shared_ptr<const campaign::GoldenRun> golden;
  double setup_s = 0, golden_s = 0;
};

/// Set-up of a campaign: build the workload and warm a fresh golden cache.
CampaignSetup campaign_setup(campaign::GoldenCache& cache) {
  Span span("campaign.setup");
  CampaignSetup s;
  {
    Span generate("workloads.generate");
    s.setup = campaign::make_workload(kCampaignWorkload);
  }
  Span golden("campaign.golden");
  s.golden = cache.get(s.setup);
  s.golden_s = golden.stop();
  s.setup_s = span.stop();
  return s;
}

void run_campaign(const Options& opt, const Pins& pins, Report& report, bool fork) {
  const std::string name = fork ? "campaign-fork" : "campaign-ff";
  UnitTimes t;
  std::unique_ptr<campaign::GoldenCache> cache;
  CampaignSetup s;
  const auto set_up_campaign = [&] {
    cache = std::make_unique<campaign::GoldenCache>();
    s = campaign_setup(*cache);
  };
  set_up_campaign();
  if (const auto* pinned = pins.find("campaign", plan_seed(opt.seed, 0))) {
    for (const auto& [key, value] :
         {std::pair<std::string, u64>{"golden.cycles", s.golden->cycles},
          std::pair<std::string, u64>{"golden.instructions", s.golden->instructions}}) {
      const auto it = pinned->find(key);
      report.check(it != pinned->end() && it->second == std::to_string(value),
                   "pinned " + key + ", got " + std::to_string(value));
    }
  }
  std::map<u64, std::string> outcomes;  // campaign seed -> outcome per run
  u32 unit = 0;
  measure(opt.seconds, t, [&] {
    repeat_setups([&] {
      set_up_campaign();
      t.setup_s.push_back(s.setup_s);
    });
    const campaign::CampaignSpec spec = campaign_spec(plan_seed(opt.seed, unit++), fork);
    campaign::CampaignRunner runner(cache.get());
    Span span("campaign.run");
    const campaign::CampaignReport rep = runner.run(spec);
    const double unit_s = span.stop();
    outcomes[spec.seed] = outcome_string(rep.results);
    report.check(rep.results.size() == spec.runs, name + " classifies every run");
    double cycles = 0;
    for (const campaign::RunResult& r : rep.results) cycles += static_cast<double>(r.cycles);
    t.mcycles_per_s.push_back(cycles / unit_s / 1e6);
    t.runs_per_s.push_back(static_cast<double>(rep.results.size()) / unit_s);
  });
  // Outcome checks after the clock stops: each plan's runs against their
  // pinned or classic outcomes.
  for (const auto& [campaign_seed, got] : outcomes) {
    check_outcomes(report,
                   expected_outcomes(pins, campaign_seed, s.setup, *s.golden, report), got,
                   name + " plan " + std::to_string(campaign_seed));
  }
  if (opt.print_pins) {
    std::cout << "campaign " << plan_seed(opt.seed, 0) << " golden.cycles " << s.golden->cycles
              << "\n"
              << "campaign " << plan_seed(opt.seed, 0) << " golden.instructions "
              << s.golden->instructions << "\n";
    // Classic outcomes of every record, so a mode that diverges from the
    // classic path is never pinned as correct.
    for (u32 i = 0; i < kPlansPerSeed; ++i) {
      std::cout << "campaign " << plan_seed(opt.seed, i) << " outcomes "
                << classic_outcomes(campaign_spec(plan_seed(opt.seed, i), fork), s.setup,
                                    *s.golden, 1)
                << "\n";
    }
  }
  if (!opt.trace) {
    report_end_to_end(report, t);
    return;
  }
  // Set-up split of the campaign workload: generation, assembly, load.
  repeat_setups([&] {
    Span generate("workloads.generate");
    const campaign::WorkloadSetup setup = campaign::make_workload(kCampaignWorkload);
    t.generate_s.push_back(generate.stop());
    Span assemble("isa.assemble");
    const isa::Program program = isa::assemble(setup.source);
    t.assemble_s.push_back(assemble.stop());
    Span load("os.load");
    os::Machine machine(setup.machine);
    os::GuestOs guest(machine, setup.os);
    guest.load(program);
    t.load_s.push_back(load.stop());
  });
  report_traced_rates(report, t);
  report_setup_split(report, t);
  report_simulated(report, golden_counters(s.setup, *s.golden));
}

// ---------------------------------------------------------------------------
// The layer suite (traced runs only).

/// Table 4's four configurations of the place program: host cost per
/// simulated cycle with and without the framework and the ICM.
void table4_split(const Options& opt, Report& report) {
  Span span("suite.table4");
  struct Config {
    const char* name;
    bool framework;
    bool instrumented;
  };
  const Config configs[] = {{"suite.table4.baseline", false, false},
                            {"suite.table4.framework", true, false},
                            {"suite.table4.framework_icm", true, true},
                            {"suite.table4.baseline_chk", false, true}};
  double ns_per_cycle[4] = {};
  u64 il1_accesses[4] = {};
  for (int i = 0; i < 4; ++i) {
    Span config_span(configs[i].name);
    const SimRun r = simulate(
        [&] { return place_config(opt.seed, configs[i].framework, configs[i].instrumented); });
    report.check(r.guest->finished() && r.guest->exit_code() == 0,
                 std::string(configs[i].name) + " exits 0");
    ns_per_cycle[i] = 1e9 * r.run_s / static_cast<double>(r.machine->now());
    il1_accesses[i] = r.machine->il1().stats().accesses;
  }
  report.metric("cpu.host_ns_per_cycle_bare", ns_per_cycle[0], "ns");
  report.metric("rse.framework_host_overhead", ratio(ns_per_cycle[1], ns_per_cycle[0]), "ratio");
  report.metric("modules.icm.host_overhead", ratio(ns_per_cycle[2], ns_per_cycle[1]), "ratio");
  report.metric("mem.il1.chk_access_growth",
                ratio(static_cast<double>(il1_accesses[3]), static_cast<double>(il1_accesses[0])),
                "ratio");
}

/// The Figure 9 pair at 8 threads: host time with DDT over without, plus the
/// OS and DDT work counts of the DDT run.
void fig9_pair(const Options& opt, Report& report) {
  Span span("suite.fig9");
  double host_s[2] = {};
  Counters with_ddt;
  std::string outputs[2];
  for (int ddt = 0; ddt < 2; ++ddt) {
    Span run_span(ddt ? "suite.fig9.ddt" : "suite.fig9.no_ddt");
    const SimRun r = simulate([&] { return server_config(opt.seed, ddt == 1); });
    report.check(r.guest->finished() && r.guest->exit_code() == 0 &&
                     r.guest->network().stats().completed == 100,
                 "fig9 server completes");
    host_s[ddt] = r.run_s;
    outputs[ddt] = r.guest->output();
    if (ddt) with_ddt = read_counters(*r.machine, *r.guest);
  }
  report.check(outputs[0] == outputs[1], "fig9 server output is the same with DDT");
  report.metric("modules.ddt.host_overhead", ratio(host_s[1], host_s[0]), "ratio");
  for (const char* name : {"os.context_switches", "os.pages_saved", "modules.ddt.tracked_stores",
                           "modules.ddt.dependencies"}) {
    report.metric(name, static_cast<double>(counter(with_ddt, name)), "count");
  }
}

/// A fresh machine/guest pair with the campaign workload loaded, as every
/// campaign run builds one.
struct LoadedGuest {
  std::unique_ptr<os::Machine> machine;
  std::unique_ptr<os::GuestOs> guest;

  LoadedGuest(const campaign::WorkloadSetup& setup, const campaign::GoldenRun& golden,
              Cycle budget) {
    os::OsConfig os_config = setup.os;
    os_config.run_limit = budget;
    machine = std::make_unique<os::Machine>(setup.machine);
    guest = std::make_unique<os::GuestOs>(*machine, os_config);
    guest->load(golden.program);
    for (isa::ModuleId id : setup.host_enables) guest->enable_module(id);
  }
};

/// Both campaign modes, step by step from outside CampaignRunner::run: the
/// golden run, the plan, the boundary replay and snapshot chain, every run
/// of the plan through run_one_fast_forward and run_one_forked at jobs 1,
/// aggregation, the fast engine alone, and snapshot capture/restore.  Whole
/// campaigns at jobs 1 and jobs 2 give the pool efficiency.  The suite's plan
/// has kSuiteRuns runs, every one checked against its classic outcome.
constexpr u32 kSuiteRuns = 32;

void campaign_split(const Options& opt, Report& report) {
  Span span("suite.campaign");
  // Golden run on a fresh cache, three times; the last cache serves the rest.
  campaign::GoldenCache cache;
  CampaignSetup s;
  std::vector<double> golden_s;
  for (int i = 0; i < 3; ++i) {
    campaign::GoldenCache fresh;
    golden_s.push_back(campaign_setup(fresh).golden_s);
  }
  s = campaign_setup(cache);
  golden_s.push_back(s.golden_s);
  const campaign::GoldenRun& golden = *s.golden;
  report.metric("campaign.golden_ms", 1e3 * median(golden_s), "ms");
  const u64 campaign_seed = plan_seed(opt.seed, 0);
  campaign::CampaignRunner runner(&cache);
  const campaign::CampaignSpec ff_spec = campaign_spec(campaign_seed, false, kSuiteRuns);
  const campaign::CampaignSpec fork_spec = campaign_spec(campaign_seed, true, kSuiteRuns);
  const std::string expected = classic_outcomes(ff_spec, s.setup, golden, 1);
  const Cycle budget = hang_budget(golden, ff_spec);

  std::vector<campaign::InjectionRecord> records;
  {
    Span plan_span("campaign.plan");
    const campaign::InjectionPlan plan = runner.plan_for(ff_spec, golden, s.setup);
    for (u32 i = 0; i < kSuiteRuns; ++i) records.push_back(plan.record(i));
    report.metric("campaign.plan_ms", 1e3 * plan_span.stop(), "ms");
  }

  // Whole campaigns at jobs 1 and jobs 2, run in the order 1, 2, 2, 1 so
  // that a host drifting in speed weighs on both alike.  Pool efficiency =
  // runs/s at jobs 2 / (2 x runs/s at jobs 1); it also returns the fast-forward
  // stats of the last jobs-2 run.
  const auto pool_efficiency = [&](const campaign::CampaignSpec& spec, const char* serial,
                                   const char* pooled, const char* metric) {
    const auto timed_run = [&](u32 jobs, const char* what) {
      campaign::CampaignSpec run_spec = spec;
      run_spec.jobs = jobs;
      Span run_span(what);
      const campaign::CampaignReport rep = runner.run(run_spec);
      const double seconds = run_span.stop();
      check_outcomes(report, expected, outcome_string(rep.results), std::string("suite ") + what);
      return seconds;
    };
    double serial_s = timed_run(1, serial);
    double pooled_s = timed_run(kCampaignJobs, pooled);
    pooled_s += timed_run(kCampaignJobs, pooled);
    const campaign::FastForwardStats ff = runner.fast_forward_stats();
    serial_s += timed_run(1, serial);
    report.metric(metric, ratio(serial_s, kCampaignJobs * pooled_s), "ratio");
    return ff;
  };
  {
    const campaign::FastForwardStats ff = pool_efficiency(
        ff_spec, "campaign.run.ff.jobs1", "campaign.run.ff", "campaign.ff.pool_efficiency");
    report.metric("exec.fast_share",
                  ratio(static_cast<double>(ff.fast),
                        static_cast<double>(ff.fast + ff.fallbacks())),
                  "ratio");
    const std::pair<const char*, u64> fallbacks[] = {
        {"exec.fallback.target", ff.fallback_target},
        {"exec.fallback.unmapped", ff.fallback_unmapped},
        {"exec.fallback.conflict", ff.fallback_conflict},
        {"exec.fallback.checked", ff.fallback_checked},
        {"exec.fallback.syscall", ff.fallback_syscall},
        {"exec.fallback.suspend", ff.fallback_suspend},
        {"exec.fallback.illegal", ff.fallback_illegal},
        {"exec.fallback.other", ff.fallback_other}};
    for (const auto& [name, value] : fallbacks) {
      report.metric(name, static_cast<double>(value), "count");
    }
  }
  pool_efficiency(fork_spec, "campaign.run.fork.jobs1", "campaign.run.fork",
                  "campaign.fork.pool_efficiency");

  // Fast-forward mode, one run at a time.
  exec::FastForwardController::BoundaryMap boundaries;
  exec::FastForwardController::SyscallSchedule schedule;
  double boundary_s = 0;
  {
    std::vector<Cycle> cycles;
    for (const campaign::InjectionRecord& r : records) {
      if (r.target == campaign::InjectTarget::kRegisterBit ||
          r.target == campaign::InjectTarget::kInstructionWord ||
          r.target == campaign::InjectTarget::kDataWord) {
        cycles.push_back(r.inject_cycle);
      }
    }
    LoadedGuest g(s.setup, golden, budget);
    Span map_span("exec.map_boundaries");
    boundaries = exec::FastForwardController::map_boundaries(*g.guest, std::move(cycles),
                                                             &schedule);
    boundary_s = map_span.stop();
  }
  report.metric("campaign.boundary_map_ms", 1e3 * boundary_s, "ms");
  std::vector<campaign::RunResult> ff_results;
  std::vector<double> ff_run_s;
  for (const campaign::InjectionRecord& record : records) {
    Span run_span("campaign.run_one_fast_forward");
    ff_results.push_back(
        runner.run_one_fast_forward(s.setup, golden, record, budget, boundaries, &schedule));
    ff_run_s.push_back(run_span.stop());
  }
  check_outcomes(report, expected, outcome_string(ff_results), "run_one_fast_forward");
  // The fast prefix alone, for every record with a mapped boundary.
  std::vector<double> prefix_s;
  for (const campaign::InjectionRecord& record : records) {
    const auto boundary = boundaries.find(record.inject_cycle);
    if (boundary == boundaries.end()) continue;
    LoadedGuest g(s.setup, golden, budget);
    Span prefix_span("exec.fast_forward_to");
    exec::FastForwardController::fast_forward_to(*g.guest, golden.program,
                                                 boundary->second.position, record.inject_cycle,
                                                 &schedule);
    prefix_s.push_back(prefix_span.stop());
  }
  report.metric("exec.prefix_ms.p50", 1e3 * median(prefix_s), "ms");
  {
    // The fast engine over the whole program (relaxed syscalls, as rse_run
    // --fast runs it).
    LoadedGuest g(s.setup, golden, budget);
    exec::FastSessionConfig config;
    config.relaxed = true;
    exec::FastSession session(*g.guest, config);
    session.seed_leaders(golden.program);
    Span run_span("exec.run_until");
    session.run_until(~u64{0});
    const double run_s = run_span.stop();
    report.check(session.executed() > 0, "fast engine executes the golden program");
    report.metric("exec.fast_mips", static_cast<double>(session.executed()) / run_s / 1e6,
                  "Minstr/s");
  }

  // Checkpoint-fork mode, one run at a time.
  double chain_s = 0;
  campaign::SnapshotChain chain;
  {
    Span chain_span("campaign.build_snapshot_chain");
    chain = runner.build_snapshot_chain(s.setup, golden, fork_spec, budget, false);
    chain_s = chain_span.stop();
  }
  report.metric("campaign.snapshot_chain_ms", 1e3 * chain_s, "ms");
  std::vector<campaign::RunResult> fork_results;
  std::vector<double> fork_run_s;
  for (const campaign::InjectionRecord& record : records) {
    Span run_span("campaign.run_one_forked");
    fork_results.push_back(runner.run_one_forked(s.setup, golden, record, budget, chain));
    fork_run_s.push_back(run_span.stop());
  }
  check_outcomes(report, expected, outcome_string(fork_results), "run_one_forked");
  // Capture and restore alone: the chain's from-reset pass, timing each
  // MachineSnapshot::capture, then each snapshot restored into a fresh pair.
  std::vector<double> capture_s, restore_s, snapshot_kb;
  {
    LoadedGuest g(s.setup, golden, budget);
    for (const os::MachineSnapshot& snap : chain.snaps) {
      while (!g.guest->finished() && g.machine->now() < snap.at) g.guest->step();
      Span capture_span("os.snapshot.capture");
      const os::MachineSnapshot captured = os::MachineSnapshot::capture(*g.machine, *g.guest);
      capture_s.push_back(capture_span.stop());
      // Only the cycle is compared: two fresh machines already serialize
      // different bytes in the cache section of the archive.
      report.check(captured.at == snap.at && captured.bytes.size() == snap.bytes.size(),
                   "snapshot capture reproduces the chain's cycle and size");
      snapshot_kb.push_back(static_cast<double>(captured.bytes.size()) / 1024.0);
    }
  }
  for (const os::MachineSnapshot& snap : chain.snaps) {
    LoadedGuest g(s.setup, golden, budget);
    Span restore_span("os.snapshot.restore");
    os::MachineSnapshot::restore(snap, *g.machine, *g.guest);
    restore_s.push_back(restore_span.stop());
  }
  report.metric("os.snapshot_capture_ms", 1e3 * median(capture_s), "ms");
  report.metric("os.snapshot_restore_ms.p50", 1e3 * median(restore_s), "ms");
  report.metric("os.snapshot_kb", median(snapshot_kb), "KiB");

  double aggregate_s = 0;
  u32 hangs = 0;
  {
    Span agg_span("campaign.aggregate");
    const campaign::CampaignReport rep =
        campaign::aggregate(ff_spec, golden.cycles, golden.instructions, ff_results, 0.0);
    aggregate_s = agg_span.stop();
    hangs = rep.by_outcome[static_cast<std::size_t>(campaign::Outcome::kHang)];
  }
  report.metric("campaign.ff.run_ms.p50", 1e3 * median(ff_run_s), "ms");
  report.metric("campaign.ff.run_ms.p90", 1e3 * percentile(ff_run_s, 0.9), "ms");
  report.metric("campaign.fork.run_ms.p50", 1e3 * median(fork_run_s), "ms");
  report.metric("campaign.fork.run_ms.p90", 1e3 * percentile(fork_run_s, 0.9), "ms");
  report.metric("campaign.aggregate_ms", 1e3 * aggregate_s, "ms");
  report.metric("campaign.hang_runs", hangs, "count");
  report.metric("campaign.golden_cache_hits", static_cast<double>(cache.hits()), "count");
  report.metric("campaign.golden_cache_misses", static_cast<double>(cache.misses()), "count");
}

void layer_suite(const Options& opt, Report& report) {
  table4_split(opt, report);
  fig9_pair(opt, report);
  campaign_split(opt, report);
}

std::string host_json() {
  std::ostringstream out;
  out << "{\"nproc\": " << std::thread::hardware_concurrency() << ", \"compiler\": \""
      << RSEBENCH_COMPILER << "\", \"build_type\": \"" << RSEBENCH_BUILD_TYPE << "\"}";
  return out.str();
}

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "rsebench: " << error << "\n"
            << "usage: rsebench --workload place-icm|server-ddt|campaign-ff|campaign-fork\n"
               "                --seed N --seconds S --trace 0|1\n"
               "                [--pins rsebench/pins.txt] [--spans FILE] [--print-pins]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--print-pins") {
      opt.print_pins = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = value;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (arg == "--pins") {
        opt.pins = value;
      } else if (arg == "--spans") {
        opt.spans = value;
      } else {
        usage("unknown option " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + value);
    }
  }
  if (opt.workload.empty() || !have_seed) usage("--workload and --seed are required");
  if (!(opt.seconds > 0)) usage("--seconds must be positive");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  Pins pins;
  if (!pins.load(opt.pins)) {
    std::cerr << "rsebench: cannot read pins file " << opt.pins << "\n";
    return 2;
  }
  g_tracer.set_enabled(opt.trace);
  Report report;
  try {
    if (opt.workload == "place-icm") {
      run_place(opt, pins, report);
    } else if (opt.workload == "server-ddt") {
      run_server(opt, pins, report);
    } else if (opt.workload == "campaign-ff") {
      run_campaign(opt, pins, report, /*fork=*/false);
    } else if (opt.workload == "campaign-fork") {
      run_campaign(opt, pins, report, /*fork=*/true);
    } else {
      usage("unknown workload " + opt.workload);
    }
    if (opt.trace) layer_suite(opt, report);
  } catch (const std::exception& e) {
    std::cerr << "rsebench: " << e.what() << "\n";
    return 1;
  }
  std::cout << "host " << host_json() << "\n";
  if (opt.trace && !g_tracer.write(opt.spans, host_json())) {
    std::cerr << "rsebench: cannot write spans to " << opt.spans << "\n";
    return 1;
  }
  report.print();
  return 0;
}
