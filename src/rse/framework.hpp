// The Reliability and Security Engine framework (paper section 3).
//
// The framework owns the input interface (latched pipeline taps), the
// Instruction Output Queue, the Memory Access Unit, the module
// enable/disable unit, and the self-checking watchdog.  The simulated core
// calls the on_* methods as instructions move through the pipeline; the
// machine ticks the framework once per cycle after the core.  Events pushed
// by the core in cycle N become visible to modules in cycle N+1 (the input
// latch of Table 3).
//
// Host cost follows what the modules consume: each event kind (and the
// tick) goes only to the modules that declared its handler, an event kind
// that no registered module handles is never queued, an event of a kind no
// *enabled* module handles is held aside and dropped unread unless a module
// is enabled before its delivery cycle, and the self-check's full IOQ scan
// runs only in cycles where it could trip or change state
// (docs/architecture.md, "Event routing and the self-check gate").
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <variant>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "isa/instruction.hpp"
#include "mem/bus.hpp"
#include "mem/main_memory.hpp"
#include "rse/frame_types.hpp"
#include "rse/input_queues.hpp"
#include "rse/ioq.hpp"
#include "rse/mau.hpp"
#include "rse/module.hpp"

namespace rse::engine {

/// Framework-level CHECK operations (module# = kFramework).
inline constexpr u8 kFrameOpEnableModule = 1;   // imm12 = module id
inline constexpr u8 kFrameOpDisableModule = 2;  // imm12 = module id

/// Why the self-checking logic decoupled the framework (Table 2).
enum class SelfCheckVerdict : u8 {
  kOk,
  kNoProgress,       // CHECK never completed within the watchdog timeout
  kFalseAlarmStorm,  // too many check=1 transitions within the window
  kStuckAt1,         // output bit of a free IOQ entry stuck at 1
};

struct SelfCheckConfig {
  bool enabled = true;
  // Long enough for the slowest legitimate blocking CHECK (an MLR GOT copy
  // moves two 4 KB buffers over the bus, ~3k cycles); tests shrink it.
  Cycle watchdog_timeout = 50'000;
  u32 alarm_threshold = 8;  // check 0->1 transitions per window
};

struct FrameworkStats {
  u64 dispatches_seen = 0;
  u64 chk_instructions = 0;
  u64 commits_seen = 0;
  u64 squashes_seen = 0;
  u64 errors_reported = 0;       // check=1 results delivered to the pipeline
  /// errors_reported attributed to the module owning the IOQ entry (index =
  /// isa::ModuleId) — campaign classification credits detections with this.
  std::array<u64, isa::kNumModuleIds> errors_by_module{};
  u64 module_enables = 0;
  u64 module_disables = 0;
  u64 selfcheck_trips = 0;
  Cycle selfcheck_trip_cycle = 0;  // cycle of the first decoupling (0 = never)
};

class Framework {
 public:
  /// `ruu_entries` sizes every queue (one entry per re-order buffer slot).
  Framework(mem::MainMemory& memory, mem::BusArbiter& bus, u32 ruu_entries);

  // ---- construction-time wiring ----
  /// Register a module and route it the handlers it declares.  Every module
  /// must be registered before the first pipeline event reaches the
  /// framework (events already queued were filtered by the routing of their
  /// time); a late registration throws SimError.
  void add_module(std::unique_ptr<Module> module);
  Module* module(isa::ModuleId id) const;
  Mau& mau() { return mau_; }
  Ioq& ioq() { return ioq_; }
  InputQueues& queues() { return queues_; }
  mem::MainMemory& memory() { return *memory_; }

  /// Observer invoked when the self-checking logic decouples the framework.
  void set_selfcheck_observer(std::function<void(SelfCheckVerdict, Cycle)> observer) {
    selfcheck_observer_ = std::move(observer);
  }
  void set_selfcheck_config(SelfCheckConfig config) {
    selfcheck_ = config;
    scan_forced_ = true;
  }

  // ---- pipeline-facing interface ----
  void on_dispatch(const DispatchInfo& info, Cycle now);
  void on_execute(const ExecuteInfo& info, Cycle now) {
    queues_.execute_out.latch(info.tag.slot, info, info.tag.seq, now);
    latch(info, execute_modules_, now);
  }
  void on_mem_load(const MemoryInfo& info, Cycle now) {
    // Memory_Out is latched for module reads; no module handler consumes it.
    queues_.memory_out.latch(info.tag.slot, info, info.tag.seq, now);
  }

  /// Commit notification.  For stores, called before the value reaches
  /// memory; the returned stall is charged to the commit stage (SavePage).
  Cycle on_commit(const CommitInfo& info, Cycle now);

  void on_squash(const InstrTag& tag, Cycle now);

  /// The commit unit observed check=1 for this slot and is about to flush
  /// the pipeline.  Feeds the watchdog's per-entry error-transition counter
  /// (section 3.4): too many error indications within the window — whether
  /// from a module that always alarms or from a stuck-at-1 check bit —
  /// declare the framework erroneous and decouple it.
  void on_check_error(u32 slot, Cycle now);

  /// The check bits the commit unit observes for a slot (constant (1,0) once
  /// the framework has decoupled itself into safe mode).
  Ioq::CheckBits check_bits(u32 slot) const {
    if (safe_mode_) return Ioq::CheckBits{true, false};
    return ioq_.observed(slot);
  }

  // ---- module-facing interface ----
  /// Write a module's check result to the IOQ, applying any injected module
  /// fault mode and the safe-mode override.
  void module_write_ioq(Module& module, const InstrTag& tag, bool check_valid, bool check,
                        Cycle now);

  // ---- per-cycle advance ----
  void tick(Cycle now);

  // ---- safe mode / self-check ----
  bool safe_mode() const { return safe_mode_; }
  SelfCheckVerdict verdict() const { return verdict_; }
  /// Re-couple the framework after a safe-mode trip (used by tests/OS).
  void recouple();

  const FrameworkStats& stats() const { return stats_; }

  /// Reset transient state between guest runs (modules, queues, IOQ).
  void reset();

  /// Snapshot hook: queues, IOQ, MAU, the latched event stream and the
  /// self-check state.  Module-internal state is serialized separately (the
  /// machine walks its typed module pointers); the self-check observer and
  /// module wiring are reconstructed by the normal construction path.
  /// Requires mau().idle() at capture time — see Mau::serialize_state.  The
  /// self-check gate is derived state: a restore forces one full scan, which
  /// rebuilds it.
  template <class Ar>
  void serialize_state(Ar& ar) {
    ar.marker(0x46524D57u);  // "FRMW"
    ar.field(queues_);
    ar.field(ioq_);
    ar.field(mau_);
    // The archive holds every latched event, held-aside ones in their
    // place, so it does not depend on which modules were enabled; a restore
    // queues them all (delivery still skips disabled modules).
    if constexpr (Ar::kIsWriter) {
      std::vector<PendingEvent> latched = latched_events();
      ar.field(latched);
    } else {
      ar.field(pending_);
      held_.clear();
      pending_head_ = 0;
      held_head_ = 0;
      queued_ = pending_.size();
    }
    ar.field(safe_mode_);
    ar.field(verdict_);
    ar.field(alarm_counts_);
    ar.field(alarm_window_start_);
    ar.field(free_high_since_);
    ar.field(stats_);
    if constexpr (!Ar::kIsWriter) scan_forced_ = true;
  }

 private:
  /// A latched event awaiting delivery; the payload's alternative names the
  /// handler (a bare InstrTag is a squash).
  struct PendingEvent {
    std::variant<DispatchInfo, ExecuteInfo, CommitInfo, InstrTag> event;
    Cycle visible_from = 0;

    template <class Ar>
    void serialize_state(Ar& ar);
  };

  /// An event held aside because no enabled module handled its kind when it
  /// was latched.  `position` counts the pending_ events queued before it;
  /// `enables` is enables_ at that time (no enable since: nobody to deliver to).
  struct HeldEvent {
    PendingEvent pending;
    u64 position = 0;
    u64 enables = 0;
  };

  friend class Module;  // set_enabled counts enables

  static bool any_enabled(const std::vector<Module*>& modules) {
    for (const Module* module : modules) {
      if (module->enabled()) return true;
    }
    return false;
  }

  /// Queue an event for the modules in `handlers`, or hold it aside when
  /// none of them is enabled.
  template <class Event>
  void latch(const Event& event, const std::vector<Module*>& handlers, Cycle now) {
    if (any_enabled(handlers)) {
      pending_.push_back({event, now + 1});
      ++queued_;
    } else if (!handlers.empty()) {
      held_.push_back({{event, now + 1}, queued_, enables_});
    }
  }

  std::vector<PendingEvent> latched_events() const;
  void deliver(const PendingEvent& pending, Cycle now);
  void handle_frame_chk(const isa::Instr& instr, Cycle now);
  void run_selfcheck(Cycle now);
  void trip_selfcheck(SelfCheckVerdict verdict, Cycle now);

  mem::MainMemory* memory_;
  InputQueues queues_;
  Ioq ioq_;
  Mau mau_;
  std::vector<std::unique_ptr<Module>> modules_;
  std::array<Module*, isa::kNumModuleIds> by_id_{};

  // Handler routing, in registration order: the modules that declared each
  // handler (whether enabled is checked at delivery).
  std::vector<Module*> tick_modules_;
  std::vector<Module*> dispatch_modules_;
  std::vector<Module*> execute_modules_;
  std::vector<Module*> commit_modules_;
  std::vector<Module*> store_commit_modules_;
  std::vector<Module*> squash_modules_;

  // Events latched this cycle and last cycle, oldest first, from the head
  // index on (the delivered prefix is dropped in batches).  The vectors are
  // reused, so steady-state delivery allocates nothing.  held_ holds the
  // events no enabled module handled when latched (derived ordering state:
  // queued_ counts pushes to pending_, enables_ counts module enables).
  std::vector<PendingEvent> pending_;
  std::vector<HeldEvent> held_;
  std::size_t pending_head_ = 0;
  std::size_t held_head_ = 0;
  u64 queued_ = 0;
  u64 enables_ = 0;

  // self-checking state
  SelfCheckConfig selfcheck_;
  bool safe_mode_ = false;
  SelfCheckVerdict verdict_ = SelfCheckVerdict::kOk;
  std::function<void(SelfCheckVerdict, Cycle)> selfcheck_observer_;
  std::vector<u32> alarm_counts_;       // per-slot check 0->1 transitions in window
  Cycle alarm_window_start_ = 0;
  std::vector<Cycle> free_high_since_;  // per-slot: first cycle a free entry read as 1

  // Self-check gate (derived, never serialized).  The full scan runs only
  // when one of these, or the IOQ's stuck fault or awaiting bounds, says it
  // could trip or change state; each full scan recomputes them.
  bool scan_forced_ = true;       // config change, recouple or restore
  bool alarm_over_ = false;       // some alarm count passed the threshold
  bool free_high_armed_ = false;  // some free_high_since_ entry is set

  FrameworkStats stats_;
};

inline Cycle Framework::on_commit(const CommitInfo& info, Cycle now) {
  ++stats_.commits_seen;
  Cycle stall = 0;
  const bool is_store = info.instr.op_class() == isa::OpClass::kStore;
  if (is_store) {
    // SavePage-style checks must intercept the store before it writes
    // memory, so store commits are delivered synchronously.
    for (Module* module : store_commit_modules_) {
      if (module->enabled()) stall += module->on_store_commit(info, now);
    }
  }
  latch(info, commit_modules_, now);
  // The IOQ entry and queue registers are freed as the commit signal removes
  // the instruction's data from the input queues (section 3.1).
  ioq_.free(info.tag);
  queues_.fetch_out.invalidate(info.tag.slot, info.tag.seq);
  queues_.execute_out.invalidate(info.tag.slot, info.tag.seq);
  queues_.memory_out.invalidate(info.tag.slot, info.tag.seq);
  return stall;
}

inline void Framework::on_squash(const InstrTag& tag, Cycle now) {
  ++stats_.squashes_seen;
  ioq_.free(tag);
  queues_.fetch_out.invalidate(tag.slot, tag.seq);
  queues_.execute_out.invalidate(tag.slot, tag.seq);
  queues_.memory_out.invalidate(tag.slot, tag.seq);
  latch(tag, squash_modules_, now);
}

template <class Ar>
void Framework::PendingEvent::serialize_state(Ar& ar) {
  u8 kind = static_cast<u8>(event.index());
  ar.field(kind);
  ar.field(visible_from);
  if constexpr (!Ar::kIsWriter) {
    switch (kind) {
      case 0: event.emplace<0>(); break;
      case 1: event.emplace<1>(); break;
      case 2: event.emplace<2>(); break;
      case 3: event.emplace<3>(); break;
      default: throw SimError("snapshot restore: bad framework event kind");
    }
  }
  std::visit([&ar](auto& payload) { ar.field(payload); }, event);
}

}  // namespace rse::engine
