#include "rse/framework.hpp"

#include <cassert>
#include <string>

namespace rse::engine {

namespace {

/// Drop the delivered prefix [0, head) of a latched-event vector: at once
/// when nothing is left, otherwise only after a few cycles' worth, so the
/// undelivered tail is rarely moved.
template <class T>
void drop_delivered(std::vector<T>& events, std::size_t& head) {
  constexpr std::size_t kMoveAfter = 64;
  if (head == events.size()) {
    events.clear();
    head = 0;
  } else if (head >= kMoveAfter) {
    events.erase(events.begin(), events.begin() + static_cast<std::ptrdiff_t>(head));
    head = 0;
  }
}

}  // namespace

void Module::set_enabled(bool enabled) {
  if (enabled && !enabled_) ++fw_->enables_;
  enabled_ = enabled;
  if (!enabled) reset();
}

Framework::Framework(mem::MainMemory& memory, mem::BusArbiter& bus, u32 ruu_entries)
    : memory_(&memory),
      queues_(ruu_entries),
      ioq_(ruu_entries),
      mau_(memory, bus),
      alarm_counts_(ruu_entries, 0),
      free_high_since_(ruu_entries, 0) {}

void Framework::add_module(std::unique_ptr<Module> module) {
  // Routing is fixed once events flow: every pipeline event begins with its
  // instruction's dispatch (or, in unit tests, a bare commit or squash).
  if (stats_.dispatches_seen != 0 || stats_.commits_seen != 0 || stats_.squashes_seen != 0 ||
      pending_head_ != pending_.size() || held_head_ != held_.size()) {
    throw SimError(std::string("Framework::add_module: module ") + module->name() +
                   " registered after the first pipeline event");
  }
  const auto id = static_cast<std::size_t>(module->id());
  assert(id < by_id_.size() && by_id_[id] == nullptr);
  by_id_[id] = module.get();
  const HandlerSet handlers = module->handlers();
  auto route = [&](Handler handler, std::vector<Module*>& list) {
    if (handlers & handler) list.push_back(module.get());
  };
  route(kHandleTick, tick_modules_);
  route(kHandleDispatch, dispatch_modules_);
  route(kHandleExecute, execute_modules_);
  route(kHandleCommit, commit_modules_);
  route(kHandleStoreCommit, store_commit_modules_);
  route(kHandleSquash, squash_modules_);
  modules_.push_back(std::move(module));
}

Module* Framework::module(isa::ModuleId id) const {
  const auto index = static_cast<std::size_t>(id);
  return index < by_id_.size() ? by_id_[index] : nullptr;
}

void Framework::on_dispatch(const DispatchInfo& info, Cycle now) {
  ++stats_.dispatches_seen;
  const bool is_chk = info.instr.op == isa::Op::kChk;
  if (is_chk) ++stats_.chk_instructions;
  // The enable/disable unit acts as soon as the CHECK reaches the framework:
  // dispatch is in program order, so CHECKs following an enable are already
  // routed to the (now live) module.  Wrong-path CHECKs never take effect.
  if (is_chk && info.instr.chk_module == isa::ModuleId::kFramework && !info.wrong_path) {
    handle_frame_chk(info.instr, now);
  }
  // A CHECK only owes a result when it is addressed to a live (registered
  // and enabled) module; otherwise the enable/disable unit substitutes the
  // constant (checkValid=1, check=0) output.
  bool pending = false;
  if (is_chk && info.instr.chk_module != isa::ModuleId::kFramework) {
    Module* target = module(info.instr.chk_module);
    pending = target != nullptr && target->enabled();
  }
  ioq_.allocate(info.tag, pending, is_chk ? info.instr.chk_module : isa::ModuleId::kFramework,
                now);
  queues_.fetch_out.latch(info.tag.slot, info, info.tag.seq, now);
  latch(info, dispatch_modules_, now);
}

void Framework::module_write_ioq(Module& module, const InstrTag& tag, bool check_valid,
                                 bool check, Cycle now) {
  switch (module.fault_mode()) {
    case ModuleFaultMode::kNone:
      break;
    case ModuleFaultMode::kNoProgress:
      return;  // the module never produces a result
    case ModuleFaultMode::kFalseAlarm:
      check_valid = true;
      check = true;
      break;
    case ModuleFaultMode::kFalseNegative:
      check_valid = true;
      check = false;
      break;
  }
  ioq_.module_write(tag, check_valid, check, now, safe_mode_);
}

void Framework::on_check_error(u32 slot, Cycle now) {
  (void)now;
  ++stats_.errors_reported;
  const Ioq::Entry& entry = ioq_.entry(slot);
  if (entry.allocated) {
    ++stats_.errors_by_module[static_cast<unsigned>(entry.module)];
  }
  if (!safe_mode_ && slot < alarm_counts_.size() &&
      ++alarm_counts_[slot] > selfcheck_.alarm_threshold) {
    alarm_over_ = true;
  }
}

void Framework::handle_frame_chk(const isa::Instr& instr, Cycle now) {
  (void)now;
  const auto target = static_cast<isa::ModuleId>(instr.chk_imm & 0x7);
  Module* m = module(target);
  if (!m) return;
  if (instr.chk_op == kFrameOpEnableModule) {
    m->set_enabled(true);
    ++stats_.module_enables;
  } else if (instr.chk_op == kFrameOpDisableModule) {
    // The enable/disable unit desensitizes the module's path to the IOQ;
    // disabled modules are never routed events nor ticked.
    m->set_enabled(false);
    ++stats_.module_disables;
  }
}

std::vector<Framework::PendingEvent> Framework::latched_events() const {
  std::vector<PendingEvent> events;
  events.reserve(pending_.size() + held_.size());
  const u64 first = queued_ - pending_.size();
  std::size_t held = held_head_;
  for (std::size_t i = pending_head_; i < pending_.size(); ++i) {
    for (; held < held_.size() && held_[held].position <= first + i; ++held) {
      events.push_back(held_[held].pending);
    }
    events.push_back(pending_[i]);
  }
  for (; held < held_.size(); ++held) events.push_back(held_[held].pending);
  return events;
}

void Framework::deliver(const PendingEvent& pending, Cycle now) {
  if (const auto* d = std::get_if<DispatchInfo>(&pending.event)) {
    for (Module* module : dispatch_modules_) {
      if (module->enabled()) module->on_dispatch(*d, now);
    }
  } else if (const auto* e = std::get_if<ExecuteInfo>(&pending.event)) {
    for (Module* module : execute_modules_) {
      if (module->enabled()) module->on_execute(*e, now);
    }
  } else if (const auto* c = std::get_if<CommitInfo>(&pending.event)) {
    for (Module* module : commit_modules_) {
      if (module->enabled()) module->on_commit(*c, now);
    }
  } else if (const auto* tag = std::get_if<InstrTag>(&pending.event)) {
    for (Module* module : squash_modules_) {
      if (module->enabled()) module->on_squash(*tag, now);
    }
  }
}

void Framework::tick(Cycle now) {
  // Delivery walks the latched events in order, held-aside ones in their
  // place.  A held event reaches deliver() only if some module was enabled
  // since it was latched; otherwise no module of its kind is enabled now
  // either, and deliver() would hand it to nobody.
  const u64 first = queued_ - pending_.size();
  std::size_t visible = pending_head_;
  std::size_t held = held_head_;
  auto deliver_held = [&](u64 position) {
    for (; held < held_.size() && held_[held].position <= position &&
           held_[held].pending.visible_from <= now;
         ++held) {
      if (held_[held].enables != enables_) deliver(held_[held].pending, now);
    }
  };
  while (visible < pending_.size() && pending_[visible].visible_from <= now) {
    deliver_held(first + visible);
    deliver(pending_[visible], now);
    ++visible;
  }
  deliver_held(first + visible);
  pending_head_ = visible;
  held_head_ = held;
  drop_delivered(pending_, pending_head_);
  drop_delivered(held_, held_head_);
  mau_.tick(now);
  for (Module* module : tick_modules_) {
    if (module->enabled()) module->tick(now);
  }
  if (selfcheck_.enabled && !safe_mode_) run_selfcheck(now);
}

void Framework::run_selfcheck(Cycle now) {
  // False-alarm storm: reset the per-entry counters each watchdog window.
  if (now - alarm_window_start_ > selfcheck_.watchdog_timeout) {
    alarm_window_start_ = now;
    for (u32& count : alarm_counts_) count = 0;
    alarm_over_ = false;
  }
  // Gate: outside these conditions the scan below would find nothing to
  // trip on and write only zeros over zeros (docs/architecture.md).
  if (!scan_forced_ && !alarm_over_ && !free_high_armed_ &&
      ioq_.injected_fault() == IoqStuckFault::kNone &&
      !ioq_.wait_may_exceed(now, selfcheck_.watchdog_timeout)) {
    return;
  }
  bool free_high_armed = false;
  for (u32 slot = 0; slot < ioq_.size(); ++slot) {
    if (alarm_counts_[slot] > selfcheck_.alarm_threshold) {
      trip_selfcheck(SelfCheckVerdict::kFalseAlarmStorm, now);
      return;
    }
    const Ioq::Entry& entry = ioq_.entry(slot);
    const Ioq::CheckBits observed = ioq_.observed(slot);
    if (entry.allocated && entry.pending_check && !observed.check_valid) {
      // Missing 0->1 transition: module not making progress (or checkValid
      // stuck at 0, which is indistinguishable and handled the same way).
      if (now - entry.allocated_at > selfcheck_.watchdog_timeout) {
        trip_selfcheck(SelfCheckVerdict::kNoProgress, now);
        return;
      }
    }
    if (!entry.allocated && (observed.check_valid || observed.check)) {
      // A free entry should read as 0; a missing 1->0 transition over the
      // watchdog interval means a stuck-at-1 output bit.
      if (free_high_since_[slot] == 0) free_high_since_[slot] = now;
      if (now - free_high_since_[slot] > selfcheck_.watchdog_timeout) {
        trip_selfcheck(SelfCheckVerdict::kStuckAt1, now);
        return;
      }
    } else {
      free_high_since_[slot] = 0;
    }
    if (free_high_since_[slot] != 0) free_high_armed = true;
  }
  // No trip: every alarm count is at or below the threshold.
  scan_forced_ = false;
  alarm_over_ = false;
  free_high_armed_ = free_high_armed;
  ioq_.tighten_awaiting_bounds();
}

void Framework::trip_selfcheck(SelfCheckVerdict verdict, Cycle now) {
  safe_mode_ = true;
  verdict_ = verdict;
  ++stats_.selfcheck_trips;
  if (stats_.selfcheck_trip_cycle == 0) stats_.selfcheck_trip_cycle = now;
  // Decoupling: every allocated entry is released to the pipeline with the
  // constant (checkValid=1, check=0) output.
  for (u32 slot = 0; slot < ioq_.size(); ++slot) {
    const Ioq::Entry& entry = ioq_.entry(slot);
    if (entry.allocated && entry.pending_check) {
      ioq_.module_write(entry.tag, /*check_valid=*/true, /*check=*/false, now,
                        /*safe_mode=*/true);
    }
  }
  if (selfcheck_observer_) selfcheck_observer_(verdict, now);
}

void Framework::recouple() {
  safe_mode_ = false;
  scan_forced_ = true;
  verdict_ = SelfCheckVerdict::kOk;
  alarm_window_start_ = 0;
  for (u32& count : alarm_counts_) count = 0;
  for (Cycle& since : free_high_since_) since = 0;
}

void Framework::reset() {
  pending_.clear();
  held_.clear();
  pending_head_ = 0;
  held_head_ = 0;
  queues_.clear();
  ioq_.free_all();
  for (auto& module : modules_) module->reset();
  recouple();
}

}  // namespace rse::engine
