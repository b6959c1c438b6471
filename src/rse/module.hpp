// Base class for RSE hardware modules (paper section 3.2).
//
// Every module, irrespective of functionality, has (i) a mechanism to scan
// the Fetch_Out queue for CHECK instructions intended for it — modeled by the
// framework routing dispatch events to `on_dispatch` — and (ii) a memory
// buffer for MAU transfers (owned by the concrete module).  Synchronous
// modules hold their CHECK's IOQ entry at checkValid=0 until the check
// completes; asynchronous modules set checkValid immediately and log
// permanent state on the commit signal.
//
// A module declares the handlers it implements (`handlers()`); the framework
// routes each event kind, and the per-cycle tick, only to the modules that
// declared it.
#pragma once

#include "common/types.hpp"
#include "isa/instruction.hpp"
#include "rse/frame_types.hpp"

namespace rse::engine {

class Framework;

/// Behavioural fault injected into a module for the Table 2 self-checking
/// experiments.
enum class ModuleFaultMode : u8 {
  kNone,
  kNoProgress,     // the module never produces a result
  kFalseAlarm,     // the module always declares an error
  kFalseNegative,  // the module always declares "no error"
};

/// One bit per event handler of Module; a module's handlers() is their union.
enum Handler : u8 {
  kHandleTick = 1u << 0,
  kHandleDispatch = 1u << 1,
  kHandleExecute = 1u << 2,
  kHandleCommit = 1u << 3,
  kHandleStoreCommit = 1u << 4,
  kHandleSquash = 1u << 5,
};
using HandlerSet = u8;
inline constexpr HandlerSet kAllHandlers = kHandleTick | kHandleDispatch | kHandleExecute |
                                           kHandleCommit | kHandleStoreCommit | kHandleSquash;

class Module {
 public:
  explicit Module(Framework& framework) : fw_(&framework) {}
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  virtual isa::ModuleId id() const = 0;
  virtual const char* name() const = 0;

  /// The handlers this module overrides.  The framework reads it once, at
  /// add_module, and never calls a handler outside the set; a module that
  /// does not override it receives everything.
  virtual HandlerSet handlers() const { return kAllHandlers; }

  /// Advance internal pipelines/counters by one cycle.
  virtual void tick(Cycle /*now*/) {}

  /// A dispatched instruction became visible in Fetch_Out (1 cycle after
  /// dispatch).  Modules filter for CHK instructions addressed to them and
  /// for the instruction classes they monitor.
  virtual void on_dispatch(const DispatchInfo& /*info*/, Cycle /*now*/) {}

  /// Execute_Out data became visible for an instruction.
  virtual void on_execute(const ExecuteInfo& /*info*/, Cycle /*now*/) {}

  /// Commit signal: the instruction retired; async modules log permanent
  /// state now.  Store commits arrive through on_store_commit instead.
  virtual void on_commit(const CommitInfo& /*info*/, Cycle /*now*/) {}

  /// A store is about to retire and write memory.  Returns extra cycles the
  /// commit stage must stall (e.g. DDT SavePage handling); 0 otherwise.
  virtual Cycle on_store_commit(const CommitInfo& /*info*/, Cycle /*now*/) { return 0; }

  /// The pipeline squashed this instruction; drop any state tied to it.
  virtual void on_squash(const InstrTag& /*tag*/, Cycle /*now*/) {}

  /// Drop all transient state (used on guest process teardown and by tests).
  virtual void reset() {}

  bool enabled() const { return enabled_; }
  /// Enabling also tells the framework, so events it held back while no
  /// module of their kind was enabled reach this one (Framework::tick).
  void set_enabled(bool enabled);

  ModuleFaultMode fault_mode() const { return fault_mode_; }
  void inject_fault(ModuleFaultMode mode) { fault_mode_ = mode; }

  /// Snapshot hook for the base-class state; concrete modules call this from
  /// their own serialize_state.  Assigns enabled_ directly — set_enabled's
  /// reset-on-disable side effect must not fire during a restore.
  template <class Ar>
  void serialize_base(Ar& ar) {
    ar.field(enabled_);
    ar.field(fault_mode_);
  }

 protected:
  Framework* fw_;

 private:
  bool enabled_ = false;
  ModuleFaultMode fault_mode_ = ModuleFaultMode::kNone;
};

}  // namespace rse::engine
