// Campaign workload registry: named, fully configured guest programs that a
// fault-injection campaign can target.  Each setup bundles the instrumented
// assembly source with the machine/OS configuration and the modules the
// loader enables host-side, so golden and faulty runs are built identically.
#pragma once

#include <string>
#include <vector>

#include "isa/instruction.hpp"
#include "isa/program.hpp"
#include "os/guest_os.hpp"
#include "os/machine.hpp"

namespace rse::campaign {

struct WorkloadSetup {
  std::string name;
  std::string source;  // assembly, already CHECK-instrumented
  os::MachineConfig machine;
  os::OsConfig os;
  std::vector<isa::ModuleId> host_enables;  // enabled after load (as a loader would)
};

/// Build a named workload.  Known names: "loop" (small checked loop,
/// thousands of cycles — the unit-test workhorse), "calls" (call/return
/// dominated leaf functions — the static-CFC showcase), "kmeans"
/// (reduced-size clustering, the campaign default), "kmeans-large"
/// (paper-sized kMeans), "server" (multithreaded network server with DDT
/// tracking).
/// Throws ConfigError on an unknown name.
WorkloadSetup make_workload(const std::string& name);

std::vector<std::string> workload_names();

/// A fresh machine booted from a setup: the machine, then the guest OS under
/// the setup's OS config with `run_limit`, then `program` loaded, then the
/// host modules enabled.  Golden runs, boundary replays, snapshot chains and
/// every faulty run start here.
struct BootedMachine {
  BootedMachine(const WorkloadSetup& setup, const isa::Program& program, Cycle run_limit);

  os::Machine machine;
  os::GuestOs guest;
};

}  // namespace rse::campaign
