// Accelerator Resource Manager (ARM).
//
// The ARM is the paper's pool manager (Section III.B.2): it "maintains
// information on which accelerators are available or in use and assigns them
// to compute nodes upon request", with exclusive handles so "different
// processes do not interfere with each other". It supports both assignment
// strategies of Figure 3: static (acquired at job start by the launcher) and
// dynamic (acquired and released at runtime through the resource-management
// API). Acquisitions that cannot be satisfied may either fail immediately or
// queue FCFS until accelerators are released — the batch-script behaviour
// Section V.B describes.
//
// Fault tolerance (Section III.A): an accelerator reported broken is removed
// from the pool; compute nodes are unaffected, and subsequent acquisitions
// simply never see it.
//
// The lease semantics themselves live in lease_machine.hpp: this file hosts
// the single-ARM server loop (one rank, commands applied as they arrive), the
// serve step it shares with the replicated deployment (arm/raft/, the same
// machine behind a Raft log), and the client.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "arm/lease_machine.hpp"
#include "dmpi/mpi.hpp"
#include "obs/metrics.hpp"
#include "proto/wire.hpp"
#include "rpc/channel.hpp"
#include "util/units.hpp"

namespace dacc::arm {

// --- the serve step both ARM servers share ----------------------------------

/// The lease-machine command carried by a decoded ARM request frame: the
/// requester, its reply tag and the undecoded op body.
Command command_of(rpc::Inbound& in);

/// Executes the effects of one applied command, in order: replies and
/// revocation notices go out on `channel`, trace effects become flight
/// recorder notes and (with a tracer attached) "arm" trace records.
void execute_effects(sim::Context& ctx, rpc::ServerChannel& channel,
                     std::vector<Effect>& effects);

class Arm {
 public:
  Arm(dmpi::World& world, dmpi::Rank self_world_rank,
      std::vector<AcceleratorInfo> pool,
      QueuePolicy policy = QueuePolicy::kFcfs, PlacementMap placement = {});

  /// Service loop; runs until a kShutdown request arrives (or forever as an
  /// engine daemon).
  void run(sim::Context& ctx);

  /// The lease state, for in-process views (stats, utilization). Read it
  /// between engine steps.
  const LeaseMachine& machine() const { return machine_; }

 private:
  dmpi::World& world_;
  dmpi::Rank self_;
  LeaseMachine machine_;
};

/// Front-end side of the ARM protocol: the paper's resource-management API.
/// Speaks to the ARM's endpoint list: one rank (the single-ARM deployment)
/// or the replicas of arm/raft. With several endpoints the client walks the
/// failover ladder — follow kNotLeader redirects, resend on timeout with the
/// same reply tag (the lease machine's reply cache makes resends safe), and
/// rotate to the next replica when the addressed one stays silent.
class ArmClient {
 public:
  ArmClient(dmpi::Mpi& mpi, const dmpi::Comm& comm,
            std::vector<dmpi::Rank> arm_ranks);

  /// Acquires exclusive accelerators per the typed request (device class,
  /// minimum memory, count, gang flag, priority, locality hint — see
  /// ResourceRequest). With wait == false an unsatisfiable request returns
  /// an empty vector; with wait == true it blocks until granted (priority,
  /// then the ARM's queue policy). Non-gang requests may return fewer
  /// leases than asked.
  std::vector<Lease> acquire(const ResourceRequest& req);

  /// Releases one lease. Returns kNotOwner / kUnknownHandle on misuse.
  ArmResult release(std::uint64_t job, const Lease& lease);

  /// Releases everything `job` still holds (automatic end-of-job release).
  ArmResult release_job(std::uint64_t job);

  /// Reports an accelerator broken; it leaves the pool permanently.
  ArmResult report_broken(dmpi::Rank daemon_rank);

  /// Reports a completed transparent replacement (replay statistics).
  ArmResult report_replaced(const ReplayReport& report);

  PoolStats stats();

  void shutdown();

 private:
  /// One request/response exchange against the ARM; blocks until answered.
  /// Walks the failover ladder when configured with several endpoints.
  proto::WireReader call(util::Buffer frame, int reply_tag);

  /// Channel to the ARM. Its reply tags come from the rank's one tag space
  /// (rpc::Channel::next_reply_tag): unique across every channel on this
  /// rank — several launchers can hold queued acquires on one endpoint
  /// while sessions talk to their daemons — and replies match on the tag
  /// from any source, so the answer to a resent request may come from
  /// another replica than the one last addressed.
  rpc::Channel channel_;

  /// Replica endpoint set; size 1 for the single-ARM deployment. The
  /// channel's current server is the presumed leader.
  std::vector<dmpi::Rank> endpoints_;
  /// Per-attempt patience before rotating to the next replica. Generous:
  /// rotation is for dead replicas, not slow ones — a queued acquire at a
  /// live leader never answers early, so the resend path relies on the
  /// reply cache for safety, not on this being tight.
  SimDuration failover_timeout_ = 20_ms;
};

}  // namespace dacc::arm
