#pragma once

/// \file runtime.hpp
/// The simulated message-passing runtime.
///
/// `Runtime` executes N ranks as host threads inside one process. Messages
/// are moved through in-memory mailboxes (so the numerics are exactly what a
/// real MPI job would compute) while a netsim `Topology` prices every
/// transfer and collective into per-rank virtual clocks. This replaces the
/// paper's physical clusters: the applications run the real message-passing
/// code path; only *time* is modeled.
///
/// Semantics implemented (deliberately the subset the applications and
/// substrates use, with MPI-compatible behaviour):
///   * `send` is buffered and never blocks (eager-protocol semantics);
///   * `recv(src, tag)` blocks until a matching message arrives; matching is
///     by exact (source, tag), preserving MPI's non-overtaking order per
///     (source, tag) pair;
///   * collectives are synchronizing: all clocks merge to
///     max(entry clocks) + modeled collective cost.
///
/// Host-side synchronization:
///   * Every communicator is a process group (the world is group 0, created
///     by run()) with one lock-free rendezvous. A member writes its input,
///     entry clock and cost into its own slot and arrives with an atomic
///     fetch_add; the last arrival runs the combine, takes the max entry and
///     cost over the slots, and publishes the group's result.
///   * The last arrival then bumps the group's 32-bit generation word and
///     wakes the waiters through the futex behind std::atomic::wait and
///     notify_all. Waiters read their result without a lock. One result
///     slot serves every generation: a member reads its result of
///     generation g before it can arrive at g + 1, so g + 1 cannot complete
///     and overwrite the slot while anyone still reads g. Abort sets the
///     low bit of every group's word, so blocked waiters see it change.
///   * Each mailbox records the (source, tag, group) its owner is blocked
///     on; a send wakes the owner only for a matching envelope. A 50 ms
///     poll backs the abort check and the deadlocked-recv guard.
///   * After an abort the surviving ranks run on until they need something
///     that can no longer come: a message from a rank whose body has
///     returned or thrown, or a collective one of whose members has. Where
///     each survivor stops, and so its virtual clock, is therefore the same
///     whatever the thread timing. Post-abort waits poll every 200 us.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "netsim/degradation.hpp"
#include "netsim/topology.hpp"
#include "simmpi/simclock.hpp"

namespace hetero::simmpi {

class Comm;

/// Per-rank traffic counters (virtual-time accounting).
struct CommStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t collectives = 0;
  /// Virtual seconds this rank spent inside communication calls.
  double comm_seconds = 0.0;
  /// Point-to-point payload bytes sent to each destination rank — the
  /// row of the job's traffic matrix owned by this rank. Collectives are
  /// not included (they move through the rendezvous, not the mailboxes).
  std::vector<std::uint64_t> bytes_by_dest;
};

/// Thrown inside rank bodies when another rank failed and the job is being
/// torn down; rank code should let it propagate.
class Aborted : public Error {
 public:
  Aborted() : Error("simmpi: job aborted by another rank") {}
};

class Runtime {
 public:
  /// Creates a runtime for `topology.ranks()` ranks.
  explicit Runtime(netsim::Topology topology);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  int size() const { return topology_.ranks(); }
  const netsim::Topology& topology() const { return topology_; }

  /// Runs `rank_main` once per rank, each on its own thread, and joins.
  /// If any rank throws, all others are aborted and the first exception is
  /// rethrown here. Aborted ranks stop at a point fixed by the program, not
  /// by thread timing (see the file comment).
  void run(const std::function<void(Comm&)>& rank_main);

  /// Virtual completion time of the job: max over rank clocks after run().
  double elapsed_sim_seconds() const;

  /// Per-rank statistics collected during the last run().
  const CommStats& stats(int rank) const;

  /// Host-time guard against deadlocked receives: a recv that matches
  /// nothing for this long aborts the job with a diagnostic instead of
  /// hanging the process. Default 120 s; 0 disables the guard.
  void set_recv_timeout(double host_seconds) {
    recv_timeout_s_ = host_seconds;
  }
  double recv_timeout() const { return recv_timeout_s_; }

  /// Installs network-degradation windows: every modeled communication cost
  /// is scaled by `schedule.factor_at(virtual time)`. Set before run();
  /// the default schedule is inert.
  void set_degradation(const netsim::DegradationSchedule& schedule) {
    degradation_ = schedule;
  }
  const netsim::DegradationSchedule& degradation() const {
    return degradation_;
  }

  /// Per-rank compute-cost multiplier: `Comm::compute(s)` charges
  /// `s * fn(world_rank, virtual time)` instead of `s`. The per-rank speed
  /// skew (resil::SkewPlan) hooks in here. Set before run(); must be a pure
  /// function of its arguments (it is called concurrently from every rank
  /// thread). Unset (the default) charges `s` unchanged, so skew-free runs
  /// are bit-identical to builds without the hook.
  using ComputeScaleFn = std::function<double(int rank, double now)>;
  void set_compute_scale(ComputeScaleFn fn) {
    compute_scale_ = std::move(fn);
  }
  const ComputeScaleFn& compute_scale() const { return compute_scale_; }

 private:
  friend class Comm;

  struct Envelope {
    int source = 0;  // world rank
    int tag = 0;
    /// Communicator the message was sent on (0 = world); matching requires
    /// the same group, so sub-communicators isolate their tag spaces as in
    /// MPI.
    std::uint64_t group = 0;
    std::vector<std::byte> payload;
    /// Sender virtual time at which the message left.
    double depart_time = 0.0;
  };

  struct Mailbox {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Envelope> queue;
    /// What the owner is blocked on in blocking_recv (guarded by `mutex`);
    /// post_send wakes it only for a matching envelope.
    bool waiting = false;
    int want_source = 0;
    int want_tag = 0;
    std::uint64_t want_group = 0;
    /// The owner's body has returned or thrown: it sends and arrives no
    /// more.
    std::atomic<bool> exited{false};
  };

  // --- point-to-point (called by Comm) ---
  void post_send(int source, int dest, int tag, std::uint64_t group,
                 std::vector<std::byte> payload, double depart_time);
  Envelope blocking_recv(int self, int source, int tag, std::uint64_t group);

  // --- process groups and their rendezvous ---
  /// The last arrival's combine: reads every member's input (indexed by
  /// member) and returns either one result shared by all members or one
  /// result per member (personalized collectives such as alltoallv). A
  /// null combine returns nothing (barrier).
  using CombineFn = std::function<std::vector<std::vector<std::byte>>(
      const std::vector<std::vector<std::byte>>&)>;

  /// One communicator's members and the rendezvous they meet in. Lives at
  /// a stable address (Comm caches a pointer) until the next run().
  struct Group {
    explicit Group(std::uint64_t group_id, std::vector<int> world_ranks);

    std::uint64_t id;
    std::vector<int> members;  // world ranks, ordered by (key, world rank)
    // Member-written, read by the last arrival once all have arrived.
    std::vector<std::vector<std::byte>> inputs;
    std::vector<double> entry;
    std::vector<double> cost;
    std::vector<const char*> kind;
    // Last-arrival-written, read by every member once the word moves.
    std::vector<std::vector<std::byte>> result;  // 1 block (shared) or n
    double exit = 0.0;
    alignas(64) std::atomic<int> arrived{0};
    /// generation << 1 | aborted; the futex word waiters sleep on.
    alignas(64) std::atomic<std::uint32_t> word{0};
  };

  /// Registers (or finds) the group with these members.
  Group& intern_group(std::vector<int> members);

  /// The synchronizing collective over `g`: member `member` contributes
  /// `input` and a modeled cost (the max over members is charged). `kind`
  /// names the collective; members entering different kinds fail the job.
  /// Returns this member's result and sets `*exit_time`.
  std::vector<std::byte> rendezvous(Group& g, int member, const char* kind,
                                    std::vector<std::byte> input,
                                    const CombineFn& combine,
                                    double cost_seconds, double entry_time,
                                    double* exit_time);

  void abort_all();
  /// After an abort: true once a member of `g` has exited, so the
  /// rendezvous it is missing from can never complete.
  bool member_exited(const Group& g) const;

  netsim::Topology topology_;
  std::vector<Mailbox> mailboxes_;
  std::vector<SimClock> clocks_;
  std::vector<CommStats> stats_;

  std::mutex groups_mutex_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Group>> groups_;

  std::atomic<bool> aborted_{false};
  double recv_timeout_s_ = 120.0;
  netsim::DegradationSchedule degradation_;
  ComputeScaleFn compute_scale_;
};

}  // namespace hetero::simmpi
