#pragma once

// The World: a simulated MPI job.
//
// A World runs an SPMD rank function on N threads, one per rank, each with
// its own mailbox (transport endpoint) and memory registry (simulated
// address space). It is the failure-containment boundary of a fault-
// injection trial: the first FaultEvent any rank raises is captured,
// the world is poisoned so every other rank unwinds promptly with
// WorldAborted, and run() returns a WorldResult describing the initiating
// event — never letting a "segfault" or "hang" escape the process.
//
// Two mechanisms make the containment fast and leak-proof:
//
//  * A progress monitor (minimpi/progress.hpp) watches every rank's
//    heartbeat and pending-operation signature and declares a
//    *deterministic* deadlock the moment all live ranks are provably
//    stuck in unsatisfiable waits — classifying INF_LOOP in milliseconds
//    instead of burning the watchdog budget. Genuine livelock (a compute
//    loop that never reaches a wait) still falls back to the timeout.
//
//  * Teardown is a bounded join with escalation: past the join deadline
//    the world is poisoned a second time with a mailbox wake storm, and
//    a rank thread that still refuses to exit is moved to the process-
//    wide ThreadQuarantine (minimpi/quarantine.hpp) instead of wedging
//    the campaign. WorldResult reports the leak plus a post-trial audit
//    of the memory registries and mailbox queues.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "minimpi/hooks.hpp"
#include "minimpi/mailbox.hpp"
#include "minimpi/memory.hpp"
#include "minimpi/progress.hpp"
#include "minimpi/snapshot.hpp"
#include "minimpi/types.hpp"
#include "support/error.hpp"

namespace fastfit::mpi {

class Mpi;
class FiberScheduler;

/// How a world executes its ranks (FASTFIT_WORLD_ENGINE /
/// --world-engine).
///
///  * Fibers (default): every rank is a resumable ucontext fiber
///    multiplexed on the ONE thread that calls World::run — a world
///    never creates an OS thread, rendezvous are cooperative yield
///    points, and "no runnable fiber and no queued message" IS the
///    deadlock verdict (no monitor thread, no poll interval).
///  * Threads: the original thread-per-rank substrate (one OS thread
///    per rank plus a monitor), kept byte-identical for workloads whose
///    rank functions are non-cooperative (spin without check_deadline)
///    and as the parity baseline for the fiber engine.
///
/// Both engines produce byte-identical results for every cooperative
/// workload: message matching is exact on (source, tag), so the
/// schedule cannot change what any rank observes.
enum class WorldEngine : std::uint8_t {
  Fibers,
  Threads,
};

const char* to_string(WorldEngine engine) noexcept;

/// Parses "fibers" | "threads" (the FASTFIT_WORLD_ENGINE values);
/// throws ConfigError on anything else.
WorldEngine parse_world_engine(const std::string& text);

/// Algorithm selection per collective family, mirroring how production
/// MPIs pick among several implementations. Fault *behaviour* differs by
/// algorithm (e.g. a divergent root stalls a chain pipeline differently
/// from a binomial tree), which bench/ablation_algorithms measures.
struct CollectiveAlgorithms {
  enum class Allreduce : std::uint8_t {
    RecursiveDoubling,  ///< MPICH short-vector algorithm (default)
    ReduceBcast,        ///< binomial reduce to rank 0 + binomial bcast
  };
  enum class Bcast : std::uint8_t {
    Binomial,  ///< binomial tree (default)
    Chain,     ///< pipeline through consecutive ranks
  };
  Allreduce allreduce = Allreduce::RecursiveDoubling;
  Bcast bcast = Bcast::Binomial;
};

struct WorldOptions {
  int nranks = 32;
  /// Rank execution engine: resumable fibers on the calling thread
  /// (default) or the legacy thread-per-rank substrate.
  WorldEngine engine = WorldEngine::Fibers;
  /// Rendezvous watchdog: a collective that has not completed after this
  /// long is declared hung (paper Table I: INF_LOOP). Must comfortably
  /// exceed the fault-free runtime of the workload. With hang_detection
  /// on this is the *fallback* budget: structural deadlocks are declared
  /// long before it expires.
  std::chrono::milliseconds watchdog{500};
  std::uint64_t seed = 0x5eedULL;
  CollectiveAlgorithms algorithms;
  /// Deterministic hang detection: run a progress monitor that declares
  /// a deadlock structurally (all live ranks provably stuck) instead of
  /// waiting for the watchdog. Livelock still uses the timeout path.
  bool hang_detection = true;
  /// When set, every rank logs its MPI ops and transport payloads here —
  /// the campaign's one fault-free recording run (minimpi/snapshot.hpp).
  std::shared_ptr<PrefixRecorder> recorder;
  /// When set, each rank replays its recorded prefix with zero rendezvous
  /// up to the snapshot's cut, then switches to live execution. In-flight
  /// messages across the cut are pre-seeded before the threads launch.
  std::shared_ptr<const WorldSnapshot> replay;
  /// ULFM-style shrink-and-continue: when a rank fail-stops, survivors see
  /// RankRevoked (instead of a world poison) and may rebuild a shrunken
  /// communicator via Mpi::shrink_and_continue(). Off = a rank death tears
  /// the world down (outcome RANK_DEAD).
  bool repair = false;
};

/// How a rank failed, for outcome classification (maps onto Table I).
enum class EventType : std::uint8_t {
  AppDetected,  ///< application's own error handling aborted
  MpiErr,       ///< MiniMPI validation rejected a parameter
  SegFault,     ///< memory-registry bounds violation
  Timeout,      ///< watchdog fired or deadlock proven: the job hung
  RankDead,     ///< fail-stop fault killed a rank mid-run
};

const char* to_string(EventType type) noexcept;

/// The first (initiating) failure observed in a world.
struct CapturedEvent {
  EventType type{};
  int rank = -1;
  std::string message;
  std::optional<MpiErrc> mpi_code;
};

/// Result of one world execution. `clean()` does not imply SUCCESS — the
/// trial runner still compares the application's answer against a golden
/// run to distinguish SUCCESS from WRONG_ANS.
struct WorldResult {
  std::optional<CapturedEvent> event;
  /// Forensic snapshot taken when the event was recorded (absent for a
  /// clean run): per-rank phase, heartbeat, pending-op signature.
  std::optional<WorldAutopsy> autopsy;
  /// Rank threads that survived the escalated teardown and were moved to
  /// the ThreadQuarantine (0 on every healthy run).
  int leaked_threads = 0;
  /// Post-trial audit: memory-registry regions left registered after all
  /// ranks unwound (0 unless a thread leaked or a registration escaped
  /// its scope).
  std::size_t leaked_regions = 0;
  /// Post-trial audit: messages still queued in mailboxes. Nonzero is
  /// normal for faulted runs (poison aborts in-flight exchanges) but a
  /// transport leak on a clean run.
  std::size_t undelivered_messages = 0;
  /// At least one rank fail-stopped (the event, if initiating, is
  /// EventType::RankDead).
  bool rank_died = false;
  /// Repair mode was on, a rank died, and *every* survivor completed its
  /// repair hook on the shrunken communicator (outcome REPAIRED).
  bool repaired = false;

  bool clean() const noexcept { return !event.has_value(); }
};

/// All state shared between the rank threads, the monitor, and the
/// controlling World — owned by shared_ptr so a quarantined straggler can
/// never dangle. The Mpi facade talks to this class, not to World.
class WorldState {
 public:
  explicit WorldState(const WorldOptions& options);

  const WorldOptions& options() const noexcept { return options_; }
  int size() const noexcept { return options_.nranks; }

  Mailbox& mailbox(int world_rank);
  MemoryRegistry& registry(int world_rank);
  ProgressTable& progress() noexcept { return progress_; }
  PoisonState& poison() noexcept { return poison_; }
  bool poisoned();
  std::chrono::steady_clock::time_point deadline() const noexcept {
    return deadline_;
  }
  ToolHooks* tools() const noexcept { return tools_; }

  /// Records the initiating failure (first wins; WorldAborted never
  /// initiates), snapshots the progress table into the autopsy, and
  /// poisons the world.
  void report_event(int rank, const FaultEvent& event);

  /// Fail-stop path: records the death (EventType::RankDead, first-wins),
  /// marks the rank Dead in the progress table, and either poisons the
  /// world (repair off) or revokes every pre-death communicator and wakes
  /// all waiters so survivors observe RankRevoked (repair on).
  void report_rank_death(int rank, const RankKilled& event);

  /// Marks `world_rank` doomed: its next transport wait, deadline check,
  /// or collective dispatch raises RankKilled on its own thread. The
  /// injector's rank-death manifestation and tests use this primitive.
  void kill_rank(int world_rank);

  /// Whether kill_rank / a fail-stop fault has doomed this rank (polled on
  /// the rank's own thread at cancellation points).
  bool rank_doomed(int world_rank) const noexcept {
    return doomed_[static_cast<std::size_t>(world_rank)].load(
        std::memory_order_acquire);
  }

  /// Whether this rank's death has been reported.
  bool rank_dead(int world_rank) const noexcept {
    return dead_[static_cast<std::size_t>(world_rank)].load(
        std::memory_order_acquire);
  }

  /// World ranks whose death has not been reported, in rank order: the
  /// membership of a shrink_and_continue communicator.
  std::vector<int> alive_members() const;

  /// Whether `comm` was revoked by a fail-stop under repair mode.
  /// Communicators registered after the revocation (the shrunken one) are
  /// exempt; everything older raises RankRevoked at its next operation.
  bool comm_revoked(Comm comm) const noexcept;

  /// A survivor completed its repair hook; when every survivor has, the
  /// world result reports repaired=true (outcome REPAIRED).
  void mark_repaired() noexcept {
    repaired_count_.fetch_add(1, std::memory_order_acq_rel);
  }

  /// Communicator registry. A communicator is a list of world ranks.
  /// `register_comm` is idempotent on `key`: all members of a new
  /// communicator derive the same creation key (parent handle, per-parent
  /// split sequence, color), so each obtains the same handle without any
  /// global ordering.
  Comm register_comm(const std::string& key, std::vector<int> members);

  /// Group of a communicator; throws MpiError(InvalidComm) for a handle
  /// that does not name a live communicator of this world.
  const std::vector<int>& group_of(Comm comm) const;

  /// Rank of `world_rank` within `comm`, or -1 if not a member.
  int comm_rank_of(Comm comm, int world_rank) const;

 private:
  friend class World;

  /// First-wins event capture with an explicit autopsy (the monitor's
  /// deterministic verdict); nullopt snapshots the live table instead.
  /// `poison` = false records the event without tearing the world down
  /// (the repair path: survivors must keep running).
  void capture_event(int rank, const FaultEvent& event,
                     std::optional<WorldAutopsy> autopsy, bool poison = true);

  /// Poison + mailbox wake storm (idempotent).
  void poison_and_wake();

  /// Rank-thread completion bookkeeping for the bounded join.
  void mark_done(int rank);
  bool wait_all_done_until(std::chrono::steady_clock::time_point deadline);

  /// Monitor body: polls the progress table and declares a deterministic
  /// deadlock on a stable, unsatisfiable, all-blocked snapshot.
  void monitor_loop();
  void stop_monitor();
  bool scan_for_deadlock(std::vector<RankSnapshot>& prev, bool& have_prev);
  void declare_deadlock(const std::vector<RankSnapshot>& snaps);

  /// Fiber engine's idle handler: invoked by the scheduler when no fiber
  /// is runnable. Wakes satisfiable or doomed waits; with nothing to
  /// wake, quiescence ("no runnable fiber, no queued message") IS the
  /// structural deadlock, declared through the same verdict path as the
  /// thread engine's monitor. The watchdog fallback (detection off,
  /// single rank, or an in-progress revocation) waits out the deadline
  /// and then wakes every blocked fiber in rank order.
  void fiber_idle(FiberScheduler& sched);

  WorldOptions options_;
  PoisonState poison_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<std::unique_ptr<MemoryRegistry>> registries_;
  ProgressTable progress_;
  std::chrono::steady_clock::time_point deadline_{};
  /// World slot of this world's rank trace lanes (telemetry::rank_lane),
  /// read from the thread calling run() while the recorder is enabled.
  int trace_slot_ = 0;

  std::mutex event_mutex_;
  std::optional<CapturedEvent> event_;
  std::optional<WorldAutopsy> autopsy_;

  mutable std::mutex comm_mutex_;
  struct CommEntry {
    std::vector<int> members;
  };
  std::vector<CommEntry> comms_;
  std::map<std::string, RawHandle> comm_keys_;

  ToolHooks* tools_ = nullptr;

  // Fail-stop bookkeeping: doomed_ is the kill signal a rank polls on its
  // own thread; dead_ records reported deaths; revoked_comm_limit_ is the
  // size of the communicator table at revocation time (older handles are
  // revoked, newer — the shrunken comm — are exempt).
  std::unique_ptr<std::atomic<bool>[]> doomed_;
  std::unique_ptr<std::atomic<bool>[]> dead_;
  std::atomic<int> dead_count_{0};
  std::atomic<int> repaired_count_{0};
  std::atomic<std::size_t> revoked_comm_limit_{0};

  // Internal (non-fault) exception escaping a rank thread.
  std::mutex internal_mutex_;
  std::exception_ptr internal_error_;

  // Bounded-join bookkeeping: per-rank done flags + completion counter.
  std::unique_ptr<std::atomic<bool>[]> done_;
  std::mutex join_mutex_;
  std::condition_variable join_cv_;
  int finished_ = 0;

  // Monitor lifecycle.
  std::mutex monitor_mutex_;
  std::condition_variable monitor_cv_;
  bool monitor_stop_ = false;

  // Objects the caller asked to keep alive as long as any rank thread can
  // run (see World::add_keepalive).
  std::vector<std::shared_ptr<void>> keepalives_;
};

/// Thin single-use handle over a shared WorldState. Stack-allocatable (as
/// every test does); the state itself survives a quarantined straggler.
class World {
 public:
  explicit World(WorldOptions options);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Runs `rank_main` on every rank. Callable once per World. Exceptions
  /// that are not FaultEvents (library bugs) are re-thrown to the caller
  /// — unless a thread leaked, in which case the result reports the leak
  /// (a quarantined trial is already lost to the guard layer).
  WorldResult run(const std::function<void(Mpi&)>& rank_main);

  const WorldOptions& options() const noexcept { return state_->options(); }
  int size() const noexcept { return state_->size(); }

  /// Installs the tool chain every collective dispatches through.
  void set_tools(ToolHooks* tools) noexcept;
  ToolHooks* tools() const noexcept { return state_->tools(); }

  /// Registers an object that must outlive every rank thread, including a
  /// quarantined one (the rank_main closure's captured state). Call
  /// before run().
  void add_keepalive(std::shared_ptr<void> keepalive);

  /// The shared state (used by the Mpi facade and by tests that poke at
  /// mailboxes/registries directly).
  const std::shared_ptr<WorldState>& state() noexcept { return state_; }

  // --- forwarded accessors (source compatibility) ------------------------

  Mailbox& mailbox(int world_rank) { return state_->mailbox(world_rank); }
  MemoryRegistry& registry(int world_rank) {
    return state_->registry(world_rank);
  }
  PoisonState& poison() noexcept { return state_->poison(); }
  bool poisoned() { return state_->poisoned(); }
  std::chrono::steady_clock::time_point deadline() const noexcept {
    return state_->deadline();
  }
  void report_event(int rank, const FaultEvent& event) {
    state_->report_event(rank, event);
  }
  /// Fail-stop test primitive: dooms one rank; it dies at its next
  /// cancellation point (transport wait, deadline check, dispatch).
  void kill_rank(int world_rank) { state_->kill_rank(world_rank); }
  Comm register_comm(const std::string& key, std::vector<int> members) {
    return state_->register_comm(key, std::move(members));
  }
  const std::vector<int>& group_of(Comm comm) const {
    return state_->group_of(comm);
  }
  int comm_rank_of(Comm comm, int world_rank) const {
    return state_->comm_rank_of(comm, world_rank);
  }

 private:
  /// The legacy thread-per-rank engine: one OS thread per rank, a monitor
  /// thread, bounded join with quarantine escalation.
  WorldResult run_threads(const std::function<void(Mpi&)>& rank_main);

  /// The event-driven engine: rank fibers multiplexed on the calling
  /// thread; zero threads created, structural deadlock at quiescence,
  /// teardown by resuming every blocked fiber to its cancellation point.
  WorldResult run_fibers(const std::function<void(Mpi&)>& rank_main);

  std::shared_ptr<WorldState> state_;
  bool ran_ = false;
};

}  // namespace fastfit::mpi
