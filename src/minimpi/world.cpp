#include "minimpi/world.hpp"

#include <algorithm>
#include <exception>
#include <new>
#include <stdexcept>
#include <thread>
#include <utility>

#include "minimpi/fiber.hpp"
#include "minimpi/mpi.hpp"
#include "minimpi/quarantine.hpp"
#include "telemetry/recorder.hpp"

namespace fastfit::mpi {
namespace {

// Monitor poll period. Two identical consecutive snapshots this far apart
// (with no satisfiable wait) prove the deadlock; total time-to-verdict is
// therefore a couple of milliseconds regardless of the watchdog budget.
constexpr std::chrono::milliseconds kMonitorPoll{1};

// Extra join budget past the watchdog deadline before teardown escalates,
// and again before a straggler is quarantined. Generous relative to the
// cost of unwinding a poisoned rank, tiny relative to a wedged campaign.
constexpr std::chrono::milliseconds kJoinGrace{1000};

}  // namespace

const char* to_string(WorldEngine engine) noexcept {
  switch (engine) {
    case WorldEngine::Fibers: return "fibers";
    case WorldEngine::Threads: return "threads";
  }
  return "unknown";
}

WorldEngine parse_world_engine(const std::string& text) {
  if (text == "fibers") return WorldEngine::Fibers;
  if (text == "threads") return WorldEngine::Threads;
  throw ConfigError("world engine must be one of fibers|threads, got '" +
                    text + "'");
}

const char* to_string(EventType type) noexcept {
  switch (type) {
    case EventType::AppDetected: return "APP_DETECTED";
    case EventType::MpiErr: return "MPI_ERR";
    case EventType::SegFault: return "SEG_FAULT";
    case EventType::Timeout: return "INF_LOOP";
    case EventType::RankDead: return "RANK_DEAD";
  }
  return "UNKNOWN";
}

WorldState::WorldState(const WorldOptions& options)
    : options_(options),
      progress_(options.nranks >= 1 ? options.nranks : 1) {
  if (options_.nranks < 1) {
    throw ConfigError("World: nranks must be at least 1");
  }
  mailboxes_.reserve(static_cast<std::size_t>(options_.nranks));
  registries_.reserve(static_cast<std::size_t>(options_.nranks));
  for (int r = 0; r < options_.nranks; ++r) {
    mailboxes_.push_back(std::make_unique<Mailbox>(poison_));
    registries_.push_back(std::make_unique<MemoryRegistry>());
  }
  done_ = std::make_unique<std::atomic<bool>[]>(
      static_cast<std::size_t>(options_.nranks));
  doomed_ = std::make_unique<std::atomic<bool>[]>(
      static_cast<std::size_t>(options_.nranks));
  dead_ = std::make_unique<std::atomic<bool>[]>(
      static_cast<std::size_t>(options_.nranks));
  for (int r = 0; r < options_.nranks; ++r) {
    done_[static_cast<std::size_t>(r)].store(false, std::memory_order_relaxed);
    doomed_[static_cast<std::size_t>(r)].store(false,
                                               std::memory_order_relaxed);
    dead_[static_cast<std::size_t>(r)].store(false, std::memory_order_relaxed);
    mailboxes_[static_cast<std::size_t>(r)]->set_doom(
        r, &doomed_[static_cast<std::size_t>(r)]);
  }
  std::vector<int> everyone(static_cast<std::size_t>(options_.nranks));
  for (int r = 0; r < options_.nranks; ++r) {
    everyone[static_cast<std::size_t>(r)] = r;
  }
  comms_.push_back(CommEntry{std::move(everyone)});
  comm_keys_.emplace("world", 0);
}

Mailbox& WorldState::mailbox(int world_rank) {
  return *mailboxes_.at(static_cast<std::size_t>(world_rank));
}

MemoryRegistry& WorldState::registry(int world_rank) {
  return *registries_.at(static_cast<std::size_t>(world_rank));
}

bool WorldState::poisoned() {
  std::lock_guard lock(poison_.mutex);
  return poison_.poisoned;
}

void WorldState::poison_and_wake() {
  poison_.poison();
  for (auto& mailbox : mailboxes_) mailbox->wake();
}

void WorldState::report_event(int rank, const FaultEvent& event) {
  capture_event(rank, event, std::nullopt);
}

void WorldState::kill_rank(int world_rank) {
  doomed_[static_cast<std::size_t>(world_rank)].store(
      true, std::memory_order_release);
  // Wake the victim if it is parked in a mailbox wait; receive() rechecks
  // the doom flag on wake and raises RankKilled on the victim's thread.
  mailbox(world_rank).wake();
}

std::vector<int> WorldState::alive_members() const {
  std::vector<int> alive;
  alive.reserve(static_cast<std::size_t>(options_.nranks));
  for (int r = 0; r < options_.nranks; ++r) {
    if (!rank_dead(r)) alive.push_back(r);
  }
  return alive;
}

bool WorldState::comm_revoked(Comm comm) const noexcept {
  if (!poison_.revoked_flag.load(std::memory_order_acquire)) return false;
  return handle_index(raw(comm)) <
         revoked_comm_limit_.load(std::memory_order_acquire);
}

void WorldState::report_rank_death(int rank, const RankKilled& event) {
  // Publish the death before capturing so the autopsy and any peer
  // analysis ("blocked on dead peer") see the Dead phase.
  progress_.publish_dead(rank);
  const bool first =
      !dead_[static_cast<std::size_t>(rank)].exchange(
          true, std::memory_order_acq_rel);
  if (first) dead_count_.fetch_add(1, std::memory_order_acq_rel);

  if (!options_.repair) {
    capture_event(rank, event, std::nullopt);
    return;
  }
  // Repair mode: record the initiating death without poisoning, then
  // revoke every communicator that existed before this instant. The
  // shrunken communicator survivors build afterwards gets a larger table
  // index and is exempt.
  capture_event(rank, event, std::nullopt, /*poison=*/false);
  {
    std::lock_guard lock(comm_mutex_);
    revoked_comm_limit_.store(comms_.size(), std::memory_order_release);
  }
  poison_.revoke();
  for (auto& mailbox : mailboxes_) mailbox->wake();
}

void WorldState::capture_event(int rank, const FaultEvent& event,
                               std::optional<WorldAutopsy> autopsy,
                               bool poison) {
  {
    std::lock_guard lock(event_mutex_);
    if (!event_) {
      CapturedEvent captured;
      captured.rank = rank;
      captured.message = event.what();
      if (const auto* mpi_error = dynamic_cast<const MpiError*>(&event)) {
        captured.type = EventType::MpiErr;
        captured.mpi_code = mpi_error->code();
      } else if (dynamic_cast<const SimSegFault*>(&event) != nullptr) {
        captured.type = EventType::SegFault;
      } else if (dynamic_cast<const AppError*>(&event) != nullptr) {
        captured.type = EventType::AppDetected;
      } else if (dynamic_cast<const SimTimeout*>(&event) != nullptr) {
        captured.type = EventType::Timeout;
      } else if (dynamic_cast<const RankKilled*>(&event) != nullptr) {
        captured.type = EventType::RankDead;
      } else {
        // WorldAborted never initiates; anything else is a library bug.
        throw InternalError(std::string("report_event: unexpected event: ") +
                            event.what());
      }
      if (auto& rec = telemetry::Recorder::instance();
          rec.enabled() && captured.type == EventType::Timeout) {
        // A monitor-proven deadlock and a watchdog expiry are different
        // verdicts: the first is structural, the second wall-clock.
        if (autopsy && autopsy->deterministic) {
          rec.instant("deadlock-proven", telemetry::Track::Monitor, 0,
                      "rank=" + std::to_string(rank));
          static auto& proven =
              rec.counter("fastfit_deadlocks_proven_total",
                          "Monitor-proven structural deadlocks");
          proven.add();
        } else {
          rec.instant("watchdog-fire", telemetry::Track::Monitor, 0,
                      "rank=" + std::to_string(rank));
          static auto& fires = rec.counter("fastfit_watchdog_fires_total",
                                           "Wall-clock watchdog expiries");
          fires.add();
        }
      }
      event_ = std::move(captured);
      // Attach forensics at poison time: either the monitor's verdicted
      // snapshot, or a live snapshot of the progress table as-is.
      autopsy_ = autopsy ? std::move(autopsy)
                         : build_autopsy(progress_, false, event.what());
    }
  }
  if (poison) poison_and_wake();
}

Comm WorldState::register_comm(const std::string& key,
                               std::vector<int> members) {
  if (members.empty()) {
    throw InternalError("register_comm: empty member list");
  }
  std::lock_guard lock(comm_mutex_);
  if (auto it = comm_keys_.find(key); it != comm_keys_.end()) {
    const auto& existing = comms_[it->second].members;
    if (existing != members) {
      // Two ranks derived the same key for different groups: under a fault
      // this is a communicator-construction inconsistency a real MPI would
      // surface as a communicator error.
      throw MpiError(MpiErrc::InvalidComm,
                     "inconsistent group for communicator key '" + key + "'");
    }
    return make_comm(it->second);
  }
  const auto index = static_cast<RawHandle>(comms_.size());
  if (index > kIndexMask) {
    throw InternalError("register_comm: communicator table exhausted");
  }
  comms_.push_back(CommEntry{std::move(members)});
  comm_keys_.emplace(key, index);
  return make_comm(index);
}

const std::vector<int>& WorldState::group_of(Comm comm) const {
  const RawHandle h = raw(comm);
  std::lock_guard lock(comm_mutex_);
  if (!has_magic(h, kCommMagic) || handle_index(h) >= comms_.size()) {
    throw MpiError(MpiErrc::InvalidComm, "handle 0x" + std::to_string(h));
  }
  return comms_[handle_index(h)].members;
}

int WorldState::comm_rank_of(Comm comm, int world_rank) const {
  const auto& members = group_of(comm);
  const auto it = std::find(members.begin(), members.end(), world_rank);
  if (it == members.end()) return -1;
  return static_cast<int>(it - members.begin());
}

void WorldState::mark_done(int rank) {
  done_[static_cast<std::size_t>(rank)].store(true, std::memory_order_release);
  {
    std::lock_guard lock(join_mutex_);
    ++finished_;
  }
  join_cv_.notify_all();
}

bool WorldState::wait_all_done_until(
    std::chrono::steady_clock::time_point deadline) {
  std::unique_lock lock(join_mutex_);
  return join_cv_.wait_until(lock, deadline,
                             [&] { return finished_ == options_.nranks; });
}

void WorldState::stop_monitor() {
  {
    std::lock_guard lock(monitor_mutex_);
    monitor_stop_ = true;
  }
  monitor_cv_.notify_all();
}

void WorldState::monitor_loop() {
  std::vector<RankSnapshot> prev;
  bool have_prev = false;
  for (;;) {
    {
      std::unique_lock lock(monitor_mutex_);
      monitor_cv_.wait_for(lock, kMonitorPoll, [&] { return monitor_stop_; });
      if (monitor_stop_) return;
    }
    if (poisoned()) return;  // an event beat us to it; nothing left to prove
    if (scan_for_deadlock(prev, have_prev)) return;
  }
}

bool WorldState::scan_for_deadlock(std::vector<RankSnapshot>& prev,
                                   bool& have_prev) {
  // Under an in-progress revocation (fail-stop + repair) every blocked
  // survivor is about to wake with RankRevoked; declaring a deadlock here
  // would race the repair and poison it spuriously. A repair that truly
  // wedges still hits the watchdog deadline on its own.
  if (poison_.revoked_flag.load(std::memory_order_acquire)) {
    have_prev = false;
    return false;
  }
  auto snaps = progress_.snapshot_all();

  // Any rank still computing can deliver a message or reach the watchdog
  // on its own: not a deadlock (this is exactly the livelock case that
  // must keep the timeout fallback).
  bool any_blocked = false;
  for (const auto& snap : snaps) {
    if (snap.phase == RankPhase::Computing) {
      have_prev = false;
      return false;
    }
    if (snap.phase == RankPhase::Blocked) any_blocked = true;
  }
  if (!any_blocked) {  // everyone exited; run() will wrap up
    have_prev = false;
    return false;
  }

  // A blocked rank whose awaited (source, tag) is already queued is about
  // to wake up and make progress.
  for (int r = 0; r < static_cast<int>(snaps.size()); ++r) {
    const auto& snap = snaps[static_cast<std::size_t>(r)];
    if (snap.phase != RankPhase::Blocked) continue;
    if (!snap.has_op || snap.sig.wait_source < 0) {
      have_prev = false;  // wait not yet fully published; come back later
      return false;
    }
    if (mailbox(r).has_match(snap.sig.wait_source, snap.sig.wait_tag)) {
      have_prev = false;
      return false;
    }
  }

  // Require two identical snapshots one poll apart. Heartbeats advance
  // before every deliver and on every phase change, so a stable snapshot
  // rules out an in-flight send that the phase check raced past.
  if (have_prev && prev.size() == snaps.size()) {
    bool stable = true;
    for (std::size_t i = 0; i < snaps.size(); ++i) {
      if (snaps[i].phase != prev[i].phase ||
          snaps[i].heartbeat != prev[i].heartbeat) {
        stable = false;
        break;
      }
    }
    if (stable) {
      declare_deadlock(snaps);
      return true;
    }
  }
  prev = std::move(snaps);
  have_prev = true;
  return false;
}

void WorldState::declare_deadlock(const std::vector<RankSnapshot>& snaps) {
  const std::string verdict = analyze_deadlock(snaps);

  WorldAutopsy autopsy;
  autopsy.deterministic = true;
  autopsy.verdict = verdict;
  autopsy.ranks.reserve(snaps.size());
  int reporter = -1;
  for (int r = 0; r < static_cast<int>(snaps.size()); ++r) {
    const auto& snap = snaps[static_cast<std::size_t>(r)];
    RankAutopsy entry;
    entry.rank = r;
    entry.phase = snap.phase;
    entry.heartbeat = snap.heartbeat;
    entry.has_op = snap.has_op;
    entry.sig = snap.sig;
    autopsy.ranks.push_back(std::move(entry));
    if (reporter < 0 && snap.phase == RankPhase::Blocked) reporter = r;
  }

  std::string message = "deterministic deadlock: " + verdict;
  if (reporter >= 0) {
    const auto& snap = snaps[static_cast<std::size_t>(reporter)];
    if (snap.has_op) {
      message += "; rank " + std::to_string(reporter) + " blocked in " +
                 snap.sig.describe();
    }
  }
  capture_event(reporter >= 0 ? reporter : 0, SimTimeout(message),
                std::move(autopsy));
}

World::World(WorldOptions options)
    : state_(std::make_shared<WorldState>(options)) {}

World::~World() = default;

void World::set_tools(ToolHooks* tools) noexcept { state_->tools_ = tools; }

void World::add_keepalive(std::shared_ptr<void> keepalive) {
  state_->keepalives_.push_back(std::move(keepalive));
}

WorldResult World::run(const std::function<void(Mpi&)>& rank_main) {
  if (ran_) throw InternalError("World::run: a World is single-use");
  ran_ = true;

  const auto state = state_;
  const int nranks = state->options_.nranks;
  state->deadline_ = std::chrono::steady_clock::now() + state->options_.watchdog;
  if (telemetry::Recorder::instance().enabled()) {
    state->trace_slot_ = telemetry::Recorder::world_slot();
  }

  if (const auto& replay = state->options_.replay) {
    if (static_cast<int>(replay->cut.size()) != nranks) {
      throw ConfigError("World::run: snapshot rank count mismatch");
    }
    // Messages in flight across the snapshot cut (sent in the prefix,
    // received in the suffix) are seeded before any rank launches, so the
    // suffix finds them already queued, exactly as at the cut.
    for (const auto& pre : replay->preseed) {
      Message message;
      message.source = pre.source_comm;
      message.tag = pre.transport_tag;
      if (pre.payload) {
        message.payload.assign(pre.payload->begin(), pre.payload->end());
      }
      state->mailbox(pre.dest_world).deliver(std::move(message));
    }
  }

  return state->options_.engine == WorldEngine::Threads
             ? run_threads(rank_main)
             : run_fibers(rank_main);
}

WorldResult World::run_threads(const std::function<void(Mpi&)>& rank_main) {
  const auto state = state_;
  const int nranks = state->options_.nranks;

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    // Each thread copies the rank function and shares ownership of the
    // state: a quarantined straggler must never reach back into the
    // caller's stack frame.
    threads.emplace_back([state, r, fn = rank_main] {
      {
        // One span per rank lifetime, on the rank's own trace lane of
        // this world's slot; the bind gives the lane its Perfetto thread
        // name.
        const int lane = telemetry::rank_lane(state->trace_slot_, r);
        if (telemetry::Recorder::instance().enabled()) {
          telemetry::Recorder::bind_thread(telemetry::Track::Rank, lane,
                                           telemetry::rank_lane_label(lane));
        }
        telemetry::ScopedSpan rank_span("rank-main", telemetry::Track::Rank,
                                        lane);
        Mpi mpi(state, r);
        try {
          fn(mpi);
        } catch (const WorldAborted&) {
          // Subordinate teardown; the initiating rank already reported.
        } catch (const RankKilled& event) {
          // Fail-stop: this rank dies here. Repair-off poisons the world;
          // repair-on revokes the old communicators and lets survivors
          // shrink and continue.
          state->report_rank_death(r, event);
        } catch (const RankRevoked&) {
          // A survivor that could not (or chose not to) repair after a
          // peer's death: subordinate to the already-captured RankDead
          // event, exactly like WorldAborted.
        } catch (const FaultEvent& event) {
          state->report_event(r, event);
        } catch (const std::bad_alloc&) {
          // A corrupted size that slipped past application checks exhausted
          // memory: on a real cluster the OOM killer takes the job down,
          // the same observable as a crash.
          state->report_event(
              r, SimSegFault(0, 0, "allocation failure (OOM kill)"));
        } catch (const std::length_error&) {
          state->report_event(r, SimSegFault(0, 0, "absurd allocation request"));
        } catch (...) {
          {
            std::lock_guard lock(state->internal_mutex_);
            if (!state->internal_error_) {
              state->internal_error_ = std::current_exception();
            }
          }
          state->poison_and_wake();
        }
      }
      // Once any rank exits its main early (fault path), messages it would
      // have sent never arrive; poisoning handles the fault paths, and a
      // clean early exit simply stops participating — which the monitor
      // then proves out as a blocked-on-exited-peer deadlock.
      state->progress_.publish_exited(r);
      state->mark_done(r);
    });
  }

  std::thread monitor;
  if (state->options_.hang_detection && nranks > 1) {
    monitor = std::thread([state] {
      if (telemetry::Recorder::instance().enabled()) {
        telemetry::Recorder::bind_thread(telemetry::Track::Monitor, 0,
                                         "hang-monitor");
      }
      state->monitor_loop();
    });
  }

  WorldResult result;

  // Bounded join: watchdog deadline plus grace. Every rank past its
  // deadline raises SimTimeout on its own, so tripping this means a rank
  // is wedged outside MiniMPI's control (e.g. an application spin that
  // never calls check_deadline).
  const auto join_deadline =
      state->deadline_ + std::max<std::chrono::milliseconds>(
                             state->options_.watchdog, kJoinGrace);
  if (!state->wait_all_done_until(join_deadline)) {
    // Escalate. If nothing was captured yet, force a timeout event first:
    // without it the world would look clean with digests missing and the
    // trial would misclassify as WRONG_ANS instead of INF_LOOP.
    int straggler = 0;
    for (int r = 0; r < nranks; ++r) {
      if (!state->done_[static_cast<std::size_t>(r)].load(
              std::memory_order_acquire)) {
        straggler = r;
        break;
      }
    }
    telemetry::Recorder::instance().instant(
        "teardown-escalated", telemetry::Track::Monitor, 0,
        "straggler=" + std::to_string(straggler));
    state->capture_event(
        straggler,
        SimTimeout("world teardown forced: rank " +
                   std::to_string(straggler) +
                   " still running past the join deadline"),
        std::nullopt);
    // Second poison + wake storm (capture_event above poisons once; the
    // storm repeats in case a waiter re-entered a wait since), then one
    // more grace period before quarantining.
    state->poison_and_wake();
    state->wait_all_done_until(std::chrono::steady_clock::now() + kJoinGrace);
  }

  for (int r = 0; r < nranks; ++r) {
    if (state->done_[static_cast<std::size_t>(r)].load(
            std::memory_order_acquire)) {
      threads[static_cast<std::size_t>(r)].join();
    } else {
      ThreadQuarantine::instance().adopt(
          std::move(threads[static_cast<std::size_t>(r)]), state,
          &state->done_[static_cast<std::size_t>(r)]);
      ++result.leaked_threads;
      if (auto& rec = telemetry::Recorder::instance(); rec.enabled()) {
        rec.instant("thread-quarantined", telemetry::Track::Monitor, 0,
                    "rank=" + std::to_string(r));
        static auto& quarantined =
            rec.counter("fastfit_quarantined_threads_total",
                        "Rank threads adopted by the quarantine");
        quarantined.add();
      }
    }
  }

  if (monitor.joinable()) {
    state->stop_monitor();
    monitor.join();
  }

  if (result.leaked_threads == 0) {
    if (state->internal_error_) std::rethrow_exception(state->internal_error_);
    // Post-trial audit: with every rank joined, all RAII registrations
    // must have unwound and (on a clean run) all sends been consumed.
    for (const auto& registry : state->registries_) {
      result.leaked_regions += registry->region_count();
    }
    for (const auto& mailbox : state->mailboxes_) {
      result.undelivered_messages += mailbox->pending();
    }
  }

  const int dead = state->dead_count_.load(std::memory_order_acquire);
  result.rank_died = dead > 0;
  // Repaired means every survivor ran its repair hook to completion; a
  // survivor that aborted mid-repair leaves the count short and the trial
  // classifies as RANK_DEAD.
  result.repaired =
      state->options_.repair && dead > 0 &&
      state->repaired_count_.load(std::memory_order_acquire) == nranks - dead;

  {
    std::lock_guard lock(state->event_mutex_);
    result.event = state->event_;
    result.autopsy = state->autopsy_;
  }
  return result;
}

void WorldState::fiber_idle(FiberScheduler& sched) {
  // Pass 1: wake anything that can still make progress. A doomed or
  // poisoned rank must observe its fate at the next cancellation point,
  // and a blocked rank whose awaited (source, tag) is already queued is
  // about to match (deliveries wake the owner eagerly; this scan is the
  // idle-time backstop).
  bool woke = false;
  const auto blocked = sched.blocked();
  for (int r : blocked) {
    bool wake =
        rank_doomed(r) || poison_.flag.load(std::memory_order_acquire);
    if (!wake) {
      const auto snap = progress_.snapshot(r);
      wake = snap.has_op && snap.sig.wait_source >= 0 &&
             mailbox(r).has_match(snap.sig.wait_source, snap.sig.wait_tag);
    }
    if (wake) {
      sched.make_ready(r);
      woke = true;
    }
  }
  if (woke || blocked.empty()) return;

  // Quiescence: no runnable fiber and no queued message any blocked
  // fiber awaits — and, unlike the thread engine's monitor, provably no
  // send in flight (sends are synchronous on this very thread), so no
  // two-snapshot stability dance is needed. This IS the structural
  // deadlock; route it through the same verdict/autopsy path as the
  // monitor so both engines report byte-identical events.
  if (options_.hang_detection && options_.nranks > 1 &&
      !poison_.revoked_flag.load(std::memory_order_acquire)) {
    declare_deadlock(progress_.snapshot_all());
    return;  // capture_event poisoned; its wake storm marked fibers ready
  }

  // Watchdog fallback (detection off, a single-rank world, or an
  // in-progress revocation, mirroring the monitor's skip): wait for an
  // external wake — kill_rank or a poison from another thread — or the
  // deadline, then resume every blocked fiber in rank order so the first
  // raises SimTimeout exactly like a parked thread whose timed wait
  // expired.
  if (sched.wait_for_ready(deadline_)) return;
  for (int r : sched.blocked()) sched.make_ready(r);
}

WorldResult World::run_fibers(const std::function<void(Mpi&)>& rank_main) {
  const auto state = state_;
  const int nranks = state->options_.nranks;

  // The scheduler lives on this stack frame: unlike a rank thread, a
  // fiber can never outlive run() — every MiniMPI wait is a cancellation
  // point, so a resumed fiber always unwinds, and the scheduler does not
  // return until all of them have. No monitor thread, no bounded join,
  // no quarantine: this world adds ZERO OS threads.
  FiberScheduler sched(nranks);
  for (int r = 0; r < nranks; ++r) {
    state->mailbox(r).set_fiber_waker(&sched, r);
  }

  const auto body = [&state, &rank_main](int r) {
    // One span per rank lifetime on the rank's trace lane of this
    // world's slot, so worlds on other executor workers never share it.
    // No per-rank bind_thread here: all fibers share the scheduler's
    // thread, and the exporter names the lane from its track/index pair.
    telemetry::ScopedSpan rank_span(
        "rank-main", telemetry::Track::Rank,
        telemetry::rank_lane(state->trace_slot_, r));
    Mpi mpi(state, r);
    try {
      rank_main(mpi);
    } catch (const WorldAborted&) {
      // Subordinate teardown; the initiating rank already reported.
    } catch (const RankKilled& event) {
      state->report_rank_death(r, event);
    } catch (const RankRevoked&) {
      // A survivor that could not (or chose not to) repair: subordinate
      // to the already-captured RankDead event, like WorldAborted.
    } catch (const FaultEvent& event) {
      state->report_event(r, event);
    } catch (const std::bad_alloc&) {
      state->report_event(
          r, SimSegFault(0, 0, "allocation failure (OOM kill)"));
    } catch (const std::length_error&) {
      state->report_event(r, SimSegFault(0, 0, "absurd allocation request"));
    } catch (...) {
      {
        std::lock_guard lock(state->internal_mutex_);
        if (!state->internal_error_) {
          state->internal_error_ = std::current_exception();
        }
      }
      state->poison_and_wake();
    }
    state->progress_.publish_exited(r);
    state->mark_done(r);
  };

  sched.run(body, [&state, &sched] { state->fiber_idle(sched); });

  // Detach the wake routing under each mailbox's mutex before the
  // scheduler leaves this frame: a late cross-thread kill_rank can then
  // only ever see a null hook, never a dangling one.
  for (int r = 0; r < nranks; ++r) {
    state->mailbox(r).set_fiber_waker(nullptr, -1);
  }

  WorldResult result;  // leaked_threads stays 0: fibers always unwind

  if (state->internal_error_) std::rethrow_exception(state->internal_error_);
  for (const auto& registry : state->registries_) {
    result.leaked_regions += registry->region_count();
  }
  for (const auto& mailbox : state->mailboxes_) {
    result.undelivered_messages += mailbox->pending();
  }

  const int dead = state->dead_count_.load(std::memory_order_acquire);
  result.rank_died = dead > 0;
  result.repaired =
      state->options_.repair && dead > 0 &&
      state->repaired_count_.load(std::memory_order_acquire) == nranks - dead;

  {
    std::lock_guard lock(state->event_mutex_);
    result.event = state->event_;
    result.autopsy = state->autopsy_;
  }
  return result;
}

}  // namespace fastfit::mpi
