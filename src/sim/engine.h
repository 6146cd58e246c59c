// Discrete-event simulation engine.
//
// The engine owns an ordered queue of (time, callback) events and a set of
// actor fibers. The scheduler context pops events in time order; events
// typically resume a blocked fiber, which runs until it blocks again (on a
// simulated delay, a mailbox, or a resource queue) and yields back. Events
// scheduled at the same instant run in FIFO order of scheduling — an
// explicit per-event sequence number is the tie-break, never the container's
// insertion behaviour — which keeps executions deterministic.
//
// Chaos mode (SetChaos) replaces the FIFO tie-break with a seeded random
// draw so that one workload explores many same-instant interleavings, one
// per seed, each still fully deterministic and replayable.
#ifndef TM2C_SRC_SIM_ENGINE_H_
#define TM2C_SRC_SIM_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/fiber.h"
#include "src/sim/time.h"

namespace tm2c {

// Seeded schedule-perturbation knobs. The engine consumes shuffle_ties;
// the runtime backend (SimSystem) consumes the message/poll knobs. All
// perturbations preserve the platform's guarantees — in particular FIFO
// delivery between any pair of cores — so a correct protocol must stay
// correct under every seed; only the schedule changes.
struct ChaosConfig {
  uint64_t seed = 0;
  // Randomize the execution order of same-instant events (default: FIFO in
  // scheduling order).
  bool shuffle_ties = false;
  // Extra per-message wire delay, uniform in [0, msg_jitter_max_ps].
  SimTime msg_jitter_max_ps = 0;
  // With poll_stall_pct% probability an inbox pickup stalls for a uniform
  // [0, poll_stall_max_ps] delay before the message is consumed (a service
  // core busy elsewhere, an unlucky poll rotation).
  uint32_t poll_stall_pct = 0;
  SimTime poll_stall_max_ps = 0;
  // With poll_duplicate_pct% probability a pickup pays the poll-scan cost
  // twice (a wasted scan over the peers before the one that hits).
  uint32_t poll_duplicate_pct = 0;

  bool any() const {
    return shuffle_ties || msg_jitter_max_ps > 0 || poll_stall_pct > 0 ||
           poll_duplicate_pct > 0;
  }
};

class SimEngine {
 public:
  SimEngine() = default;

  SimEngine(const SimEngine&) = delete;
  SimEngine& operator=(const SimEngine&) = delete;

  // -- Construction phase -----------------------------------------------

  // Registers an actor; its fiber starts running at time 0 when Run() is
  // called. Returns the actor index.
  size_t AddActor(std::function<void()> body, size_t stack_size = Fiber::kDefaultStackSize);

  // Installs the chaos configuration (only shuffle_ties is consumed here).
  // Must be called before the first Run(); the tie-break draw stream is
  // seeded once, so the whole run replays bit-for-bit per seed.
  void SetChaos(const ChaosConfig& chaos);

  // -- Scheduler-side API -----------------------------------------------

  // Runs until the event queue drains, all actors finish, or simulated time
  // would pass `until` (events after `until` are left unexecuted). Returns
  // the final simulated time.
  SimTime Run(SimTime until = UINT64_MAX);

  // Schedules `cb` at absolute simulated time `t` (>= now).
  void ScheduleAt(SimTime t, std::function<void()> cb);
  void ScheduleAfter(SimTime delay, std::function<void()> cb) { ScheduleAt(now_ + delay, cb); }

  // -- Fiber-side API (must be called from inside an actor fiber) --------

  // Blocks the calling actor for `delay` of simulated time.
  void Sleep(SimTime delay);

  // Blocks the calling actor until another party calls WakeActor on it.
  // Returns the simulated time at wake.
  SimTime BlockCurrent();

  // Wakes actor `idx` (blocked in BlockCurrent) at time now + delay.
  // Waking an actor that is not blocked is a checked error.
  void WakeActor(size_t idx, SimTime delay = 0);

  // True if the actor is currently parked in BlockCurrent and no wake for it
  // is already in flight.
  bool ActorBlocked(size_t idx) const;

  SimTime now() const { return now_; }
  size_t num_actors() const { return actors_.size(); }
  uint64_t events_executed() const { return events_executed_; }

  // Stops the run loop after the current event completes (callable from
  // fibers or callbacks). Used by workloads that hit their operation target
  // before the time horizon.
  void RequestStop() { stop_requested_ = true; }

 private:
  struct Actor {
    std::unique_ptr<Fiber> fiber;
    bool blocked = false;        // parked in BlockCurrent
    bool wake_pending = false;   // a wake event is in flight
  };

  struct Event {
    SimTime time;
    uint64_t tie;  // chaos shuffle draw; 0 outside chaos mode
    uint64_t seq;  // explicit monotone tie-break: FIFO among equal (time, tie)
    std::function<void()> cb;
  };

  struct EventCompare {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      if (a.tie != b.tie) {
        return a.tie > b.tie;
      }
      return a.seq > b.seq;
    }
  };

  void ResumeActor(Actor* actor);

  std::vector<std::unique_ptr<Actor>> actors_;
  std::priority_queue<Event, std::vector<Event>, EventCompare> events_;
  SimTime now_ = 0;
  bool shuffle_ties_ = false;
  Rng tie_rng_{0};
  uint64_t next_seq_ = 0;
  uint64_t events_executed_ = 0;
  Actor* running_ = nullptr;
  bool started_ = false;
  bool stop_requested_ = false;
};

}  // namespace tm2c

#endif  // TM2C_SRC_SIM_ENGINE_H_
