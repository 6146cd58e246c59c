#include "src/sim/engine.h"

#include "src/common/check.h"

namespace tm2c {

size_t SimEngine::AddActor(std::function<void()> body, size_t stack_size) {
  TM2C_CHECK_MSG(!started_, "AddActor after Run()");
  auto actor = std::make_unique<Actor>();
  actor->fiber = std::make_unique<Fiber>(std::move(body), stack_size);
  actors_.push_back(std::move(actor));
  return actors_.size() - 1;
}

void SimEngine::SetChaos(const ChaosConfig& chaos) {
  TM2C_CHECK_MSG(!started_, "SetChaos after Run()");
  shuffle_ties_ = chaos.shuffle_ties;
  tie_rng_.Seed(chaos.seed ^ 0xc4a05c75ull);
}

void SimEngine::ScheduleAt(SimTime t, std::function<void()> cb) {
  TM2C_CHECK_MSG(t >= now_, "scheduling into the past");
  const uint64_t tie = shuffle_ties_ ? tie_rng_.Next() : 0;
  events_.push(Event{t, tie, next_seq_++, std::move(cb)});
}

void SimEngine::ResumeActor(Actor* actor) {
  TM2C_CHECK(!actor->fiber->finished());
  Actor* prev = running_;
  running_ = actor;
  actor->fiber->Resume();
  running_ = prev;
}

SimTime SimEngine::Run(SimTime until) {
  if (!started_) {
    started_ = true;
    // Kick off every actor at time zero, in registration order.
    for (auto& actor : actors_) {
      Actor* a = actor.get();
      ScheduleAt(now_, [this, a]() {
        if (!a->fiber->finished()) {
          ResumeActor(a);
        }
      });
    }
  }
  stop_requested_ = false;
  while (!events_.empty() && !stop_requested_) {
    const Event& top = events_.top();
    if (top.time > until) {
      break;
    }
    // Moving out of the queue requires a const_cast because priority_queue
    // only exposes const top(); the element is popped immediately after.
    Event ev = std::move(const_cast<Event&>(top));
    events_.pop();
    now_ = ev.time;
    ++events_executed_;
    ev.cb();
  }
  return now_;
}

void SimEngine::Sleep(SimTime delay) {
  TM2C_CHECK_MSG(running_ != nullptr, "Sleep outside an actor fiber");
  Actor* self = running_;
  ScheduleAt(now_ + delay, [this, self]() { ResumeActor(self); });
  self->fiber->Yield();
}

SimTime SimEngine::BlockCurrent() {
  TM2C_CHECK_MSG(running_ != nullptr, "BlockCurrent outside an actor fiber");
  Actor* self = running_;
  TM2C_CHECK(!self->blocked);
  self->blocked = true;
  self->fiber->Yield();
  TM2C_CHECK(!self->blocked);
  return now_;
}

void SimEngine::WakeActor(size_t idx, SimTime delay) {
  TM2C_CHECK(idx < actors_.size());
  Actor* actor = actors_[idx].get();
  TM2C_CHECK_MSG(actor->blocked && !actor->wake_pending, "WakeActor on non-blocked actor");
  actor->wake_pending = true;
  ScheduleAt(now_ + delay, [this, actor]() {
    actor->wake_pending = false;
    actor->blocked = false;
    ResumeActor(actor);
  });
}

bool SimEngine::ActorBlocked(size_t idx) const {
  TM2C_CHECK(idx < actors_.size());
  const Actor* actor = actors_[idx].get();
  return actor->blocked && !actor->wake_pending;
}

}  // namespace tm2c
