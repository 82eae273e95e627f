#ifndef LIDX_ADAPT_ENGINE_H_
#define LIDX_ADAPT_ENGINE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/mutex.h"
#include "common/parallel.h"
#include "common/thread_annotations.h"

namespace lidx {

// The background service that closes the adaptation loop. Clients register
// a tick callback (their sense -> decide -> act cycle: diff monitor
// snapshots, run the controller, kick off shadow builds); the engine runs
// every registered callback periodically on ThreadPool::Shared() workers.
//
// Threading model:
//  * A dedicated timer thread does nothing but wait out the period and
//    submit one tick task to the pool — it never runs client code, so it
//    cannot stall the schedule, and it never occupies a pool worker while
//    idle.
//  * Tick tasks are single-flight: if the previous tick is still running
//    (a long shadow build), the timer skips instead of queueing a pileup.
//  * TickNow() runs one synchronous tick on the caller — the deterministic
//    spelling used by tests and benchmarks.
//
// Contracts: callbacks must not register, drop a Registration or call Stop
// from inside a tick (the tick holds the registration mutex), and — like
// everything pool-reachable — must never block on pool futures (lidx-lint
// pool-blocking-get). Dropping a Registration returns only after any
// in-flight tick has finished, so a client may destroy itself immediately
// afterwards. Every Registration must be dropped before the engine is
// destroyed; the destructor aborts otherwise.
class AdaptationEngine {
 public:
  struct Options {
    std::chrono::milliseconds tick_period{100};
    ThreadPool* pool = nullptr;  // Defaults to ThreadPool::Shared().
  };

  struct Stats {
    uint64_t ticks = 0;           // Tick cycles that ran (timer + TickNow).
    uint64_t callback_runs = 0;   // Individual client callbacks executed.
    uint64_t skipped_ticks = 0;   // Timer fires coalesced into a busy tick.
  };

  // Two constructors instead of a default argument: `= Options()` in a
  // non-template class would need the nested NSDMIs before the enclosing
  // class is complete.
  AdaptationEngine() : AdaptationEngine(Options()) {}
  explicit AdaptationEngine(const Options& options)
      : options_(options),
        pool_(options.pool != nullptr ? options.pool
                                      : &ThreadPool::Shared()) {}

  ~AdaptationEngine() {
    Stop();
    MutexLock lock(mu_);
    LIDX_CHECK(clients_.empty() && "engine destroyed with a live registration");
  }

  AdaptationEngine(const AdaptationEngine&) = delete;
  AdaptationEngine& operator=(const AdaptationEngine&) = delete;

  // Move-only handle to one registered callback. Dropping it (destruction,
  // Reset, or move-assigning over it) unregisters the callback and waits
  // out any in-flight tick, so the callback's captures may die right after.
  class Registration {
   public:
    Registration() = default;
    Registration(Registration&& other) noexcept
        : engine_(std::exchange(other.engine_, nullptr)), id_(other.id_) {}
    Registration& operator=(Registration&& other) noexcept {
      if (this != &other) {
        Reset();
        engine_ = std::exchange(other.engine_, nullptr);
        id_ = other.id_;
      }
      return *this;
    }
    ~Registration() { Reset(); }

    void Reset() {
      if (engine_ != nullptr) std::exchange(engine_, nullptr)->Unregister(id_);
    }

   private:
    friend class AdaptationEngine;
    Registration(AdaptationEngine* engine, size_t id)
        : engine_(engine), id_(id) {}

    AdaptationEngine* engine_ = nullptr;
    size_t id_ = 0;
  };

  // Registers a client tick callback for as long as the returned handle
  // lives. The name shows up nowhere hot — it exists for debugging.
  [[nodiscard]] Registration Register(std::string name,
                                      std::function<void()> tick) {
    MutexLock lock(mu_);
    const size_t id = next_id_++;
    clients_.push_back(Client{id, std::move(name), std::move(tick)});
    return Registration(this, id);
  }

  // Starts the periodic service. Idempotent.
  void Start() {
    bool expected = false;
    if (!running_.compare_exchange_strong(expected, true)) return;
    timer_ = std::thread([this] { TimerLoop(); });
  }

  // Stops the timer and waits for the in-flight tick (if any) to finish.
  // Idempotent; also called by the destructor.
  void Stop() {
    {
      MutexLock lock(timer_mu_);
      if (!running_.load(std::memory_order_relaxed)) return;
      running_.store(false, std::memory_order_release);
      timer_cv_.NotifyAll();
    }
    if (timer_.joinable()) timer_.join();
    // The timer is gone but its last submitted tick may still be running
    // on a pool worker; wait it out so Stop() is a full barrier.
    while (tick_inflight_.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }

  bool running() const { return running_.load(std::memory_order_acquire); }

  // Runs one tick synchronously on the calling thread. Serializes against
  // the background tick via the same single-flight latch.
  void TickNow() {
    while (tick_inflight_.exchange(true, std::memory_order_acq_rel)) {
      std::this_thread::yield();
    }
    RunTick();
    tick_inflight_.store(false, std::memory_order_release);
  }

  Stats GetStats() const {
    Stats s;
    s.ticks = ticks_.load(std::memory_order_relaxed);
    s.callback_runs = callback_runs_.load(std::memory_order_relaxed);
    s.skipped_ticks = skipped_ticks_.load(std::memory_order_relaxed);
    return s;
  }

  size_t NumClients() const {
    MutexLock lock(mu_);
    return clients_.size();
  }

 private:
  struct Client {
    size_t id;
    std::string name;
    std::function<void()> tick;
  };

  // Removes a client (Registration's drop). Blocks until any in-flight
  // tick has drained, because RunTick holds mu_.
  void Unregister(size_t id) {
    MutexLock lock(mu_);
    for (size_t i = 0; i < clients_.size(); ++i) {
      if (clients_[i].id == id) {
        clients_.erase(clients_.begin() + static_cast<ptrdiff_t>(i));
        break;
      }
    }
  }

  void TimerLoop() {
    for (;;) {
      {
        MutexLock lock(timer_mu_);
        if (running_.load(std::memory_order_acquire)) {
          timer_cv_.WaitFor(timer_mu_, options_.tick_period);
        }
        if (!running_.load(std::memory_order_acquire)) return;
      }
      if (tick_inflight_.exchange(true, std::memory_order_acq_rel)) {
        // Previous tick still running (long shadow build): coalesce.
        skipped_ticks_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      pool_->Submit([this] {
        RunTick();
        tick_inflight_.store(false, std::memory_order_release);
      });
    }
  }

  // REQUIRES: tick_inflight_ held by the caller.
  void RunTick() {
    MutexLock lock(mu_);
    ticks_.fetch_add(1, std::memory_order_relaxed);
    for (const Client& client : clients_) {
      client.tick();
      callback_runs_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  Options options_;
  ThreadPool* pool_;

  mutable Mutex mu_;
  std::vector<Client> clients_ LIDX_GUARDED_BY(mu_);
  size_t next_id_ LIDX_GUARDED_BY(mu_) = 1;

  Mutex timer_mu_;
  CondVar timer_cv_;
  std::thread timer_;

  std::atomic<bool> running_{false};
  std::atomic<bool> tick_inflight_{false};
  std::atomic<uint64_t> ticks_{0};
  std::atomic<uint64_t> callback_runs_{0};
  std::atomic<uint64_t> skipped_ticks_{0};
};

}  // namespace lidx

#endif  // LIDX_ADAPT_ENGINE_H_
