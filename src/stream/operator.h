#pragma once

// Operator base class: a named processing element with its own thread.
//
// Mirrors the InfoSphere operator model the paper builds on: an operator
// owns mutable state, consumes tuples from input channels, emits to output
// channels, and runs until its inputs close or it is asked to stop.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "stream/metrics.h"
#include "stream/queue.h"
#include "stream/tuple.h"

namespace astro::stream {

template <typename T>
using ChannelPtr = std::shared_ptr<BoundedQueue<T>>;

/// Creates a channel connecting two operators.
template <typename T>
[[nodiscard]] ChannelPtr<T> make_channel(std::size_t capacity = 1024) {
  return std::make_shared<BoundedQueue<T>>(capacity);
}

class Operator {
 public:
  explicit Operator(std::string name) : name_(std::move(name)) {}
  virtual ~Operator() { join(); }

  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;

  /// Launches the operator thread.  Idempotent while a thread exists; use
  /// restart() to launch a fresh incarnation after the previous one exited.
  void start() {
    if (!thread_.joinable()) launch();
  }

  /// Reaps the finished incarnation and launches a new one — supervised
  /// restart after a (simulated) crash.  The caller must know the previous
  /// thread has exited (e.g. via a lifecycle flag), so the join here is
  /// immediate.  A pending request_stop() is deliberately preserved: a
  /// restart must not override a shutdown in progress.
  void restart() {
    join();
    launch();
  }

  /// Cooperative stop: the run loop checks stop_requested(), and an
  /// operator parked in wait_until_stopped() wakes at once.
  void request_stop() {
    {
      // Stored under the mutex: a waiter checks the flag under it before
      // blocking, so the store cannot land between its check and its wait.
      std::lock_guard lock(stop_mutex_);
      stop_.store(true, std::memory_order_relaxed);
    }
    stop_cv_.notify_all();
  }

  void join() {
    if (thread_.joinable()) thread_.join();
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const OperatorMetrics& metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] StopReason stop_reason() const noexcept { return reason_; }

 protected:
  /// The operator body; runs on the operator thread.
  virtual void run() = 0;

  [[nodiscard]] bool stop_requested() const noexcept {
    return stop_.load(std::memory_order_relaxed);
  }

  /// The operator's one timed wait: blocks until `deadline` or until
  /// request_stop(), whichever comes first, and returns stop_requested().
  /// Every deliberate delay on an operator thread (pacing, backoff, poll
  /// intervals, injected stalls) goes through here, so stop -> join never
  /// waits out a period.  A deadline already past returns without locking.
  template <typename Clock, typename Duration>
  bool wait_until_stopped(
      const std::chrono::time_point<Clock, Duration>& deadline) {
    if (stop_requested() || Clock::now() >= deadline) return stop_requested();
    std::unique_lock lock(stop_mutex_);
    return stop_cv_.wait_until(lock, deadline,
                               [this] { return stop_requested(); });
  }
  /// wait_until_stopped(now + d).
  template <typename Rep, typename Period>
  bool wait_for_stop(const std::chrono::duration<Rep, Period>& d) {
    using Clock = std::chrono::steady_clock;
    return wait_until_stopped(
        Clock::now() + std::chrono::duration_cast<Clock::duration>(d));
  }

  void set_stop_reason(StopReason r) noexcept { reason_ = r; }

  OperatorMetrics metrics_;

 private:
  void launch() {
    // The elapsed window is stamped from inside the operator thread: on a
    // loaded box the gap between std::thread construction and the first
    // scheduled slice can reach milliseconds, and charging that to the
    // operator skews every throughput number derived from elapsed time.
    thread_ = std::thread([this] {
      metrics_.mark_start();
      run();
      metrics_.mark_stop();
    });
  }

  std::string name_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  StopReason reason_ = StopReason::kNone;
};

}  // namespace astro::stream
