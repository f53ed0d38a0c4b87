#ifndef RPQLEARN_UTIL_THREAD_POOL_H_
#define RPQLEARN_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace rpqlearn {

class ExecContext;

namespace internal {

/// Shared completion slot behind TaskFuture. All cross-thread traffic —
/// result, exception, readiness — goes through `mutex`, so every
/// happens-before edge is visible to TSan even when the standard library
/// itself is uninstrumented. (std::future synchronizes through atomics
/// inside libstdc++; when that .so is built without TSan, the tool cannot
/// see the release/acquire pair and reports a false race between the
/// worker's destruction of the shared state and the consumer's read of the
/// result. See ThreadPoolTest.ExceptionPropagatesOutOfSubmit.)
template <typename R>
struct TaskState {
  std::mutex mutex;
  std::condition_variable ready_cv;
  bool ready = false;
  std::exception_ptr error;
  std::optional<R> value;
};

template <>
struct TaskState<void> {
  std::mutex mutex;
  std::condition_variable ready_cv;
  bool ready = false;
  std::exception_ptr error;
};

}  // namespace internal

/// One-shot future for a task submitted to ThreadPool. Move-only; `Get()`
/// blocks until the task finishes, then returns its result or rethrows the
/// exception it threw. Unlike std::future, `Get()` *moves* the result and
/// any stored exception out of the shared state before releasing the lock,
/// so their destruction always happens on the consuming thread — never
/// concurrently on the worker that produced them.
template <typename R>
class TaskFuture {
 public:
  TaskFuture() = default;
  explicit TaskFuture(std::shared_ptr<internal::TaskState<R>> state)
      : state_(std::move(state)) {}

  TaskFuture(TaskFuture&&) = default;
  TaskFuture& operator=(TaskFuture&&) = default;
  TaskFuture(const TaskFuture&) = delete;
  TaskFuture& operator=(const TaskFuture&) = delete;

  bool valid() const { return state_ != nullptr; }

  /// Waits for completion, then returns the task's result (rethrows its
  /// exception). Consumes the future: `valid()` is false afterwards.
  R Get() {
    std::shared_ptr<internal::TaskState<R>> state = std::move(state_);
    std::unique_lock<std::mutex> lock(state->mutex);
    state->ready_cv.wait(lock, [&] { return state->ready; });
    std::exception_ptr error = std::move(state->error);
    if (error) {
      lock.unlock();
      std::rethrow_exception(error);
    }
    if constexpr (!std::is_void_v<R>) {
      R result = std::move(*state->value);
      state->value.reset();
      lock.unlock();
      return result;
    }
  }

 private:
  std::shared_ptr<internal::TaskState<R>> state_;
};

/// Fixed-size thread pool: a single locked FIFO queue drained by `num_threads`
/// workers — deliberately work-stealing-free, so scheduling is easy to reason
/// about and the pool stays small enough to audit under TSan. Used by the
/// parallel evaluation layer (src/query/eval.cc), whose tasks are coarse
/// (one 64-source batch each), so queue contention is negligible.
///
/// Destruction drains the queue: tasks already submitted still run to
/// completion before the workers join, so a future obtained from `Submit` is
/// always eventually satisfied.
class ThreadPool {
 public:
  /// Spawns exactly `num_threads` workers (must be ≥ 1).
  explicit ThreadPool(uint32_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs every queued task, then joins all workers.
  ~ThreadPool();

  uint32_t num_threads() const {
    return static_cast<uint32_t>(workers_.size());
  }

  /// Enqueues `task` and returns a TaskFuture for its result. An exception
  /// thrown by the task is captured and rethrown from `future.Get()`.
  template <typename F>
  auto Submit(F task) -> TaskFuture<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto state = std::make_shared<internal::TaskState<R>>();
    auto wrapper = [state, task = std::move(task)]() mutable {
      std::exception_ptr error;
      if constexpr (std::is_void_v<R>) {
        try {
          task();
        } catch (...) {
          error = std::current_exception();
        }
        std::lock_guard<std::mutex> lock(state->mutex);
        state->error = std::move(error);
        state->ready = true;
      } else {
        std::optional<R> result;
        try {
          result.emplace(task());
        } catch (...) {
          error = std::current_exception();
        }
        std::lock_guard<std::mutex> lock(state->mutex);
        state->value = std::move(result);
        state->error = std::move(error);
        state->ready = true;
      }
      // Notify while the worker still holds its shared_ptr, so the state
      // cannot be destroyed underneath the notify.
      state->ready_cv.notify_all();
    };
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.emplace_back(std::move(wrapper));
    }
    wake_workers_.notify_one();
    return TaskFuture<R>(std::move(state));
  }

  /// Runs `fn(worker, index)` for every index in [0, count), dynamically
  /// load-balanced over at most `num_workers` concurrent executors: the
  /// calling thread is worker 0 and up to min(num_workers - 1, num_threads())
  /// pool threads join as workers 1, 2, …. Worker ids are dense, so callers
  /// can index per-worker scratch arrays with them; an id is owned by exactly
  /// one thread for the whole call, but which *indices* a worker draws is
  /// scheduling-dependent — `fn` must not let its output depend on the
  /// assignment (write to per-index or per-worker slots).
  ///
  /// Blocks until every index has run. If one or more invocations throw, the
  /// remaining indices are abandoned, all executors are drained, and the
  /// first captured exception is rethrown on the calling thread.
  ///
  /// Re-entrant calls — a task running on this pool starting a nested
  /// ParallelFor on the same pool — execute the whole loop inline on the
  /// calling worker (helpers would queue behind it and deadlock).
  ///
  /// When `exec` is non-null, executors stop drawing fresh indices as soon as
  /// the context trips: indices already being processed finish (or bail at
  /// their own checkpoints), remaining ones are abandoned. The caller is
  /// responsible for discarding the partial result when `exec->tripped()`.
  void ParallelFor(uint32_t num_workers, size_t count,
                   const std::function<void(uint32_t worker, size_t index)>& fn,
                   const ExecContext* exec = nullptr);

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable wake_workers_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace rpqlearn

#endif  // RPQLEARN_UTIL_THREAD_POOL_H_
