#include "kernels/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "support/hardware.h"

namespace hetacc::kernels {

namespace {

std::atomic<int> g_default_threads{1};

/// One parallel_for invocation. Kept alive by shared_ptr so a worker that
/// wakes late (after the job completed and a new one started) only touches
/// the dead job's atomics, never the new job's cursor.
///
/// Exactly one of `fn` (per-index) / `range_fn` (per-range) is set. Workers
/// claim `grain` consecutive indices per cursor fetch; with the per-index
/// fn, each index runs under its own try/catch so every index is invoked
/// exactly once even when some throw.
struct Job {
  const std::function<void(std::size_t)>* fn = nullptr;
  const std::function<void(std::size_t, std::size_t)>* range_fn = nullptr;
  std::size_t n = 0;
  std::size_t grain = 1;
  std::atomic<std::size_t> cursor{0};
  std::atomic<std::size_t> completed{0};
  std::mutex err_mutex;
  std::exception_ptr error;

  void record(std::exception_ptr e) {
    std::lock_guard<std::mutex> lk(err_mutex);
    if (!error) error = std::move(e);
  }

  void run_share() {
    for (std::size_t lo = cursor.fetch_add(grain); lo < n;
         lo = cursor.fetch_add(grain)) {
      const std::size_t hi = std::min(n, lo + grain);
      if (fn) {
        for (std::size_t i = lo; i < hi; ++i) {
          try {
            (*fn)(i);
          } catch (...) {
            record(std::current_exception());
          }
        }
      } else {
        try {
          (*range_fn)(lo, hi);
        } catch (...) {
          record(std::current_exception());
        }
      }
      completed.fetch_add(hi - lo);
    }
  }

  [[nodiscard]] bool done() const { return completed.load() >= n; }
};

/// Lazily grown pool of parked workers. One job runs at a time (jobs from
/// nested parallel_for calls fall back to inline execution via the job
/// mutex try-lock, so nesting cannot deadlock).
class Pool {
 public:
  static Pool& instance() {
    static Pool p;
    return p;
  }

  /// `participants` counts the caller: k participants = the calling thread
  /// plus k - 1 pool workers. resolve_threads() caps requests at the
  /// hardware thread count before they reach here, so ensure_workers never
  /// silently under-provisions a capped request — the historical bug where
  /// the worker clamp was applied before accounting for the caller.
  bool run(std::size_t participants, const std::shared_ptr<Job>& job) {
    std::unique_lock<std::mutex> job_lock(job_mutex_, std::try_to_lock);
    if (!job_lock.owns_lock()) return false;  // nested: caller runs inline
    {
      std::lock_guard<std::mutex> lk(mutex_);
      ensure_workers(participants - 1);
      current_ = job;
      ++generation_;
    }
    cv_work_.notify_all();
    job->run_share();  // the caller is a full participant
    {
      std::unique_lock<std::mutex> lk(mutex_);
      cv_done_.wait(lk, [&] { return job->done(); });
      current_.reset();
    }
    return true;
  }

 private:
  Pool() = default;
  ~Pool() {
    {
      std::lock_guard<std::mutex> lk(mutex_);
      stop_ = true;
    }
    cv_work_.notify_all();
    for (auto& t : workers_) t.join();
  }

  void ensure_workers(std::size_t want) {  // callers hold mutex_
    // The pool itself holds at most H - 1 threads (the caller is the H-th
    // participant); on a single-core machine it holds none and every region
    // runs inline.
    const unsigned hc = hardware_threads();
    const std::size_t cap = hc > 1 ? hc - 1 : 0;
    want = std::min(want, cap);
    while (workers_.size() < want) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  void worker_loop() {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lk(mutex_);
    while (true) {
      cv_work_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      std::shared_ptr<Job> job = current_;
      if (!job) continue;
      lk.unlock();
      job->run_share();
      lk.lock();
      if (job->done()) cv_done_.notify_all();
    }
  }

  std::mutex job_mutex_;  ///< serializes whole jobs
  std::mutex mutex_;      ///< guards pool state below
  std::condition_variable cv_work_, cv_done_;
  std::vector<std::thread> workers_;
  std::shared_ptr<Job> current_;
  std::uint64_t generation_ = 0;
  bool stop_ = false;

 public:
  [[nodiscard]] std::size_t worker_count() {
    std::lock_guard<std::mutex> lk(mutex_);
    return workers_.size();
  }
};

void dispatch(std::size_t n, std::size_t grain,
              const std::function<void(std::size_t)>* fn,
              const std::function<void(std::size_t, std::size_t)>* range_fn,
              int threads) {
  if (n == 0) return;
  grain = std::max<std::size_t>(grain, 1);
  if (threads == 0) threads = num_threads();
  const std::size_t chunks = (n + grain - 1) / grain;
  std::size_t want = static_cast<std::size_t>(resolve_threads(threads));
  want = std::min(want, chunks);
  if (want > 1) {
    // Heap-allocated so a worker that wakes after this call returned only
    // ever touches the (kept-alive) dead job, never the caller's frame.
    auto job = std::make_shared<Job>();
    job->fn = fn;
    job->range_fn = range_fn;
    job->n = n;
    job->grain = grain;
    if (Pool::instance().run(want, job)) {
      if (job->error) std::rethrow_exception(job->error);
      return;
    }
    // A parallel region was already active (nested call): fall through to
    // the inline path.
  }
  // Serial execution with the same exception semantics as the pool path:
  // per-index capture, first error rethrown after full coverage.
  std::exception_ptr error;
  if (fn) {
    for (std::size_t i = 0; i < n; ++i) {
      try {
        (*fn)(i);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
  } else {
    for (std::size_t lo = 0; lo < n; lo += grain) {
      const std::size_t hi = std::min(n, lo + grain);
      try {
        (*range_fn)(lo, hi);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace

int num_threads() { return g_default_threads.load(std::memory_order_relaxed); }

void set_num_threads(int threads) {
  g_default_threads.store(threads, std::memory_order_relaxed);
}

int resolve_threads(int threads) {
  const int hc = static_cast<int>(hardware_threads());
  if (threads <= 0) return hc;
  return std::min(threads, hc);
}

std::size_t pool_thread_count() { return Pool::instance().worker_count(); }

void parallel_for(std::size_t n, int threads,
                  const std::function<void(std::size_t)>& fn) {
  dispatch(n, 1, &fn, nullptr, threads);
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  parallel_for(n, 0, fn);
}

void parallel_for(std::size_t n, std::size_t grain, int threads,
                  const std::function<void(std::size_t)>& fn) {
  dispatch(n, grain, &fn, nullptr, threads);
}

void parallel_for_ranges(
    std::size_t n, std::size_t grain, int threads,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  dispatch(n, grain, nullptr, &fn, threads);
}

}  // namespace hetacc::kernels
