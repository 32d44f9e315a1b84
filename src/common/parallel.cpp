#include "common/parallel.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "obs/obs.hpp"

namespace vab::common {

namespace {

constexpr unsigned kMaxThreads = 256;

thread_local bool t_in_worker = false;

std::atomic<unsigned> g_override{0};

// Engine observability: per-worker busy/idle time, task counts and the
// submit→dequeue queue-wait histogram. Handles resolve once; recording is a
// couple of relaxed atomic adds per *task* (one task = one helper's share of
// a whole parallel_for), so the engine's hot path is untouched.
struct EngineMetrics {
  obs::Counter tasks = obs::counter("parallel.tasks");
  obs::Counter loops = obs::counter("parallel.loops");
  obs::Counter inline_loops = obs::counter("parallel.inline_loops");
  obs::Counter busy_ns = obs::counter("parallel.worker_busy_ns");
  obs::Counter idle_ns = obs::counter("parallel.worker_idle_ns");
  obs::Gauge threads_gauge = obs::gauge("parallel.threads");
  // Per-worker attribution ({worker=N} series). Worker indices are bounded
  // by kMaxThreads, so the cap is never hit and no series is ever dropped.
  obs::CounterFamily busy_by_worker{obs::Registry::global(),
                                    "parallel.worker_busy_ns", kMaxThreads};
  obs::CounterFamily idle_by_worker{obs::Registry::global(),
                                    "parallel.worker_idle_ns", kMaxThreads};
  obs::CounterFamily tasks_by_worker{obs::Registry::global(),
                                     "parallel.worker_tasks", kMaxThreads};
  // 1µs .. 1s upper bounds, then overflow.
  obs::Histogram queue_wait_ns = obs::histogram(
      "parallel.queue_wait_ns",
      {1'000, 10'000, 100'000, 1'000'000, 10'000'000, 100'000'000, 1'000'000'000});

  static EngineMetrics& get() {
    static EngineMetrics* m = new EngineMetrics;  // leaked: read at exit
    return *m;
  }
};

// Work-sharing pool: workers pull whole "helper" tasks from a FIFO queue.
// Workers never block inside a task (nested loops run inline), so every
// submitted task terminates and the queue always drains.
class Pool {
 public:
  static Pool& instance() {
    static Pool p;
    return p;
  }

  /// Grows the worker set so at least `n` workers exist (capped).
  void ensure_workers(unsigned n) {
    n = std::min(n, kMaxThreads);
    std::lock_guard<std::mutex> lk(mu_);
    while (workers_.size() < n) {
      const unsigned widx = static_cast<unsigned>(workers_.size());
      workers_.emplace_back([this, widx] {
        t_in_worker = true;
        obs::set_thread_name("pool-worker");
        EngineMetrics& m = EngineMetrics::get();
        // Resolve this worker's labeled series once; recording stays the
        // usual lock-free shard add.
        const obs::LabelSet wl{{"worker", std::to_string(widx)}};
        const obs::Counter w_busy = m.busy_by_worker.with(wl);
        const obs::Counter w_idle = m.idle_by_worker.with(wl);
        const obs::Counter w_tasks = m.tasks_by_worker.with(wl);
        for (;;) {
          Task task;
          const std::uint64_t t_wait = obs::now_ns();
          {
            std::unique_lock<std::mutex> lk2(mu_);
            cv_.wait(lk2, [this] { return stop_ || !queue_.empty(); });
            if (stop_ && queue_.empty()) return;
            task = std::move(queue_.front());
            queue_.pop_front();
          }
          const std::uint64_t t_run = obs::now_ns();
          m.idle_ns.add(t_run - t_wait);
          w_idle.add(t_run - t_wait);
          m.queue_wait_ns.record(t_run - task.enqueue_ns);
          m.tasks.inc();
          w_tasks.inc();
          task.fn();
          const std::uint64_t t_done = obs::now_ns();
          m.busy_ns.add(t_done - t_run);
          w_busy.add(t_done - t_run);
        }
      });
    }
  }

  void submit(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      queue_.push_back(Task{std::move(task), obs::now_ns()});
    }
    cv_.notify_one();
  }

  ~Pool() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

 private:
  Pool() = default;

  struct Task {
    std::function<void()> fn;
    std::uint64_t enqueue_ns = 0;  // submit time, for the queue-wait histogram
  };

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Task> queue_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

// Shared state of one parallel_for invocation. Heap-held via shared_ptr so
// helper tasks that outlive the caller's drain loop stay valid until the
// last one signals completion (the caller blocks on `pending == 0`).
struct Job {
  std::function<void(std::size_t)> body;
  std::atomic<std::size_t> next{0};
  std::size_t end = 0;
  std::size_t chunk = 1;

  std::mutex mu;
  std::condition_variable done;
  unsigned pending = 0;  // helpers still running (guarded by mu)

  std::mutex err_mu;
  std::exception_ptr error;

  void drain() {
    for (;;) {
      const std::size_t lo = next.fetch_add(chunk);
      if (lo >= end) return;
      const std::size_t hi = std::min(end, lo + chunk);
      try {
        for (std::size_t i = lo; i < hi; ++i) body(i);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lk(err_mu);
          if (!error) error = std::current_exception();
        }
        next.store(end);  // abandon remaining chunks best-effort
        return;
      }
    }
  }
};

}  // namespace

unsigned hardware_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

unsigned thread_count() {
  const unsigned o = g_override.load();
  if (o > 0) return std::min(o, kMaxThreads);
  if (const char* env = std::getenv("VAB_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && v > 0)
      return std::min(static_cast<unsigned>(v), kMaxThreads);
  }
  return hardware_thread_count();
}

void set_thread_count(unsigned n) {
  g_override.store(std::min(n, kMaxThreads));
  obs::set_manifest("threads", std::to_string(thread_count()));
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body) {
  if (end <= begin) return;
  const std::size_t n = end - begin;
  unsigned threads = thread_count();
  if (threads > n) threads = static_cast<unsigned>(n);

  // Serial fast path: one thread requested, or we're already inside a pool
  // worker (nested parallelism runs inline so the pool can never deadlock).
  if (threads <= 1 || t_in_worker) {
    if (!t_in_worker) EngineMetrics::get().inline_loops.inc();
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }

  EngineMetrics& metrics = EngineMetrics::get();
  metrics.loops.inc();
  metrics.threads_gauge.set(static_cast<double>(threads));
  VAB_SPAN("parallel_for");

  auto job = std::make_shared<Job>();
  // Shift the range to [0, n) so `next` starts at 0 regardless of `begin`.
  job->body = [&body, begin](std::size_t i) { body(begin + i); };
  job->end = n;
  job->chunk = std::max<std::size_t>(1, n / (8 * threads));

  const unsigned helpers = threads - 1;
  job->pending = helpers;
  Pool& pool = Pool::instance();
  pool.ensure_workers(helpers);
  for (unsigned h = 0; h < helpers; ++h) {
    pool.submit([job] {
      {
        VAB_SPAN("parallel.task");
        job->drain();
      }
      // Decrement and notify under the mutex so the Job cannot be released
      // between the caller's predicate check and our notify.
      std::lock_guard<std::mutex> lk(job->mu);
      --job->pending;
      job->done.notify_all();
    });
  }

  job->drain();  // the caller participates too
  {
    std::unique_lock<std::mutex> lk(job->mu);
    job->done.wait(lk, [&] { return job->pending == 0; });
  }
  if (job->error) std::rethrow_exception(job->error);
}

}  // namespace vab::common
