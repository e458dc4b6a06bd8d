// The engine's one worker fleet: a work-stealing task scheduler.
//
// It runs both axes of parallelism. The evaluator's DAG runner hands each
// wave of ready plan nodes (e.g. the independent exchange-union clones of a
// mutated plan) to ParallelFor, and each operator splits its input into
// fixed-size morsels (~64K rows, see exec/morsel_source.h) that run as the
// tasks of a nested ParallelFor, HyPer-style. Morsels produce thread-local
// result fragments that are concatenated in morsel order, so results stay
// bit-identical to serial whole-column execution.
//
// Scheduling is work-stealing over per-worker deques: a ParallelFor call
// distributes its tasks in contiguous blocks across the workers' deques,
// each worker pops its own deque LIFO (the block it was dealt, cache-warm)
// and steals FIFO from a victim when its own deque runs dry (cold end of the
// victim's block, classic Chase-Lev discipline with a small mutex per deque —
// morsel tasks are tens of microseconds, so lock cost is noise).
//
// The scheduler is *shared*: many queries may call ParallelFor concurrently;
// their tasks interleave on one worker fleet instead of each query spawning
// its own pool. The calling thread participates in its own job until no
// unclaimed tasks of that job remain, so a query never fully blocks behind
// another query's backlog.
//
// One level of nesting is allowed: a task may itself call ParallelFor (a
// plan-node task splitting its operator into morsels), but the tasks of that
// inner job must not. This cannot deadlock: the thread that submits an inner
// job drains every unclaimed task of that job itself, and an inner task
// never waits on anything, so every claimed task finishes.
#ifndef APQ_SCHED_MORSEL_SCHEDULER_H_
#define APQ_SCHED_MORSEL_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace apq {

/// \brief What one scheduler worker has done over its lifetime (observability
/// for benches and the concurrent-workload example; read when quiescent).
struct MorselWorkerStats {
  uint64_t tasks = 0;   ///< tasks this worker executed (not containers)
  uint64_t steals = 0;  ///< of those, taken from another worker's deque
  uint64_t steal_fails = 0;  ///< own deque dry AND nothing to steal (went idle)
  uint64_t busy_ns = 0;      ///< wall time spent executing counted tasks
};

/// \brief One flight-recorder sample: a periodic snapshot of scheduler
/// pressure, kept in a small ring so /debug/workers can show the recent
/// load shape, not just lifetime totals.
struct MorselFlightSample {
  double t_ns = 0;        ///< sample time relative to scheduler start
  uint64_t pending = 0;   ///< submitted-but-unclaimed tasks at sample time
  uint64_t tasks = 0;     ///< lifetime tasks completed (workers + caller)
  uint64_t steals = 0;    ///< lifetime successful steals
};

/// \brief Work-stealing morsel scheduler with per-worker deques.
///
/// Thread-safe: ParallelFor may be called from any number of threads
/// concurrently (multi-query sharing). A task may call ParallelFor on the
/// same scheduler once (node task -> morsel tasks); tasks of that inner job
/// must not call it again.
class MorselScheduler {
 public:
  /// Spawns `num_workers` workers; 0 = one per hardware thread.
  explicit MorselScheduler(int num_workers = 0);

  /// Joins all workers. All ParallelFor calls must have returned.
  ~MorselScheduler();

  MorselScheduler(const MorselScheduler&) = delete;
  MorselScheduler& operator=(const MorselScheduler&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// Runs `fn(task_index, worker)` for every task_index in [0, num_tasks),
  /// potentially in parallel, and returns when all have completed. `worker`
  /// is the executing worker id, or kCallerWorker when the submitting thread
  /// ran the task itself. Task order is unspecified; callers must make
  /// results order-independent (index into a fragment array).
  ///
  /// Tasks submitted inside an operator (obs::CurrentOpAcct() set) bill
  /// their duration and queue wait to that query and operator
  /// (obs/resource_tracker.h). A task that itself calls ParallelFor is a
  /// container: its inner tasks are counted in the task and busy counters
  /// below, the container is not.
  void ParallelFor(size_t num_tasks,
                   const std::function<void(size_t, int)>& fn);

  /// Worker id reported for tasks the submitting thread executed.
  static constexpr int kCallerWorker = -1;

  /// Per-worker lifetime counters (tasks run by submitting threads are in
  /// caller_tasks()).
  std::vector<MorselWorkerStats> worker_stats() const;
  uint64_t caller_tasks() const { return caller_tasks_.load(); }
  uint64_t caller_busy_ns() const { return caller_busy_ns_.load(); }
  /// Total tasks completed (workers + callers; containers not counted).
  uint64_t total_tasks() const;
  /// Submitted-but-unclaimed tasks right now (a live fleet-pressure signal;
  /// the query service reports it in /debug/service).
  uint64_t pending() const { return pending_.load(std::memory_order_relaxed); }
  /// Nanoseconds since this scheduler's workers were spawned.
  double uptime_ns() const;

  /// Oldest-first copy of the flight-recorder ring (pressure samples taken
  /// at most every ~50ms while jobs are being submitted).
  std::vector<MorselFlightSample> flight_samples() const;

  /// This scheduler's worker-health document (one entry of /debug/workers).
  std::string DebugJson() const;

  /// The /debug/workers body: every live scheduler's DebugJson under
  /// {"schedulers":[...]}. Installed as the HTTP exporter's workers
  /// provider by the first scheduler constructed.
  static std::string WorkersJson();

  /// A process-wide scheduler (hardware-sized) for callers that want the
  /// default shared fleet without wiring one through explicitly.
  static const std::shared_ptr<MorselScheduler>& Shared();

 private:
  struct Job;
  struct Task {
    Job* job = nullptr;
    size_t index = 0;
  };
  // One worker's deque + counters, padded so neighbours don't false-share.
  struct alignas(64) WorkerSlot {
    std::mutex mu;
    std::deque<Task> dq;
    std::atomic<uint64_t> tasks{0};
    std::atomic<uint64_t> steals{0};
    std::atomic<uint64_t> steal_fails{0};
    std::atomic<uint64_t> busy_ns{0};
  };

  void WorkerLoop(int w);
  bool PopOwn(int w, Task* out);
  /// On success `*victim` (when non-null) is the worker whose deque the task
  /// came from — the steal trace event's a1.
  bool StealAny(int w, Task* out, int* victim = nullptr);
  bool PopForJob(Job* job, Task* out);
  /// Runs the task (with the owning query's id + operator block installed),
  /// bills its duration/queue-wait and counts it on `worker` (a worker id or
  /// kCallerWorker); `stolen` counts a steal too.
  void RunTask(const Task& t, int worker, bool stolen);
  void MaybeSampleFlight();

  std::vector<std::unique_ptr<WorkerSlot>> slots_;
  std::vector<std::thread> workers_;
  std::atomic<uint64_t> caller_tasks_{0};
  std::atomic<uint64_t> caller_busy_ns_{0};
  std::atomic<size_t> next_deal_{0};  // round-robin base for job distribution
  double start_ns_ = 0;               // NowNs() at construction

  // Flight recorder: a small ring of recent pressure samples, written by
  // ParallelFor (rate-limited via flight_last_ns_ CAS) and copied whole by
  // DebugJson. Sized for ~6s of history at the 50ms cadence.
  static constexpr size_t kFlightCapacity = 128;
  // How long a thread polls before it blocks: ParallelFor for straggler
  // tasks, an idle worker for the next job. Node waves and morsel tasks are
  // tens of microseconds, about the cost of a futex sleep/wake round trip;
  // without the polls, TPC-DS plans over 80k rows ran about 8% slower on a
  // 4-vCPU host.
  static constexpr double kSpinBeforeSleepNs = 50e3;
  static constexpr double kFlightIntervalNs = 50e6;
  mutable std::mutex flight_mu_;
  std::deque<MorselFlightSample> flight_;
  std::atomic<uint64_t> flight_last_ns_{0};

  // Registry instruments, resolved once per scheduler (metrics aggregate
  // across scheduler instances; tests diff before/after a quiescent run).
  // Always-on: one relaxed atomic add per task on top of the slot counters.
  std::vector<obs::Counter*> m_worker_tasks_;   // per worker index
  std::vector<obs::Counter*> m_worker_steals_;  // per worker index
  std::vector<obs::Counter*> m_worker_busy_;    // per worker index, ns
  obs::Counter* m_tasks_ = nullptr;             // all claims (workers+caller)
  obs::Counter* m_steals_ = nullptr;
  obs::Counter* m_steal_fails_ = nullptr;       // went idle with nothing left
  obs::Counter* m_caller_tasks_ = nullptr;
  obs::Gauge* m_queue_depth_ = nullptr;         // submitted-but-unclaimed
  obs::Histogram* m_steal_latency_ = nullptr;   // ns from own-deque-dry to
                                                // successful steal

  // Sleep/wake: workers wait on idle_cv_ when the whole system is out of
  // tasks; pending_ counts submitted-but-unclaimed tasks.
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
  std::atomic<size_t> pending_{0};
  bool stop_ = false;
};

}  // namespace apq

#endif  // APQ_SCHED_MORSEL_SCHEDULER_H_
