/**
 * @file
 * The unified worker scheduler of the shared execution service.
 *
 * One fixed set of worker threads serves BOTH kinds of work in the
 * process:
 *
 *  - **Batch tasks** — type-erased job closures enqueued by service
 *    sessions. Admission is fair FIFO across sessions: each session
 *    owns a queue, tasks stay FIFO within it, and workers
 *    round-robin across the non-empty queues, so a chatty session
 *    cannot starve a quiet one.
 *  - **Kernel chunks** — engaged statevector sweeps published
 *    through util/parallel.hh. A worker with no batch task lends
 *    itself to an active kernel loop (detail::assistOneKernelJob)
 *    and returns when the loop is exhausted; conversely, a worker
 *    executing a batch task that engages a kernel gets helped by
 *    its idle peers. This replaces the two competing thread sets
 *    (batch pool x kernel pool) and with them the manual
 *    "batchThreads x kernelThreads <= cores" sizing rule: the
 *    service's workers ARE the process's thread supply.
 *
 * Placement: prefixScheduleIndexChunks() groups a batch's jobs by
 * shared state preparation so that one prep's jobs run on one
 * worker (see below).
 *
 * Determinism: the scheduler only decides WHERE and WHEN work runs.
 * Batch results are pure functions of job content (content-derived
 * streams), kernel chunk decomposition is fixed (util/parallel.hh),
 * so no placement, fairness, or lending decision can change any
 * output bit.
 *
 * Backpressure: each admission queue is depth-bounded (the
 * maxQueueDepth construction parameter; 0 = unbounded). enqueue()
 * never blocks — a full queue is a typed rejection
 * (Admission::Full) so the submitting session can SHED the work
 * with a ResourceExhausted error instead of queueing unboundedly or
 * stalling the submit path.
 *
 * Shutdown: stop accepting, drain every queue, join the workers.
 * Tasks already enqueued always run; enqueue() after shutdown
 * returns Admission::Closed and the caller runs the task inline.
 */

#ifndef VARSAW_SERVICE_SCHEDULER_HH
#define VARSAW_SERVICE_SCHEDULER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sim/job.hh"
#include "sim/state_cache.hh"
#include "telemetry/metrics.hh"

namespace varsaw {

/**
 * Partition indices [0, keys.size()) into scheduler groups of equal
 * prep identity, preserving first-appearance order of the groups
 * and index order within each group. Groups compare **full**
 * PrepKeys, never their 64-bit combined() digest: two distinct
 * preps whose digests collide share at most a hash bucket — they
 * can never be merged into (or corrupt) one group, and equal keys
 * always serialize into the same group. Exposed for tests.
 */
std::vector<std::vector<std::size_t>>
groupByPrepKey(const std::vector<PrepKey> &keys);

/**
 * Grouping keys for prefix-aware placement: one PrepKey per job of
 * @p jobs, memoizing the prep structural hash per distinct shared
 * prep circuit.
 */
std::vector<PrepKey>
prepKeysOf(const std::vector<CircuitJob> &jobs);

/**
 * Prefix-aware placement: partition the submission-ordered jobs
 * tagged by @p keys into sequential chunks, returned as indices
 * into @p keys. With at least @p threads prep groups, one chunk per
 * group — a prep's jobs stay on one worker: its first job populates
 * the SimEngine's state cache and the rest hit it without
 * contending with other threads. With fewer groups, each is split
 * into enough contiguous chunks to keep every worker busy (the
 * engine tolerates the resulting cross-thread sharing via its
 * shared futures and still prepares each key exactly once). Chunk
 * composition is a pure function of (keys, threads); purely a
 * placement policy — results and streams are assigned at
 * submission and cannot change.
 */
std::vector<std::vector<std::size_t>>
prefixScheduleIndexChunks(const std::vector<PrepKey> &keys,
                          std::size_t threads);

/** Fair multi-queue worker pool with kernel-assist (see file doc). */
class ServiceScheduler
{
  public:
    /** Outcome of one admission attempt (see enqueue()). */
    enum class Admission
    {
        Accepted, //!< queued; a worker will run the task
        Full,     //!< queue at depth cap — shed or retry later
        Closed,   //!< shutting down / queue closed — run inline
    };

    /**
     * Spawn @p threads workers (at least one).
     *
     * @param max_queue_depth Per-queue admission cap: an enqueue
     *        that would make a queue deeper than this returns
     *        Admission::Full without queueing. 0 = unbounded (the
     *        historical behaviour).
     */
    explicit ServiceScheduler(int threads,
                              std::size_t max_queue_depth = 0);

    /** shutdown() if not already done. */
    ~ServiceScheduler();

    ServiceScheduler(const ServiceScheduler &) = delete;
    ServiceScheduler &operator=(const ServiceScheduler &) = delete;

    /**
     * Open an admission queue (one per session). @p label names the
     * owner in telemetry (the per-session `queue_wait` series); an
     * empty label keeps the queue anonymous (global series only).
     */
    std::uint64_t openQueue(std::string label = {});

    /**
     * Close an admission queue: no further enqueues; tasks already
     * queued still run, and the queue is reaped once empty.
     */
    void closeQueue(std::uint64_t queue);

    /**
     * Append a task to @p queue. Never blocks. Returns
     * Admission::Closed — without queuing — when the scheduler is
     * shutting down or the queue is closed (the caller must then
     * run the task itself: results cannot depend on which side runs
     * it), and Admission::Full when the queue is at its depth cap
     * (the caller sheds the task with a typed error — the one
     * admission outcome where the task does NOT run).
     */
    Admission enqueue(std::uint64_t queue,
                      std::function<void()> task);

    /** Per-queue admission cap (0 = unbounded). */
    std::size_t maxQueueDepth() const { return maxQueueDepth_; }

    /** Chunks currently waiting in @p queue (0 for unknown ids). */
    std::size_t queueDepth(std::uint64_t queue) const;

    /** Block until no task is queued or running. */
    void drain();

    /**
     * Stop accepting work, drain every queue, join the workers.
     * Idempotent and safe to call concurrently — with enqueues
     * (they fail over to inline execution) and with other shutdown
     * callers (every caller returns only once the queues are
     * drained and the workers are joined).
     */
    void shutdown();

    /** Number of worker threads. */
    int threadCount() const
    {
        return static_cast<int>(workers_.size());
    }

    /**
     * Admitted task closures executed by the workers so far. The
     * unit is the enqueued closure — for service sessions one
     * prefix-schedule CHUNK of jobs, not one job; see
     * ServiceStats::jobsSubmitted for job counts.
     */
    std::uint64_t chunksExecuted() const
    {
        return chunksExecuted_.load(std::memory_order_relaxed);
    }

    /**
     * Kernel loops idle workers were lent to so far (one count per
     * assist engagement; see assistedChunks() for the work done).
     */
    std::uint64_t kernelAssists() const
    {
        return kernelAssists_.load(std::memory_order_relaxed);
    }

    /**
     * Kernel chunks actually run by lent idle workers. This is the
     * work that used to be invisible: it shows up in neither
     * chunksExecuted() (not a batch task) nor the standalone pool's
     * helper counts (assist hosts bypass the pool's own workers).
     * With it, this scheduler's utilization adds up:
     * chunksExecuted() batch closures + assistedChunks() kernel
     * chunks is everything its threads ever ran.
     */
    std::uint64_t assistedChunks() const
    {
        return assistedChunks_.load(std::memory_order_relaxed);
    }

  private:
    /**
     * One admitted chunk. enqueueNs is nonzero only when telemetry
     * was observing at admission: it marks the entry as counted in
     * the `service.queue_depth` gauge (so enable/disable races
     * cannot leak the gauge) and carries the timestamp the
     * queue-wait attribution is computed from at pop. Timestamps
     * are never read for scheduling — pure observation.
     */
    struct Entry
    {
        std::function<void()> task;
        std::uint64_t enqueueNs = 0;
    };

    struct Queue
    {
        std::deque<Entry> tasks;
        bool open = true;
        /** Telemetry label of the owning session ("" = anonymous). */
        std::string label;
        /** Lazily resolved per-session queue-wait series. */
        telemetry::Histogram *waitHist = nullptr;
    };

    /** Pop the next task round-robin. Caller holds mutex_ and has
     * checked queuedCount_ > 0. */
    std::function<void()> popNextLocked();

    void workerLoop();

    /** Kernel-assist wake callback (registered with util/parallel). */
    void signalKernelWork();

    mutable std::mutex mutex_;
    std::size_t maxQueueDepth_ = 0; //!< 0 = unbounded
    std::condition_variable workCv_; //!< workers wait here
    std::condition_variable idleCv_; //!< drain() waits here
    /** Admission queues by id (ordered, for stable round-robin). */
    std::map<std::uint64_t, Queue> queues_;
    std::uint64_t nextQueueId_ = 1;
    /** Queue id served last; the scan resumes after it. */
    std::uint64_t cursor_ = 0;
    std::size_t queuedCount_ = 0;
    int runningCount_ = 0;
    bool stopping_ = false;
    bool joined_ = false;
    /** Bumped (under mutex_) when a kernel loop is published. */
    std::uint64_t kernelSignals_ = 0;
    std::atomic<std::uint64_t> chunksExecuted_{0};
    std::atomic<std::uint64_t> kernelAssists_{0};
    std::atomic<std::uint64_t> assistedChunks_{0};
    int assistHostId_ = -1;
    std::vector<std::thread> workers_;
};

} // namespace varsaw

#endif // VARSAW_SERVICE_SCHEDULER_HH
