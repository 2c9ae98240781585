#include "util/parallel.hh"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

namespace varsaw {

namespace {

/**
 * External helper hosts (unified schedulers). hostCount mirrors the
 * map size so the hot publish path can skip the lock when no host
 * exists.
 */
std::mutex hostMutex;
std::unordered_map<int, std::function<void()>> assistHosts;
std::atomic<int> assistHostCount{0};
int nextAssistHostId = 0;

/**
 * Process-wide work accounting (see KernelPoolStats). Split by the
 * role of the thread that ran each chunk so assist-host lending is
 * visible: callerChunks + helperChunks + assistedChunks equals the
 * total chunk count of every engaged loop ever run.
 */
std::atomic<std::uint64_t> statEngagedLoops{0};
std::atomic<std::uint64_t> statCallerChunks{0};
std::atomic<std::uint64_t> statHelperChunks{0};
std::atomic<std::uint64_t> statAssistedChunks{0};

/** Invoke every registered host's wake callback. */
void
wakeAssistHosts()
{
    if (assistHostCount.load(std::memory_order_acquire) == 0)
        return;
    // Under the registry lock so removeKernelAssistHost() can
    // guarantee no callback runs after it returns.
    std::lock_guard<std::mutex> lock(hostMutex);
    // varsaw-lint: allow(unordered-iter) wake order only affects which idle host starts first, never a result
    for (auto &[id, wake] : assistHosts)
        wake();
}

/**
 * One engaged loop: chunks are claimed from `next` by the caller
 * and by admitted helpers; `done` counts completions. `helpers`
 * enforces the per-invocation admission cap so a freshly lowered
 * kernelThreads() setting takes effect even while the pool still
 * holds threads from a higher one.
 */
struct KernelJob
{
    std::uint64_t total = 0;
    std::uint64_t chunkSize = 0;
    std::uint64_t numChunks = 0;
    int maxHelpers = 0;
    const std::function<void(std::uint64_t, std::uint64_t,
                             std::uint64_t)> *fn = nullptr;
    std::atomic<std::uint64_t> next{0};
    std::atomic<std::uint64_t> done{0};
    std::atomic<int> helpers{0};
    std::mutex doneMutex;
    std::condition_variable doneCv;
};

/**
 * Claim-and-run chunks of @p job until none remain; returns how
 * many chunks this thread ran. @p roleCounter attributes that work
 * to the running thread's role (caller / pool helper / lent assist
 * host) — one relaxed add per engagement, not per chunk, so the
 * accounting never shows up in kernel throughput.
 */
std::uint64_t
runChunks(KernelJob &job, std::atomic<std::uint64_t> &roleCounter)
{
    std::uint64_t ran = 0;
    for (;;) {
        const std::uint64_t c =
            job.next.fetch_add(1, std::memory_order_relaxed);
        if (c >= job.numChunks)
            break;
        const std::uint64_t begin = c * job.chunkSize;
        const std::uint64_t end =
            std::min(job.total, begin + job.chunkSize);
        (*job.fn)(c, begin, end);
        ++ran;
        // acq_rel: publishes this chunk's writes to whoever observes
        // the final count (the waiting caller).
        if (job.done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            job.numChunks) {
            std::lock_guard<std::mutex> lock(job.doneMutex);
            job.doneCv.notify_all();
        }
    }
    if (ran > 0)
        roleCounter.fetch_add(ran, std::memory_order_relaxed);
    return ran;
}

/**
 * The lazily-started, process-global helper pool. Workers scan the
 * active-job list for a job with unclaimed chunks and a free
 * admission slot; callers always work on their own job too, so the
 * pool being busy (or empty) never blocks anyone.
 */
class KernelPool
{
  public:
    static KernelPool &
    instance()
    {
        static KernelPool pool;
        return pool;
    }

    void
    run(KernelJob &job)
    {
        ensureWorkers(job.maxHelpers);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            jobs_.push_back(&job);
        }
        wake_.notify_all();
        wakeAssistHosts();
        statEngagedLoops.fetch_add(1, std::memory_order_relaxed);
        runChunks(job, statCallerChunks);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            for (auto it = jobs_.begin(); it != jobs_.end(); ++it)
                if (*it == &job) {
                    jobs_.erase(it);
                    break;
                }
        }
        // Two conditions before the stack-allocated job may die:
        // every chunk completed (the acq_rel done increments pair
        // with this acquire load, publishing the chunks' writes),
        // and every admitted helper has fully left the job (claims
        // are serialized with the erase above by mutex_, so no new
        // helper can appear once we are here).
        std::unique_lock<std::mutex> lock(job.doneMutex);
        job.doneCv.wait(lock, [&] {
            return job.done.load(std::memory_order_acquire) ==
                job.numChunks &&
                job.helpers.load(std::memory_order_acquire) == 0;
        });
    }

    /** See detail::assistOneKernelJob(). */
    std::uint64_t
    assistOne()
    {
        KernelJob *job = nullptr;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            for (KernelJob *j : jobs_) {
                if (j->next.load(std::memory_order_relaxed) >=
                    j->numChunks)
                    continue;
                if (j->helpers.load(std::memory_order_relaxed) >=
                    j->maxHelpers)
                    continue;
                j->helpers.fetch_add(1, std::memory_order_relaxed);
                job = j;
                break;
            }
        }
        if (!job)
            return 0;
        const std::uint64_t ran =
            runChunks(*job, statAssistedChunks);
        {
            // Under the job mutex so the caller's wait cannot miss
            // the decrement and destroy the job while this thread
            // still holds a reference.
            std::lock_guard<std::mutex> lock(job->doneMutex);
            job->helpers.fetch_sub(1, std::memory_order_release);
            job->doneCv.notify_all();
        }
        // An admission slot opened for other helpers.
        wake_.notify_all();
        wakeAssistHosts();
        return ran;
    }

    ~KernelPool()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stopping_ = true;
        }
        wake_.notify_all();
        for (auto &w : workers_)
            w.join();
    }

  private:
    KernelPool() = default;

    void
    ensureWorkers(int count)
    {
        if (count <= 0)
            return;
        // While a unified scheduler is registered, its workers are
        // the helper supply: the pool spawns no threads of its own,
        // so the process never holds two competing thread sets.
        // Helpers spawned before the host registered keep running —
        // admission caps still bound how many join any one loop.
        if (assistHostCount.load(std::memory_order_acquire) > 0)
            return;
        std::lock_guard<std::mutex> lock(mutex_);
        while (static_cast<int>(workers_.size()) < count &&
               static_cast<int>(workers_.size()) <
                   kMaxKernelThreads - 1)
            workers_.emplace_back([this] { workerLoop(); });
    }

    void
    workerLoop()
    {
        for (;;) {
            KernelJob *job = nullptr;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                wake_.wait(lock, [&] {
                    if (stopping_)
                        return true;
                    for (KernelJob *j : jobs_) {
                        if (j->next.load(
                                std::memory_order_relaxed) >=
                            j->numChunks)
                            continue;
                        if (j->helpers.load(
                                std::memory_order_relaxed) >=
                            j->maxHelpers)
                            continue;
                        j->helpers.fetch_add(
                            1, std::memory_order_relaxed);
                        job = j;
                        return true;
                    }
                    return false;
                });
                if (stopping_)
                    return;
            }
            runChunks(*job, statHelperChunks);
            {
                // Under the job mutex so the caller's wait cannot
                // miss the decrement and destroy the job while this
                // thread still holds a reference.
                std::lock_guard<std::mutex> lock(job->doneMutex);
                job->helpers.fetch_sub(1,
                                       std::memory_order_release);
                job->doneCv.notify_all();
            }
            // An admission slot opened: another idle worker — pool
            // thread or registered host — may now join this (or
            // another) job.
            wake_.notify_all();
            wakeAssistHosts();
        }
    }

    std::mutex mutex_;
    std::condition_variable wake_;
    std::vector<std::thread> workers_;
    std::deque<KernelJob *> jobs_;
    bool stopping_ = false;
};

std::atomic<int> &
kernelThreadSetting()
{
    static std::atomic<int> setting{defaultKernelThreads()};
    return setting;
}

std::atomic<int> &
serviceThreadOverride()
{
    static std::atomic<int> setting{0};
    return setting;
}

int
clampThreads(int threads)
{
    if (threads < 1)
        return 1;
    if (threads > kMaxKernelThreads)
        return kMaxKernelThreads;
    return threads;
}

} // namespace

int
defaultKernelThreads()
{
    static const int dflt = [] {
        if (const char *env = std::getenv("VARSAW_KERNEL_THREADS")) {
            const long parsed = std::strtol(env, nullptr, 10);
            if (parsed > 0)
                return clampThreads(static_cast<int>(parsed));
        }
        return 1;
    }();
    return dflt;
}

int
kernelThreads()
{
    return kernelThreadSetting().load(std::memory_order_relaxed);
}

void
setKernelThreads(int threads)
{
    const int value =
        threads <= 0 ? defaultKernelThreads() : clampThreads(threads);
    kernelThreadSetting().store(value, std::memory_order_relaxed);
}

int
defaultServiceThreads()
{
    static const int envDefault = [] {
        if (const char *env =
                std::getenv("VARSAW_SERVICE_THREADS")) {
            const long parsed = std::strtol(env, nullptr, 10);
            if (parsed > 0)
                return static_cast<int>(parsed);
        }
        return 0;
    }();
    const int overridden =
        serviceThreadOverride().load(std::memory_order_relaxed);
    return overridden > 0 ? overridden : envDefault;
}

void
setDefaultServiceThreads(int threads)
{
    serviceThreadOverride().store(threads > 0 ? threads : 0,
                                  std::memory_order_relaxed);
}

int
resolveServiceThreads(int configured)
{
    if (configured > 0)
        return configured;
    const int dflt = defaultServiceThreads();
    if (dflt > 0)
        return dflt;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

std::uint64_t
parallelChunkSize(std::uint64_t total)
{
    std::uint64_t spread =
        (total + kMaxParallelChunks - 1) / kMaxParallelChunks;
    spread = (spread + kParallelChunkAlign - 1) &
        ~(kParallelChunkAlign - 1);
    return spread > kParallelGrain ? spread : kParallelGrain;
}

std::uint64_t
parallelChunkCount(std::uint64_t total)
{
    const std::uint64_t size = parallelChunkSize(total);
    return (total + size - 1) / size;
}

KernelPoolStats
kernelPoolStats()
{
    KernelPoolStats out;
    out.engagedLoops =
        statEngagedLoops.load(std::memory_order_relaxed);
    out.callerChunks =
        statCallerChunks.load(std::memory_order_relaxed);
    out.helperChunks =
        statHelperChunks.load(std::memory_order_relaxed);
    out.assistedChunks =
        statAssistedChunks.load(std::memory_order_relaxed);
    return out;
}

namespace detail {

void
runOnPool(std::uint64_t total, std::uint64_t chunkSize,
          std::uint64_t numChunks,
          const std::function<void(std::uint64_t, std::uint64_t,
                                   std::uint64_t)> &fn)
{
    KernelJob job;
    job.total = total;
    job.chunkSize = chunkSize;
    job.numChunks = numChunks;
    job.maxHelpers = kernelThreads() - 1;
    job.fn = &fn;
    KernelPool::instance().run(job);
}

std::uint64_t
assistOneKernelJob()
{
    return KernelPool::instance().assistOne();
}

int
addKernelAssistHost(std::function<void()> wake)
{
    std::lock_guard<std::mutex> lock(hostMutex);
    const int id = nextAssistHostId++;
    assistHosts.emplace(id, std::move(wake));
    assistHostCount.store(static_cast<int>(assistHosts.size()),
                          std::memory_order_release);
    return id;
}

void
removeKernelAssistHost(int handle)
{
    std::lock_guard<std::mutex> lock(hostMutex);
    assistHosts.erase(handle);
    assistHostCount.store(static_cast<int>(assistHosts.size()),
                          std::memory_order_release);
}

int
kernelAssistHostCount()
{
    return assistHostCount.load(std::memory_order_acquire);
}

} // namespace detail

} // namespace varsaw
