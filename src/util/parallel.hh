/**
 * @file
 * Deterministic intra-kernel parallelism primitives.
 *
 * The execution service (src/service/) parallelizes *across* jobs; this
 * layer parallelizes *inside* one dense kernel — a single 2^n-amplitude
 * sweep — without ever changing results:
 *
 *  - Loops are partitioned into **fixed chunks** whose size depends
 *    only on the loop's total item count (`parallelChunkSize`),
 *    never on the thread count. An elementwise chunk writes disjoint
 *    state, so placement is free; a reduction computes one partial
 *    per chunk and merges the partials in fixed chunk order
 *    (`pairwiseReduce`), so the floating-point association — and
 *    therefore every output bit — is identical whether the chunks
 *    ran on 1 thread or 8.
 *  - The kernel pool is process-global and lazily started: nothing
 *    is spawned until the first engaged call with
 *    `kernelThreads() > 1`. The calling thread always participates
 *    (it claims chunks from the same atomic counter as the
 *    helpers), so a busy pool degrades to inline execution instead
 *    of blocking, and nested/concurrent callers (one per batch
 *    worker) cannot deadlock.
 *  - Engagement is thresholded: loops below `kParallelEngage` items
 *    run as plain serial loops — small registers never pay chunking
 *    or scheduling overhead. The threshold compares the *item*
 *    count, so a full 2^n sweep engages at n >= 16 and a 2^(n-1)
 *    pair kernel at n >= 17.
 *
 * Thread-count policy: `kernelThreads()` is a process-wide setting
 * (the pool is shared by every Statevector/DensityMatrix in the
 * process), defaulting to the VARSAW_KERNEL_THREADS environment
 * variable when set to a positive integer, else 1 (serial).
 * `SimEngineConfig::kernelThreads` and the drivers'
 * `--kernel-threads` flag plumb into `setKernelThreads()`, which
 * caps how many helpers one invocation admits. While an execution
 * service scheduler is alive its idle workers are the helpers (see
 * addKernelAssistHost), so batch and kernel work share one set of
 * threads.
 */

#ifndef VARSAW_UTIL_PARALLEL_HH
#define VARSAW_UTIL_PARALLEL_HH

#include <cstdint>
#include <functional>
#include <vector>

namespace varsaw {

/** Hard cap on kernel threads (admission and pool size). */
constexpr int kMaxKernelThreads = 64;

/**
 * Minimum items per chunk. Chunks are the unit of scheduling AND of
 * reduction order, so this must stay a fixed constant: it is part
 * of the numeric contract, not a tunable.
 */
constexpr std::uint64_t kParallelGrain = 1ull << 15;

/**
 * Engagement threshold: loops with fewer items than this run as
 * plain serial loops (callers branch on it; see chunkedReduce).
 * Equal to two grains so an engaged loop always has >= 2 chunks.
 */
constexpr std::uint64_t kParallelEngage = 2 * kParallelGrain;

/**
 * Upper bound on the chunk count of one loop (bounds the partials
 * array of a chunked reduction). Like the grain, a fixed constant.
 */
constexpr std::uint64_t kMaxParallelChunks = 1024;

/**
 * Chunk sizes are rounded up to this multiple (power of two) so
 * every chunk boundary except the loop's final one falls on an
 * 8-item line — the widest SIMD reduction lane group (kNormLanes
 * doubles = 4 complex amplitudes; see sim/kernels/kernel_spec.hh).
 * Aligned boundaries keep the vector kernels' scalar head loops
 * empty for every interior chunk. Values are unchanged either way
 * (lane assignment is by absolute index), so this is a throughput
 * constant — but like the grain it is part of the numeric contract,
 * because chunk size determines reduction association.
 */
constexpr std::uint64_t kParallelChunkAlign = 8;

/**
 * Default kernel-thread count: VARSAW_KERNEL_THREADS when set to a
 * positive integer (read once, clamped to kMaxKernelThreads),
 * otherwise 1.
 */
int defaultKernelThreads();

/** Current process-wide kernel-thread setting (>= 1). */
int kernelThreads();

/**
 * Set the process-wide kernel-thread count, clamped to
 * [1, kMaxKernelThreads]. Values <= 0 select
 * defaultKernelThreads(). Never changes results — only how many
 * helpers may pick up chunks of engaged loops.
 */
void setKernelThreads(int threads);

/**
 * Fixed chunk size for a loop of @p total items:
 * max(kParallelGrain, ceil(total / kMaxParallelChunks) rounded up
 * to a multiple of kParallelChunkAlign). A pure function of
 * @p total — this is what makes chunked reductions
 * thread-count-invariant.
 */
std::uint64_t parallelChunkSize(std::uint64_t total);

/** Number of fixed chunks for a loop of @p total items. */
std::uint64_t parallelChunkCount(std::uint64_t total);

/**
 * Default worker count of a shared ExecutionService:
 * VARSAW_SERVICE_THREADS when set to a positive integer, overridden
 * by setDefaultServiceThreads() (the drivers' --service-threads
 * flag), otherwise 0 — meaning "auto", which
 * resolveServiceThreads() maps to the hardware concurrency.
 */
int defaultServiceThreads();

/**
 * Override the default service worker count for services
 * constructed after this call. <= 0 restores the
 * environment/auto default.
 */
void setDefaultServiceThreads(int threads);

/**
 * Resolve a ServiceConfig::threads value: @p configured when
 * positive, else defaultServiceThreads() when positive, else the
 * hardware concurrency (at least 1). Results never depend on it.
 */
int resolveServiceThreads(int configured);

/**
 * Cumulative kernel-pool work accounting, split by WHO ran each
 * chunk. The three chunk counters partition every chunk ever run —
 * caller + pool helpers + lent assist hosts — so worker utilization
 * adds up: before this split, chunks run by lent scheduler workers
 * (addKernelAssistHost) were invisible in every stats struct.
 * Counters are plain relaxed atomics read here (util/ must not
 * depend on telemetry/); the telemetry layer surfaces them as
 * registry gauges at snapshot time.
 */
struct KernelPoolStats
{
    std::uint64_t engagedLoops = 0;   ///< Pool-run loop invocations.
    std::uint64_t callerChunks = 0;   ///< Run by the invoking thread.
    std::uint64_t helperChunks = 0;   ///< Run by pool worker threads.
    std::uint64_t assistedChunks = 0; ///< Run by lent assist hosts.
};

/** Snapshot of the process-wide kernel-pool counters. */
KernelPoolStats kernelPoolStats();

namespace detail {

/**
 * Run an already-engaged loop's chunks on the shared pool:
 * >= 2 chunks and kernelThreads() >= 2, checked by the callers.
 * The std::function wraps a std::reference_wrapper built by the
 * template front-ends, so no heap allocation happens even here.
 */
void runOnPool(std::uint64_t total, std::uint64_t chunkSize,
               std::uint64_t numChunks,
               const std::function<void(std::uint64_t,
                                        std::uint64_t,
                                        std::uint64_t)> &fn);

/**
 * Lend the calling thread to one engaged kernel loop, if any is
 * active with unclaimed chunks and a free admission slot: claim and
 * run chunks until the loop is exhausted, then return the number of
 * chunks this thread ran (counted as assistedChunks in
 * kernelPoolStats()). Returns 0 (without blocking) when there is
 * nothing to help with. This is how a unified scheduler's idle
 * batch workers are lent to engaged kernels; chunk decomposition is
 * fixed, so WHO runs a chunk can never change a result.
 */
std::uint64_t assistOneKernelJob();

/**
 * Register an external helper host (a unified scheduler): @p wake
 * is invoked — cheaply, possibly concurrently — whenever an engaged
 * kernel loop is published, so the host can route idle workers into
 * assistOneKernelJob(). While at least one host is registered the
 * process-global kernel pool spawns no helper threads of its own:
 * the hosts' workers ARE the helper supply, which is what removes
 * the batchThreads x kernelThreads <= cores sizing rule. Returns a
 * handle for removeKernelAssistHost().
 */
int addKernelAssistHost(std::function<void()> wake);

/**
 * Unregister a helper host. On return the host's @p wake callback
 * is guaranteed not to be running and will never be invoked again
 * (safe to destroy the scheduler it points into).
 */
void removeKernelAssistHost(int handle);

/** Currently registered helper hosts (one per live scheduler). */
int kernelAssistHostCount();

} // namespace detail

/**
 * Run @p fn(chunkIndex, begin, end) over every fixed chunk of
 * [0, total). Chunks may run concurrently and in any order on any
 * thread (the caller included); @p fn must confine its writes to
 * per-chunk state (disjoint slices, or partials[chunkIndex]).
 * Returns after every chunk has completed. Runs inline, in chunk
 * order, when kernelThreads() == 1 or there is only one chunk —
 * with no type erasure or allocation, so small registers pay only
 * the branch.
 */
template <typename Fn>
void
parallelForChunks(std::uint64_t total, Fn &&fn)
{
    if (total == 0)
        return;
    const std::uint64_t chunkSize = parallelChunkSize(total);
    const std::uint64_t numChunks =
        (total + chunkSize - 1) / chunkSize;
    if (numChunks == 1 || kernelThreads() < 2) {
        for (std::uint64_t c = 0; c < numChunks; ++c) {
            const std::uint64_t begin = c * chunkSize;
            const std::uint64_t end = begin + chunkSize;
            fn(c, begin, end < total ? end : total);
        }
        return;
    }
    detail::runOnPool(
        total, chunkSize, numChunks,
        std::function<void(std::uint64_t, std::uint64_t,
                           std::uint64_t)>(std::ref(fn)));
}

/**
 * Elementwise helper: run @p fn(begin, end) over [0, total) in
 * disjoint ranges, parallel only when the loop is engaged
 * (total >= kParallelEngage) and kernelThreads() > 1, else as one
 * inline fn(0, total) call. Only for loops whose per-item work is
 * order-independent (disjoint writes); reductions must use
 * chunkedReduce so their merge order stays fixed.
 */
template <typename Fn>
void
parallelForItems(std::uint64_t total, Fn &&fn)
{
    if (total == 0)
        return;
    if (total < kParallelEngage || kernelThreads() < 2) {
        fn(std::uint64_t{0}, total);
        return;
    }
    parallelForChunks(total,
                      [&fn](std::uint64_t, std::uint64_t begin,
                            std::uint64_t end) { fn(begin, end); });
}

/**
 * Merge chunk partials in fixed pairwise order: adjacent pairs are
 * summed repeatedly ((p0+p1), (p2+p3), ... then recurse) until one
 * value remains. The association is a pure function of the partial
 * count, so the result is bit-identical across thread counts.
 * @p v is consumed as scratch. Requires !v.empty().
 */
template <typename T>
T
pairwiseReduce(std::vector<T> &v)
{
    std::size_t m = v.size();
    while (m > 1) {
        std::size_t w = 0;
        for (std::size_t i = 0; i + 1 < m; i += 2) {
            v[w] = v[i] + v[i + 1];
            ++w;
        }
        if (m & 1) {
            v[w] = v[m - 1];
            ++w;
        }
        m = w;
    }
    return v[0];
}

/**
 * Deterministic chunked reduction over [0, total): @p chunk(begin,
 * end) returns the partial for one range, accumulated internally in
 * ascending index order. Below the engagement threshold this is a
 * single chunk(0, total) call — the plain serial loop. At or above
 * it, one partial per fixed chunk is computed (possibly in
 * parallel) and merged with pairwiseReduce. For a given @p total
 * the algorithm — and so every output bit — is independent of the
 * kernel-thread count.
 */
template <typename T, typename ChunkFn>
T
chunkedReduce(std::uint64_t total, ChunkFn chunk)
{
    if (total < kParallelEngage)
        return chunk(std::uint64_t{0}, total);
    const std::uint64_t chunks = parallelChunkCount(total);
    std::vector<T> partials(static_cast<std::size_t>(chunks));
    parallelForChunks(total,
                      [&](std::uint64_t c, std::uint64_t begin,
                          std::uint64_t end) {
                          partials[static_cast<std::size_t>(c)] =
                              chunk(begin, end);
                      });
    return pairwiseReduce(partials);
}

} // namespace varsaw

#endif // VARSAW_UTIL_PARALLEL_HH
