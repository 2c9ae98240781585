/**
 * @file
 * Deterministic, process-wide fault injection for the execution
 * stack.
 *
 * Real NISQ backends fail constantly — transient errors, latency
 * spikes, wedged workers — and a service that assumes success falls
 * over on first contact. The FaultInjector lets the test suite, the
 * chaos CI job, and the degradation bench throw exactly those
 * failures at the execution service, REPRODUCIBLY: every
 * injection decision is a pure function of (plan seed, fault site,
 * content key, attempt number), never of thread timing or call
 * order. Two runs with the same plan and the same submissions
 * inject the same faults at the same jobs.
 *
 * Fault sites (where the stack consults the injector):
 *
 *   ExecutorTransient  Executor::tryExecuteJob, before the backend
 *                      runs — the attempt fails with Unavailable
 *                      (and is NOT cost-counted: no circuit ran).
 *   LatencySpike       Executor::tryExecuteJob, before the backend
 *                      runs — the attempt is delayed by
 *                      latencySpikeNs (virtual or real time).
 *   WorkerStall        ExecutionService admission — the chunk's
 *                      worker is "wedged"; the service degrades to
 *                      inline execution on the submitting thread.
 *   StateCacheInsert   StateCache completion — the prepared state
 *                      fails to become resident; the cache degrades
 *                      to bypass (waiters still get the state).
 *   ResultCorruption   Executor::tryExecuteJob, after the backend
 *                      ran — the result is corrupted "on the wire",
 *                      the digest check detects it, and the attempt
 *                      fails with DataLoss.
 *
 * The `burst` cap bounds CONSECUTIVE injected failures per job key
 * (attempts >= burst never fail), so with retryAttempts > burst
 * every job converges deterministically — this is what lets the
 * chaos CI job run the full suite at nonzero rates and still demand
 * bit-identical results: content-derived sampling streams make the
 * surviving attempt identical to what a fault-free run computes.
 *
 * Zero-rate contract: with every rate at 0 (the default), enabled()
 * is false and no execution path diverges by a single branch worth
 * of observable behaviour from a build without injection.
 *
 * Time: the injector owns the stack's only failure-handling clock
 * (deadlines, backoff, spikes). In virtual-time mode (`virtual_time`
 * in the plan) sleepFor() advances a process-wide virtual clock
 * instead of sleeping, making deadline/backoff tests instantaneous
 * and deterministic. src/fault/ is deliberately exempt from the
 * `nondeterminism` lint rule's wall-clock ban — it is the one
 * sanctioned clock supplier for fault handling, and no result ever
 * depends on what it returns.
 *
 * Configuration: VARSAW_FAULTS env var or the --faults runtime
 * flag, both taking a comma-separated spec, e.g.
 *
 *   VARSAW_FAULTS="seed=7,exec_transient=0.05,latency_spike=0.02,\
 *                  latency_ns=100000,burst=2"
 *
 * Keys: seed, exec_transient, latency_spike, latency_ns,
 * worker_stall, cache_insert, corrupt, burst, virtual_time,
 * retries, backoff_ns, max_backoff_ns, deadline_ns.
 */

#ifndef VARSAW_FAULT_FAULT_INJECTOR_HH
#define VARSAW_FAULT_FAULT_INJECTOR_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

namespace varsaw::fault {

/** Where in the stack a fault can be injected (see file doc). */
enum class FaultSite
{
    ExecutorTransient = 0,
    LatencySpike,
    WorkerStall,
    StateCacheInsert,
    ResultCorruption,
};

/** Number of FaultSite values (for stats arrays). */
inline constexpr int kFaultSiteCount = 5;

/** Human-readable site name (matches the telemetry suffix). */
const char *faultSiteName(FaultSite site);

/**
 * A complete, seeded fault schedule plus the retry-policy defaults
 * that make it survivable. Value type: configure() installs a copy.
 */
struct FaultPlan
{
    /** Seed of every injection decision. */
    std::uint64_t seed = 1;

    /** P(transient failure) per execution attempt. */
    double executorTransientRate = 0.0;

    /** P(latency spike) per execution attempt. */
    double latencySpikeRate = 0.0;

    /** Duration of an injected latency spike. */
    std::uint64_t latencySpikeNs = 200'000;

    /** P(worker stall) per admitted chunk. */
    double workerStallRate = 0.0;

    /** P(insert failure) per state-cache key (sticky per key: a
     * key that fails insertion always fails — "this state is
     * uncacheable", deterministically). */
    double stateCacheInsertRate = 0.0;

    /** P(wire corruption) per completed execution attempt. */
    double corruptionRate = 0.0;

    /**
     * Max CONSECUTIVE injected failures per (site, key): attempts
     * numbered >= burst never fail. Keep burst < retryAttempts and
     * every job converges despite nonzero rates.
     */
    int burst = 2;

    /** Advance a virtual clock instead of sleeping. */
    bool virtualTime = false;

    /** Default Executor retry attempts (total tries per job). */
    int retryAttempts = 5;

    /** Default base backoff: wait base << (attempt-1) before retry
     * attempt N, capped at retryMaxBackoffNs. */
    std::uint64_t retryBackoffNs = 1'000'000;

    /** Default backoff cap. */
    std::uint64_t retryMaxBackoffNs = 8'000'000;

    /** Default per-job deadline (0 = none). */
    std::uint64_t deadlineNs = 0;

    /** Whether any fault rate is nonzero. */
    bool enabled() const
    {
        return executorTransientRate > 0.0 ||
            latencySpikeRate > 0.0 || workerStallRate > 0.0 ||
            stateCacheInsertRate > 0.0 || corruptionRate > 0.0;
    }
};

/**
 * Bounded-retry policy of an execution path. Defaults come from the
 * installed FaultPlan (defaultRetryPolicy()), so VARSAW_FAULTS can
 * tune retries for a whole run; Executor::setRetryPolicy overrides
 * per backend.
 */
struct RetryPolicy
{
    /** Total attempts per job (>= 1; 1 disables retries). */
    int maxAttempts = 5;

    /** Base of the deterministic exponential backoff. */
    std::uint64_t baseBackoffNs = 1'000'000;

    /** Backoff cap. */
    std::uint64_t maxBackoffNs = 8'000'000;

    /** Per-job deadline across all attempts (0 = none). */
    std::uint64_t deadlineNs = 0;
};

/** Injections performed so far, by site. */
struct FaultStats
{
    std::uint64_t injected[kFaultSiteCount] = {};

    std::uint64_t total() const
    {
        std::uint64_t sum = 0;
        for (int i = 0; i < kFaultSiteCount; ++i)
            sum += injected[i];
        return sum;
    }
};

/**
 * Parse a comma-separated plan spec (see file doc) into @p plan,
 * starting from the given plan's current values. Returns false and
 * fills @p error on a malformed spec (unknown key, bad number).
 */
bool parseFaultPlan(const std::string &spec, FaultPlan &plan,
                    std::string &error);

/** The process-wide injector (see file doc). */
class FaultInjector
{
  public:
    /** The singleton; first use installs VARSAW_FAULTS if set. */
    static FaultInjector &instance();

    /** Install @p plan (replaces the previous plan; resets the
     * virtual clock). Not a data-path call — configure between
     * workloads, not concurrently with shouldInject decisions you
     * expect to be coherent. */
    void configure(const FaultPlan &plan);

    /** Snapshot of the installed plan. */
    FaultPlan plan() const;

    /**
     * Fast path: whether any fault rate is nonzero. When false,
     * shouldInject() returns false without further work — the
     * zero-rate bit-identity contract costs one relaxed load.
     */
    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /**
     * Deterministic injection decision for @p site at content key
     * @p key, attempt @p attempt — a pure function of (plan seed,
     * site, key, attempt). Counts the injection (stats + the
     * `service.faults.<site>` telemetry counter) when true.
     */
    bool shouldInject(FaultSite site, std::uint64_t key,
                      std::uint64_t attempt = 0);

    /** Injection counts so far. */
    FaultStats stats() const;

    /** Zero the injection counts. */
    void resetStats();

    /**
     * The fault-handling clock: virtual nanoseconds under a
     * virtual-time plan, monotonic wall time otherwise. Feeds
     * deadlines and backoff only — never results.
     */
    std::uint64_t nowNs() const;

    /**
     * Wait @p ns on the fault-handling clock: advances the virtual
     * clock under a virtual-time plan, sleeps (capped at 50 ms per
     * call, so a misconfigured plan cannot hang a worker) otherwise.
     */
    void sleepFor(std::uint64_t ns);

  private:
    FaultInjector();

    mutable std::mutex mutex_;
    FaultPlan plan_;
    std::atomic<bool> enabled_{false};
    std::atomic<bool> virtualTime_{false};
    std::atomic<std::uint64_t> virtualNowNs_{0};
    std::atomic<std::uint64_t> injected_[kFaultSiteCount] = {};
};

/**
 * The retry policy executors use unless overridden: the installed
 * plan's retryAttempts/backoff/deadline fields.
 */
RetryPolicy defaultRetryPolicy();

} // namespace varsaw::fault

#endif // VARSAW_FAULT_FAULT_INJECTOR_HH
