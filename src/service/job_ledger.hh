/**
 * @file
 * The dedupe ledger: the execution service's one result store.
 *
 * Every submitted job key is claimed here BEFORE execution, in
 * submission order, under one lock. The first claim of a key becomes
 * its **primary** (the submission that executes and publishes);
 * every later claim while the key is tracked is a **duplicate**
 * answered from the primary's shared future. That shared future is
 * the stored result — there is no second copy — so the ledger is
 * the only store and the only LRU.
 *
 * Tracked keys form an LRU list maintained at claim time — a point
 * that depends only on the submitted key sequence, never on worker
 * timing — so when the ledger reaches its entry cap it evicts
 * exactly the least-recently-claimed key: hot keys (a VQA loop's
 * per-iteration working set) survive the boundary, and which keys
 * are resident is reproducible across thread counts for a given
 * submission sequence.
 *
 * Because sampling streams are content-derived (see jobStream), an
 * evicted key's re-execution reproduces the evicted result bit for
 * bit; eviction therefore trades only work, never results.
 */

#ifndef VARSAW_SERVICE_JOB_LEDGER_HH
#define VARSAW_SERVICE_JOB_LEDGER_HH

#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#include "sim/circuit_hash.hh"
#include "sim/job.hh"
#include "util/pmf.hh"
#include "util/status.hh"

namespace varsaw {

class Executor;

/** Ledger bookkeeping counters (see JobLedger::stats()). */
struct JobLedgerStats
{
    /** Primary claims admitted (one per executed key). */
    std::uint64_t claims = 0;

    /** Duplicate claims answered from a primary's future. */
    std::uint64_t dedupeHits = 0;

    /** Shots avoided across all duplicate claims. */
    std::uint64_t shotsSaved = 0;

    /** Keys evicted past the entry cap (claim-time LRU). */
    std::uint64_t evictions = 0;

    /** Keys quarantined after a failed execution. */
    std::uint64_t quarantined = 0;

    /** Submissions refused because their key was quarantined. */
    std::uint64_t quarantineRejections = 0;

    /** Claims abandoned before execution (admission shed). */
    std::uint64_t abandoned = 0;
};

/**
 * Hit/miss and avoided-cost accounting of a dedupe scope (the
 * service-wide ledger, or one session's share of it).
 */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;

    /** Circuit executions avoided (== hits). */
    std::uint64_t circuitsSaved = 0;

    /** Shots avoided across all hits. */
    std::uint64_t shotsSaved = 0;

    /** hits / (hits + misses); 0 when no lookups happened. */
    double hitRate() const
    {
        const std::uint64_t total = hits + misses;
        return total == 0
            ? 0.0
            : static_cast<double>(hits) / static_cast<double>(total);
    }
};

/** Dedupe decision, result store and LRU of the execution service. */
class JobLedger
{
  public:
    /**
     * @param max_entries Tracked-key cap; claiming past it evicts
     *                    the least-recently-claimed key one at a
     *                    time.
     */
    explicit JobLedger(std::size_t max_entries);

    /** Outcome of claiming one submission. */
    struct Claim
    {
        /** Valid iff this submission is a duplicate: the result (or
         * in-flight future) of the key's primary. */
        std::shared_future<Pmf> primary;

        /** Set iff this submission is the key's primary: execute the
         * job and publish the result here. */
        std::shared_ptr<std::promise<Pmf>> publish;

        bool duplicate() const { return primary.valid(); }
    };

    /**
     * Claim @p key in submission order: touch it in the LRU, decide
     * primary vs duplicate, and evict past the cap. A duplicate
     * credits one hit and @p shots (the submission's shot count) to
     * the saved-cost statistics; a primary credits one miss.
     *
     * @p owner tags a new primary with the claiming party (a
     * session id). On a duplicate, @p primary_owner (when non-null)
     * receives the primary's tag — how the service counts
     * cross-session hits.
     */
    Claim claim(const JobKey &key, std::uint64_t shots,
                std::uint64_t owner = 0,
                std::uint64_t *primary_owner = nullptr);

    /**
     * The future a duplicate submission returns: a deferred wait on
     * its primary's shared future, executed on the CONSUMER's
     * thread at get() time — no worker ever blocks on another task.
     */
    static std::future<Pmf> deferToPrimary(Claim claim);

    /**
     * Execute a submission on @p backend with stream jobStream(key)
     * and resolve @p publish (when non-null — cache-off submissions
     * never claimed) with the result, then return it.
     *
     * Fault tolerance: execution goes through
     * Executor::tryExecuteJob (deadline + bounded retry). A
     * quarantined key fails fast with FailedPrecondition before
     * touching the backend. When every attempt fails, the key is
     * quarantined, its ledger entry is dropped, the failure is
     * published to @p publish (so waiting duplicates see the same
     * StatusError), and a StatusError is thrown to the caller.
     */
    Pmf executeAndPublish(
        Executor &backend, const CircuitJob &job, const JobKey &key,
        const std::shared_ptr<std::promise<Pmf>> &publish);

    /**
     * Retract a claimed-but-never-executed primary (admission shed
     * under backpressure): drop the key's ledger entry and publish
     * @p status as a StatusError on @p publish so every duplicate
     * already deferred to this primary fails with the same typed
     * error instead of waiting forever. Does NOT quarantine — the
     * job was never executed, so resubmission is expected to work.
     */
    void abandon(const JobKey &key,
                 const std::shared_ptr<std::promise<Pmf>> &publish,
                 const Status &status);

    /** Whether @p key is quarantined (poisoned by a failed
     * execution; submissions fail fast until clearQuarantine()). */
    bool isQuarantined(const JobKey &key) const;

    /** Number of quarantined keys. */
    std::size_t quarantinedCount() const;

    /**
     * Release every quarantined key (operator intervention after
     * the underlying fault is fixed). Quarantine survives clear():
     * clearing dedupe state must not silently re-admit poison jobs.
     */
    void clearQuarantine();

    /** Snapshot of the bookkeeping counters. */
    JobLedgerStats stats() const;

    /** The hit/miss view of stats(). */
    CacheStats cacheStats() const;

    /**
     * Drop every tracked key. Safe at any time, including with
     * primaries in flight: duplicates already deferred keep their
     * shared futures. Because results are pure functions of job
     * content, clearing can only cost re-execution, never change a
     * result — use it to release memory or to isolate measurement
     * phases that must not share work (e.g. comparing methods under
     * a circuit budget).
     */
    void clear();

    /** Tracked-key cap. */
    std::size_t maxEntries() const { return maxEntries_; }

    /** Currently tracked keys (in-flight and completed). */
    std::size_t size() const;

  private:
    struct Entry
    {
        std::shared_future<Pmf> primary;
        /** Claiming party of the primary (session id). */
        std::uint64_t owner = 0;
        /** Position in lru_ (spliced to the front on every claim). */
        std::list<JobKey>::iterator lruIt;
    };

    /** Drop @p key's entry (and LRU slot) if tracked. Caller holds
     * mutex_. */
    void dropEntryLocked(const JobKey &key);

    mutable std::mutex mutex_;
    std::size_t maxEntries_;
    std::unordered_map<JobKey, Entry, JobKeyHasher> entries_;
    /** Tracked keys, most recently claimed first. */
    std::list<JobKey> lru_;
    /** Poisoned keys (failed execution); not cleared by clear(). */
    std::unordered_set<JobKey, JobKeyHasher> quarantine_;
    JobLedgerStats stats_;
};

} // namespace varsaw

#endif // VARSAW_SERVICE_JOB_LEDGER_HH
