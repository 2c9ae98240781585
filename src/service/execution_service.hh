/**
 * @file
 * The execution service: the one path every circuit job takes.
 *
 * An ExecutionService owns a backend's worker supply (a
 * ServiceScheduler whose threads also serve as the kernel-helper
 * pool) and its dedupe state (one JobLedger; the backend
 * SimEngine's StateCache is shared by construction). Clients hold
 * Session handles and submit Batches through them; identical
 * (prep, suffix, params, shots) work submitted by DIFFERENT
 * sessions executes once.
 *
 * Estimators get their Session from makeSubmitter(): a session of
 * RuntimeConfig::service when one is set (several estimators, one
 * service), otherwise a session that owns a private service sized
 * from RuntimeConfig::threads. A private service with one thread
 * has no scheduler at all: jobs run inline on the submitting
 * thread, in submission order.
 *
 * Determinism contract: every job's sampling stream is derived from
 * its content key (see jobStream), so a job's result is a pure
 * function of (backend, job content). Cross-session dedupe, ledger
 * eviction, fairness decisions, worker lending, shutdown races —
 * none of them can change a result bit: a run is bit-identical at
 * any thread count, session count, or submission interleaving.
 * What interleaving CAN change is bookkeeping (which session's
 * submission was the primary, hence per-session hit splits and
 * wall time) — never results or the set of results.
 *
 * Sessions are multi-tenant: per-session statistics (jobs, hits,
 * cross-session hits, shots saved), fair FIFO admission (one
 * scheduler queue per session, round-robin service), and graceful
 * shutdown — shutdown() stops admission, drains every queue, joins
 * the workers; submissions arriving after shutdown execute inline
 * on the submitting thread with identical results.
 *
 * Layering: service/ sits above sim/ and mitigation/; estimators
 * (vqa/, core/) include it, and nothing below it may.
 */

#ifndef VARSAW_SERVICE_EXECUTION_SERVICE_HH
#define VARSAW_SERVICE_EXECUTION_SERVICE_HH

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "mitigation/executor.hh"
#include "service/job_ledger.hh"
#include "service/scheduler.hh"
#include "sim/job.hh"
#include "telemetry/introspect.hh"
#include "util/pmf.hh"

namespace varsaw {

class ExecutionService;
class Session;

/**
 * Latency expectation a submitter declares for its jobs. Purely an
 * accounting label: the service never reorders or prioritizes by
 * it — results and scheduling are class-independent. Each class
 * gets its own `service.latency_ns{class=...}` histogram and SLO
 * burn counter (see ServiceConfig::interactiveSloNs / bulkSloNs).
 */
enum class LatencyClass : int
{
    Interactive = 0, //!< human in the loop — tight latency target
    Bulk = 1,        //!< throughput-oriented sweeps — loose target
};

/** Telemetry label value of a latency class ("interactive"/"bulk"). */
const char *latencyClassName(LatencyClass latency_class);

/** How an estimator submits its circuits (see makeSubmitter()). */
struct RuntimeConfig
{
    /**
     * Worker threads of the estimator's private service. 1 (the
     * default) runs every job inline on the submitting thread — no
     * scheduler threads are started, and behaviour matches a plain
     * serial loop over executeJob(). Ignored when @ref service is
     * set (that service's workers are the thread supply).
     */
    int threads = 1;

    /** Dedupe identical submissions through the ledger. Honored per
     * session under a shared service too: a cache-off session
     * bypasses the shared ledger entirely. */
    bool cacheResults = false;

    /**
     * Tracked-key cap of the private service's ledger. Ignored under
     * a shared service — the cap of the SHARED ledger is
     * ServiceConfig::cacheMaxEntries, fixed when the service is
     * built.
     */
    std::size_t cacheMaxEntries = 1 << 16;

    /**
     * Shared execution service to open a session on instead of
     * building a private one. Non-owning: the service must outlive
     * every estimator using it.
     */
    ExecutionService *service = nullptr;

    /**
     * Declared latency class of this estimator's submissions. Pure
     * accounting — see LatencyClass. Selects the session's
     * `service.latency_ns{class=...}` series and SLO target.
     */
    LatencyClass latencyClass = LatencyClass::Bulk;
};

/** Tunables of a shared execution service. */
struct ServiceConfig
{
    /**
     * Worker threads. 0 (the default) resolves through
     * resolveServiceThreads(): the --service-threads flag /
     * VARSAW_SERVICE_THREADS when set, else the hardware
     * concurrency. This is the ONE thread knob to size: the same
     * workers run batch jobs and are lent to engaged kernels, so
     * no batchThreads x kernelThreads sizing rule applies. Results
     * never depend on it.
     */
    int threads = 0;

    /**
     * Dedupe identical submissions across ALL sessions through the
     * shared ledger (on by default — sharing is the point of the
     * service). Sessions opened with an explicit RuntimeConfig can
     * still opt out individually.
     */
    bool cacheResults = true;

    /** Tracked-key cap of the shared dedupe ledger. */
    std::size_t cacheMaxEntries = 1 << 16;

    /**
     * Per-session admission-queue depth cap (scheduler chunks, not
     * jobs). A submit whose chunk finds its session's queue at the
     * cap is SHED: the chunk's jobs fail with ResourceExhausted
     * (their ledger claims are abandoned so cross-session waiters
     * fail too instead of hanging) and the caller is expected to
     * back off and resubmit. 0 (the default) = unbounded.
     */
    std::size_t maxQueueDepth = 0;

    /**
     * Latency-class SLO targets: a batch whose submit-to-complete
     * wall time exceeds its session's class target bumps the
     * `service.slo_burn{class=...}` counter (every batch also lands
     * in the `service.latency_ns{class=...}` histogram, SLO or not).
     * Pure accounting — admission and scheduling never read these.
     * 0 disables burn counting for that class.
     */
    std::uint64_t interactiveSloNs = 100'000'000;     //!< 100 ms
    std::uint64_t bulkSloNs = 10'000'000'000;         //!< 10 s
};

/** Per-session submission/dedupe statistics. */
struct SessionStats
{
    /** Jobs submitted through this session. */
    std::uint64_t jobsSubmitted = 0;

    /** Submissions answered from the shared ledger (duplicates). */
    std::uint64_t cacheHits = 0;

    /** Subset of cacheHits whose primary was submitted by a
     * DIFFERENT session: work this tenant got for free from
     * another. */
    std::uint64_t crossSessionHits = 0;

    /** Submissions this session executed as a key's primary. */
    std::uint64_t cacheMisses = 0;

    /** Shots avoided across this session's hits. */
    std::uint64_t shotsSaved = 0;

    /** Jobs executed inline on the submitting thread (on an
     * inline service, after service shutdown, when admission raced
     * it, or degraded around an injected worker stall). */
    std::uint64_t inlineJobs = 0;

    /** Jobs shed at admission (queue at its depth cap): their
     * futures failed with ResourceExhausted without executing. */
    std::uint64_t shedJobs = 0;
};

/** Service-wide statistics. */
struct ServiceStats
{
    std::uint64_t sessionsOpened = 0;
    std::uint64_t jobsSubmitted = 0;

    /** Duplicates answered across session boundaries. */
    std::uint64_t crossSessionHits = 0;

    /** Admitted task chunks the scheduler's workers executed (a
     * chunk holds one or more jobs; compare jobsSubmitted for job
     * counts). */
    std::uint64_t chunksExecuted = 0;

    /** Kernel loops idle workers were lent to. */
    std::uint64_t kernelAssists = 0;

    /** Kernel chunks those lent workers actually ran — the work
     * that, before this counter, appeared in no stats struct (see
     * ServiceScheduler::assistedChunks). */
    std::uint64_t kernelAssistedChunks = 0;

    /** Jobs shed at admission across all sessions (queue depth cap
     * hit; futures failed with ResourceExhausted). */
    std::uint64_t shedJobs = 0;

    /** Jobs that fell over to inline execution because admission
     * was already closed (late submit racing shutdown). */
    std::uint64_t inlineAfterShutdown = 0;

    /** Poison keys currently quarantined in the shared ledger. */
    std::uint64_t quarantinedKeys = 0;

    /** Ledger hit/miss statistics (all sessions combined). */
    CacheStats cache;
};

/**
 * A tenant's handle onto an execution service. Cheap to create;
 * destroy to release the session's admission queue (tasks already
 * admitted still run). A session opened on a shared service must
 * not outlive it; a makeSubmitter() session may own its service.
 */
class Session
{
  public:
    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /**
     * Submit every job of @p batch; the returned futures are aligned
     * with the batch's job indices. On an inline service the jobs
     * have run before this returns.
     */
    std::vector<std::future<Pmf>> submit(const Batch &batch);

    /** Submit and wait: results aligned with the job indices. */
    std::vector<Pmf> run(const Batch &batch);

    /** Convenience: run a single job through the session. */
    Pmf runOne(const Circuit &circuit,
               const std::vector<double> &params,
               std::uint64_t shots);

    /** The backend jobs execute on (cost counters live there). */
    Executor &backend();
    const Executor &backend() const;

    /**
     * This session's share of the service's ledger:
     * hits/misses/shotsSaved as counted at this session's
     * submissions (circuitsSaved == hits). Evictions are a
     * service-wide concept and read 0 here; see
     * ExecutionService::stats() for the global view.
     */
    CacheStats cacheStats() const;

    /** Jobs submitted through this session since construction. */
    std::uint64_t jobsSubmitted() const;

    /** Full per-session statistics. */
    SessionStats stats() const;

    /** Session id (unique within the service; tags ledger claims). */
    std::uint64_t id() const { return id_; }

    /** Diagnostic name ("" unless given at creation). */
    const std::string &name() const { return name_; }

    /** Declared latency class (SLO accounting series selector). */
    LatencyClass latencyClass() const { return latencyClass_; }

    /** The service this session submits through. */
    ExecutionService &service() { return *service_; }
    const ExecutionService &service() const { return *service_; }

  private:
    friend class ExecutionService;
    friend std::unique_ptr<Session>
    makeSubmitter(Executor &backend, const RuntimeConfig &config);

    Session(ExecutionService *service, std::string name,
            bool cache_results, LatencyClass latency_class);

    ExecutionService *service_;
    /** Set by makeSubmitter() when the session owns a private
     * service; destroyed after ~Session() has closed the queue. */
    std::unique_ptr<ExecutionService> owned_;
    std::string name_;
    std::uint64_t id_;
    std::uint64_t queue_;
    bool cacheResults_;
    LatencyClass latencyClass_;

    std::atomic<std::uint64_t> jobs_{0};
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> crossHits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> shotsSaved_{0};
    std::atomic<std::uint64_t> inlineJobs_{0};
    std::atomic<std::uint64_t> shed_{0};
};

/**
 * Build the session an estimator submits through: a session of
 * config.service when one is set; otherwise a session owning a
 * private service with config.threads workers (inline when 1) and a
 * config.cacheMaxEntries ledger. The session honors
 * config.cacheResults either way. A private service starts no
 * introspection endpoint.
 */
std::unique_ptr<Session> makeSubmitter(Executor &backend,
                                       const RuntimeConfig &config);

/** The execution service (see file comment). */
class ExecutionService
{
  public:
    /**
     * @param backend Executor all sessions' jobs run on. One
     *                service per backend: results are
     *                backend-specific, so deduped results must
     *                never cross backends.
     * @param config  Service tunables.
     */
    explicit ExecutionService(Executor &backend,
                              ServiceConfig config = {});

    /** shutdown(), then releases the scheduler and ledger. */
    ~ExecutionService();

    ExecutionService(const ExecutionService &) = delete;
    ExecutionService &operator=(const ExecutionService &) = delete;

    /**
     * Open a session with the service's default cache setting. The
     * session borrows the service (must not outlive it).
     * @p latency_class selects the SLO series the session's batches
     * are accounted under (see ServiceConfig::interactiveSloNs /
     * bulkSloNs). Accounting only: admission and scheduling treat
     * every class identically.
     */
    std::unique_ptr<Session>
    createSession(std::string name = {},
                  LatencyClass latency_class = LatencyClass::Bulk);

    /**
     * Open a session for an estimator (see makeSubmitter()).
     * @p backend must be THIS service's backend. Honors
     * config.cacheResults and config.latencyClass per session;
     * config.threads is ignored (the service's workers are the
     * thread supply).
     */
    std::unique_ptr<Session> openSession(Executor &backend,
                                         const RuntimeConfig &config);

    /** The backend all sessions execute on. */
    Executor &backend() { return backend_; }
    const Executor &backend() const { return backend_; }

    /** The backend's prefix-sharing engine (shared StateCache).
     * Read through the backend live, so it stays correct even if
     * the backend's engine is replaced (configureSimEngine /
     * setSimEngine) after this service was built. */
    SimEngine &simEngine() { return backend_.simEngine(); }
    const SimEngine &simEngine() const
    {
        return backend_.simEngine();
    }

    /** The shared dedupe ledger (quarantine inspection /
     * clearQuarantine() after operator intervention). */
    const JobLedger &ledger() const { return ledger_; }
    JobLedger &ledger() { return ledger_; }

    /** Service configuration in use (threads resolved). */
    const ServiceConfig &config() const { return config_; }

    /** Resolved worker count (1 for an inline service: the
     * submitting thread). */
    int threadCount() const { return config_.threads; }

    /** Block until every admitted task has completed. */
    void drain();

    /**
     * Drop all shared dedupe state (the ledger; the backend's
     * StateCache is untouched). Results cannot change — they are
     * pure functions of job content — so this only costs
     * re-execution. Use it to release memory, or to fence
     * measurement phases whose cost accounting must not share work
     * (e.g. comparing methods under a circuit budget, as quickstart
     * does). Safe during concurrent submission.
     */
    void clearSharedCaches();

    /**
     * Graceful shutdown: stop admission, drain every session's
     * queue, join the workers. Safe to call while sessions are
     * submitting concurrently — a submission that misses admission
     * executes inline on the submitting thread with an identical
     * result. Idempotent; also runs at destruction.
     */
    void shutdown();

    /** Whether shutdown has been requested. */
    bool closed() const
    {
        return closed_.load(std::memory_order_acquire);
    }

    /** Service-wide statistics snapshot. */
    ServiceStats stats() const;

  private:
    friend class Session;
    friend std::unique_ptr<Session>
    makeSubmitter(Executor &backend, const RuntimeConfig &config);

    /**
     * @p private_service: the service of one makeSubmitter()
     * session. It starts no introspection endpoint, and with one
     * thread it builds no scheduler — jobs run inline.
     */
    ExecutionService(Executor &backend, ServiceConfig config,
                     bool private_service);

    /** Session-facing submission core (defined in the .cc). */
    std::vector<std::future<Pmf>>
    submitFor(Session &session, const Batch &batch);

    /** Start the live-introspection endpoint when
     * telemetry::introspectPath() is set (ctor helper). */
    void maybeStartIntrospection();

    /** Status rows for the introspection endpoint (one per live
     * session, id order). */
    std::vector<telemetry::SessionStatusRow> sessionStatus() const;

    /** Live-session registry maintained by Session ctor/dtor —
     * read only by the introspection endpoint. */
    void registerSession(Session &session);
    void unregisterSession(Session &session);

    Executor &backend_;
    ServiceConfig config_;
    JobLedger ledger_;
    std::atomic<std::uint64_t> nextSessionId_{1};
    std::atomic<std::uint64_t> sessionsOpened_{0};
    std::atomic<std::uint64_t> jobsSubmitted_{0};
    std::atomic<std::uint64_t> crossSessionHits_{0};
    std::atomic<std::uint64_t> shedJobs_{0};
    std::atomic<std::uint64_t> inlineAfterShutdown_{0};
    /** Latched by the first inline-after-shutdown fallover so the
     * warning prints once per service, not once per chunk. */
    std::atomic<bool> warnedLateInline_{false};
    std::atomic<bool> closed_{false};
    /** Guards liveSessions_ (introspection reads vs session
     * open/close). */
    mutable std::mutex sessionsMutex_;
    /** Live sessions by id — non-owning; entries are erased in
     * ~Session before the session's members die. */
    std::map<std::uint64_t, Session *> liveSessions_;
    /**
     * Null for an inline service. Declared after the ledger: its
     * destructor (via shutdown()) joins the workers first, so no
     * in-flight task can touch the ledger after it is destroyed.
     */
    std::unique_ptr<ServiceScheduler> scheduler_;
    /**
     * Declared after scheduler_ so it is destroyed FIRST: the
     * endpoint's accept thread reads stats()/sessionStatus() and
     * must be joined before the scheduler or the session registry
     * can go away. Null unless VARSAW_INTROSPECT / --introspect was
     * set when a shared service was constructed.
     */
    std::unique_ptr<telemetry::IntrospectServer> introspect_;
};

} // namespace varsaw

#endif // VARSAW_SERVICE_EXECUTION_SERVICE_HH
