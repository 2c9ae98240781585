#include "service/execution_service.hh"

#include <functional>
#include <mutex>
#include <utility>

#include "fault/fault_injector.hh"
#include "telemetry/metrics.hh"
#include "telemetry/profiler.hh"
#include "telemetry/trace.hh"
#include "util/logging.hh"
#include "util/parallel.hh"

namespace varsaw {

namespace {

/** Service-wide mirror under `service.*`. */
struct ServiceMetrics
{
    telemetry::Counter &sessionsOpened;
    telemetry::Counter &jobsSubmitted;
    telemetry::Counter &crossSessionHits;
    telemetry::Counter &shed;
    telemetry::Counter &inlineAfterShutdown;

    static ServiceMetrics &
    get()
    {
        auto &reg = telemetry::MetricsRegistry::instance();
        static ServiceMetrics *m = new ServiceMetrics{
            reg.counter("service.sessions_opened"),
            reg.counter("service.jobs_submitted"),
            reg.counter("service.cross_session_hits"),
            reg.counter("service.shed"),
            reg.counter("service.inline_after_shutdown"),
        };
        return *m;
    }
};

/** Label value identifying a session: its name, or "s<id>". */
std::string
sessionLabel(const Session &session)
{
    if (!session.name().empty())
        return session.name();
    return "s" + std::to_string(session.id());
}

/**
 * Per-session labeled counters under `service.session.*{session=X}`.
 * Looked up once per submit() batch (a registry-mutex lookup), then
 * bumped with the batch's tallies — never per job.
 */
struct SessionBatchMetrics
{
    telemetry::Counter &jobs;
    telemetry::Counter &hits;
    telemetry::Counter &crossHits;
    telemetry::Counter &misses;
    telemetry::Counter &shotsSaved;
    telemetry::Counter &inlineJobs;

    static SessionBatchMetrics
    forSession(const Session &session)
    {
        auto &reg = telemetry::MetricsRegistry::instance();
        const auto label = [&session](const char *base) {
            return telemetry::labeled(
                base, {{"session", sessionLabel(session)}});
        };
        return SessionBatchMetrics{
            reg.counter(label("service.session.jobs_submitted")),
            reg.counter(label("service.session.cache_hits")),
            reg.counter(
                label("service.session.cross_session_hits")),
            reg.counter(label("service.session.cache_misses")),
            reg.counter(label("service.session.shots_saved")),
            reg.counter(label("service.session.inline_jobs")),
        };
    }
};

/**
 * Per-latency-class SLO accounting series: every batch lands in
 * `service.latency_ns{class=...}`; a batch over its class target
 * additionally bumps `service.slo_burn{class=...}`.
 */
struct SloMetrics
{
    telemetry::Histogram &latency;
    telemetry::Counter &burn;

    static SloMetrics &
    forClass(LatencyClass latency_class)
    {
        auto &reg = telemetry::MetricsRegistry::instance();
        const auto make = [&reg](const char *class_name) {
            return SloMetrics{
                reg.histogram(telemetry::labeled(
                    "service.latency_ns",
                    {{"class", class_name}})),
                reg.counter(telemetry::labeled(
                    "service.slo_burn", {{"class", class_name}})),
            };
        };
        static SloMetrics *interactive =
            new SloMetrics(make("interactive"));
        static SloMetrics *bulk = new SloMetrics(make("bulk"));
        return latency_class == LatencyClass::Interactive
            ? *interactive
            : *bulk;
    }
};

/**
 * Submit-to-complete latency tracker for one batch: the LAST chunk
 * to finish (worker, inline, or shed — shed chunks resolve their
 * futures at shed time, which IS their completion) records the
 * batch's wall time under the session's class series. Pure
 * observation: nothing reads the recorded values back.
 */
struct SloState
{
    std::uint64_t submitNs = 0;
    std::uint64_t targetNs = 0;
    LatencyClass latencyClass = LatencyClass::Bulk;
    std::atomic<std::size_t> remaining{0};

    void
    complete()
    {
        if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1)
            record();
    }

    void
    record() const
    {
        const std::uint64_t latency =
            telemetry::nowNs() - submitNs;
        SloMetrics &m = SloMetrics::forClass(latencyClass);
        m.latency.record(latency);
        if (targetNs != 0 && latency > targetNs)
            m.burn.add();
    }
};

} // namespace

const char *
latencyClassName(LatencyClass latency_class)
{
    return latency_class == LatencyClass::Interactive
        ? "interactive"
        : "bulk";
}

// ---- Session ---------------------------------------------------------------

Session::Session(ExecutionService *service, std::string name,
                 bool cache_results, LatencyClass latency_class)
    : service_(service), name_(std::move(name)),
      id_(service->nextSessionId_.fetch_add(
          1, std::memory_order_relaxed)),
      // The queue carries the session label so the scheduler can
      // attribute per-session queue-wait time (name_ and id_ are
      // initialized above; declaration order guarantees it).
      queue_(service->scheduler_
                 ? service->scheduler_->openQueue(
                       name_.empty() ? "s" + std::to_string(id_)
                                     : name_)
                 : 0),
      cacheResults_(cache_results), latencyClass_(latency_class)
{
    service_->sessionsOpened_.fetch_add(1,
                                        std::memory_order_relaxed);
    if (telemetry::metricsEnabled())
        ServiceMetrics::get().sessionsOpened.add();
    service_->registerSession(*this);
}

Session::~Session()
{
    // Drop out of the introspection registry BEFORE the queue
    // closes, so a status snapshot can never see a dying session.
    service_->unregisterSession(*this);
    // Tasks already admitted still run (the queue is reaped once
    // drained); only further admission stops.
    if (service_->scheduler_)
        service_->scheduler_->closeQueue(queue_);
}

std::vector<std::future<Pmf>>
Session::submit(const Batch &batch)
{
    return service_->submitFor(*this, batch);
}

std::vector<Pmf>
Session::run(const Batch &batch)
{
    auto futures = submit(batch);
    std::vector<Pmf> results;
    results.reserve(futures.size());
    for (auto &future : futures)
        results.push_back(future.get());
    return results;
}

Pmf
Session::runOne(const Circuit &circuit,
                const std::vector<double> &params,
                std::uint64_t shots)
{
    Batch batch;
    batch.add(circuit, params, shots);
    return run(batch).front();
}

Executor &
Session::backend()
{
    return service_->backend();
}

const Executor &
Session::backend() const
{
    return service_->backend();
}

CacheStats
Session::cacheStats() const
{
    CacheStats stats;
    stats.hits = hits_.load(std::memory_order_relaxed);
    stats.misses = misses_.load(std::memory_order_relaxed);
    stats.circuitsSaved = stats.hits;
    stats.shotsSaved = shotsSaved_.load(std::memory_order_relaxed);
    return stats;
}

std::uint64_t
Session::jobsSubmitted() const
{
    return jobs_.load(std::memory_order_relaxed);
}

SessionStats
Session::stats() const
{
    SessionStats stats;
    stats.jobsSubmitted = jobs_.load(std::memory_order_relaxed);
    stats.cacheHits = hits_.load(std::memory_order_relaxed);
    stats.crossSessionHits =
        crossHits_.load(std::memory_order_relaxed);
    stats.cacheMisses = misses_.load(std::memory_order_relaxed);
    stats.shotsSaved = shotsSaved_.load(std::memory_order_relaxed);
    stats.inlineJobs = inlineJobs_.load(std::memory_order_relaxed);
    stats.shedJobs = shed_.load(std::memory_order_relaxed);
    return stats;
}

// ---- ExecutionService ------------------------------------------------------

ExecutionService::ExecutionService(Executor &backend,
                                   ServiceConfig config)
    : ExecutionService(backend, config, false)
{
}

ExecutionService::ExecutionService(Executor &backend,
                                   ServiceConfig config,
                                   bool private_service)
    : backend_(backend), config_(config),
      ledger_(config.cacheMaxEntries)
{
    if (private_service && config_.threads == 1)
        return; // inline: no scheduler, no endpoint
    scheduler_ = std::make_unique<ServiceScheduler>(
        resolveServiceThreads(config_.threads),
        config_.maxQueueDepth);
    config_.threads = scheduler_->threadCount();
    if (!private_service)
        maybeStartIntrospection();
}

ExecutionService::~ExecutionService()
{
    // Join the introspection endpoint FIRST: its accept thread
    // reads the session registry and the scheduler, both of which
    // shutdown() and member destruction tear down.
    if (introspect_)
        introspect_->stop();
    shutdown();
}

void
ExecutionService::maybeStartIntrospection()
{
    const std::string path = telemetry::introspectPath();
    if (path.empty())
        return;
    auto server = std::make_unique<telemetry::IntrospectServer>();
    server->setStatusProvider([this] { return sessionStatus(); });
    if (!server->start(path))
        return; // start() has already warned
    introspect_ = std::move(server);
}

void
ExecutionService::registerSession(Session &session)
{
    std::lock_guard<std::mutex> lock(sessionsMutex_);
    liveSessions_.emplace(session.id(), &session);
}

void
ExecutionService::unregisterSession(Session &session)
{
    std::lock_guard<std::mutex> lock(sessionsMutex_);
    liveSessions_.erase(session.id());
}

std::vector<telemetry::SessionStatusRow>
ExecutionService::sessionStatus() const
{
    std::vector<telemetry::SessionStatusRow> rows;
    std::lock_guard<std::mutex> lock(sessionsMutex_);
    rows.reserve(liveSessions_.size());
    for (const auto &[id, session] : liveSessions_) {
        telemetry::SessionStatusRow row;
        row.session = sessionLabel(*session);
        row.latencyClass =
            latencyClassName(session->latencyClass_);
        row.jobsSubmitted =
            session->jobs_.load(std::memory_order_relaxed);
        row.cacheHits =
            session->hits_.load(std::memory_order_relaxed);
        row.crossSessionHits =
            session->crossHits_.load(std::memory_order_relaxed);
        row.shedJobs =
            session->shed_.load(std::memory_order_relaxed);
        row.inlineJobs =
            session->inlineJobs_.load(std::memory_order_relaxed);
        row.queueDepth =
            scheduler_ ? scheduler_->queueDepth(session->queue_) : 0;
        rows.push_back(std::move(row));
    }
    return rows;
}

std::unique_ptr<Session>
ExecutionService::createSession(std::string name,
                                LatencyClass latency_class)
{
    return std::unique_ptr<Session>(new Session(
        this, std::move(name), config_.cacheResults, latency_class));
}

std::unique_ptr<Session>
ExecutionService::openSession(Executor &backend,
                              const RuntimeConfig &config)
{
    if (&backend != &backend_)
        panic("ExecutionService::openSession: the estimator's "
              "executor is not this service's backend (results are "
              "backend-specific; open one service per backend)");
    return std::unique_ptr<Session>(new Session(
        this, {}, config.cacheResults, config.latencyClass));
}

std::unique_ptr<Session>
makeSubmitter(Executor &backend, const RuntimeConfig &config)
{
    if (config.service)
        return config.service->openSession(backend, config);
    if (config.threads < 1)
        panic("makeSubmitter: thread count must be >= 1");
    ServiceConfig sc;
    sc.threads = config.threads;
    sc.cacheMaxEntries = config.cacheMaxEntries;
    std::unique_ptr<ExecutionService> owned(
        new ExecutionService(backend, sc, true));
    std::unique_ptr<Session> session =
        owned->openSession(backend, config);
    session->owned_ = std::move(owned);
    return session;
}

void
ExecutionService::drain()
{
    if (scheduler_)
        scheduler_->drain();
}

void
ExecutionService::clearSharedCaches()
{
    ledger_.clear();
}

void
ExecutionService::shutdown()
{
    closed_.store(true, std::memory_order_release);
    if (scheduler_)
        scheduler_->shutdown();
}

ServiceStats
ExecutionService::stats() const
{
    ServiceStats stats;
    stats.sessionsOpened =
        sessionsOpened_.load(std::memory_order_relaxed);
    stats.jobsSubmitted =
        jobsSubmitted_.load(std::memory_order_relaxed);
    stats.crossSessionHits =
        crossSessionHits_.load(std::memory_order_relaxed);
    if (scheduler_) {
        stats.chunksExecuted = scheduler_->chunksExecuted();
        stats.kernelAssists = scheduler_->kernelAssists();
        stats.kernelAssistedChunks = scheduler_->assistedChunks();
    }
    stats.shedJobs = shedJobs_.load(std::memory_order_relaxed);
    stats.inlineAfterShutdown =
        inlineAfterShutdown_.load(std::memory_order_relaxed);
    stats.quarantinedKeys = ledger_.quarantinedCount();
    stats.cache = ledger_.cacheStats();
    return stats;
}

std::vector<std::future<Pmf>>
ExecutionService::submitFor(Session &session, const Batch &batch)
{
    std::vector<std::future<Pmf>> futures;
    futures.reserve(batch.size());
    if (batch.empty())
        return futures;

    session.jobs_.fetch_add(batch.size(),
                            std::memory_order_relaxed);
    jobsSubmitted_.fetch_add(batch.size(),
                             std::memory_order_relaxed);

    // Batch-local telemetry tallies, published once after the
    // admission loop so labeled counters cost one registry lookup
    // per batch, not per job.
    const bool metricsOn = telemetry::metricsEnabled();
    std::uint64_t tallyHits = 0, tallyCrossHits = 0,
                  tallyMisses = 0, tallyShotsSaved = 0,
                  tallyInline = 0, tallyShed = 0;

    // Latency-class SLO accounting: the last chunk to complete
    // records the batch's submit-to-complete wall time (SloState).
    std::shared_ptr<SloState> slo;
    if (metricsOn) {
        slo = std::make_shared<SloState>();
        slo->submitNs = telemetry::nowNs();
        slo->latencyClass = session.latencyClass_;
        slo->targetNs =
            session.latencyClass_ == LatencyClass::Interactive
            ? config_.interactiveSloNs
            : config_.bulkSloNs;
    }

    // Ledger admission in submission order: the first session to
    // claim a key (across ALL tenants) executes it; everyone else —
    // including other sessions — defers onto the primary's future.
    // Content-derived streams make the deduped result identical to
    // what the duplicate would have computed itself, so WHO wins the
    // claim race can never change a result, only the bookkeeping.
    // Returns false for a duplicate (its future is already
    // appended); otherwise @p publish receives the primary's ledger
    // promise (null on a cache-off session, which never claims).
    const auto admit = [&](const CircuitJob &job, const JobKey &key,
                           std::shared_ptr<std::promise<Pmf>> &publish) {
        if (telemetry::tracingEnabled())
            telemetry::SpanTracer::instance().instant(
                "enqueue", jobStream(key),
                sessionLabel(session).c_str());
        if (!session.cacheResults_)
            return true;
        std::uint64_t primary_owner = 0;
        auto claim = [&] {
            telemetry::ScopedPhase phase(
                telemetry::Phase::LedgerLookup);
            return ledger_.claim(key, job.shots, session.id_,
                                 &primary_owner);
        }();
        if (claim.duplicate()) {
            session.hits_.fetch_add(1, std::memory_order_relaxed);
            session.shotsSaved_.fetch_add(job.shots,
                                          std::memory_order_relaxed);
            ++tallyHits;
            tallyShotsSaved += job.shots;
            if (primary_owner != session.id_) {
                session.crossHits_.fetch_add(
                    1, std::memory_order_relaxed);
                crossSessionHits_.fetch_add(
                    1, std::memory_order_relaxed);
                ++tallyCrossHits;
            }
            futures.push_back(
                JobLedger::deferToPrimary(std::move(claim)));
            return false;
        }
        session.misses_.fetch_add(1, std::memory_order_relaxed);
        ++tallyMisses;
        publish = std::move(claim.publish);
        return true;
    };

    // Publishes the batch's tallies once both paths are done.
    const auto publishTallies = [&] {
        if (!metricsOn)
            return;
        ServiceMetrics &svc = ServiceMetrics::get();
        svc.jobsSubmitted.add(batch.size());
        svc.crossSessionHits.add(tallyCrossHits);
        svc.shed.add(tallyShed);
        SessionBatchMetrics m =
            SessionBatchMetrics::forSession(session);
        m.jobs.add(batch.size());
        m.hits.add(tallyHits);
        m.crossHits.add(tallyCrossHits);
        m.misses.add(tallyMisses);
        m.shotsSaved.add(tallyShotsSaved);
        m.inlineJobs.add(tallyInline);
    };

    if (!scheduler_) {
        // Inline service: every primary runs on the submitting
        // thread before submit() returns, so the batch is neither
        // copied nor chunked. A failed execution (StatusError:
        // quarantine, retries exhausted, invalid job) fails THIS
        // job's future and nothing else.
        for (const CircuitJob &job : batch.jobs()) {
            const JobKey key = makeJobKey(job);
            std::shared_ptr<std::promise<Pmf>> publish;
            if (!admit(job, key, publish))
                continue;
            std::promise<Pmf> done;
            try {
                done.set_value(ledger_.executeAndPublish(
                    backend_, job, key, publish));
            } catch (...) {
                done.set_exception(std::current_exception());
            }
            futures.push_back(done.get_future());
            ++tallyInline;
        }
        session.inlineJobs_.fetch_add(tallyInline,
                                      std::memory_order_relaxed);
        if (slo)
            slo->record();
        publishTallies();
        return futures;
    }

    // Task closures reference the jobs through shared batch storage
    // (one copy per submit), so futures stay valid even if the
    // caller drops the Batch — or the Session — before they
    // resolve; they capture the service, never the session.
    auto owned = std::make_shared<const std::vector<CircuitJob>>(
        batch.jobs());
    const std::vector<PrepKey> prep_keys = prepKeysOf(*owned);

    // One pending record per primary job: the task closure plus the
    // metadata the shed path needs to fail the job WITHOUT running
    // it (its ledger claim and its caller-facing promise).
    struct PendingJob
    {
        JobKey key;
        std::shared_ptr<std::promise<Pmf>> publish; //!< ledger claim
        std::shared_ptr<std::promise<Pmf>> done; //!< caller's future
        std::function<void()> run;
    };
    std::vector<PendingJob> pending;
    std::vector<PrepKey> pending_keys;
    pending.reserve(owned->size());
    pending_keys.reserve(owned->size());

    for (std::size_t i = 0; i < owned->size(); ++i) {
        const CircuitJob &job = (*owned)[i];
        const JobKey key = makeJobKey(job);
        std::shared_ptr<std::promise<Pmf>> publish;
        if (!admit(job, key, publish))
            continue;
        const CircuitJob *job_ptr = &job;
        // Explicit promise instead of a packaged_task so the shed
        // path can fail the future without running the task. A
        // failed execution (StatusError: quarantine, retries
        // exhausted, invalid job) fails THIS job's future and
        // nothing else — the rest of its chunk still runs.
        auto done = std::make_shared<std::promise<Pmf>>();
        futures.push_back(done->get_future());
        auto run = [this, owned, job_ptr, key, publish, done] {
            try {
                done->set_value(ledger_.executeAndPublish(
                    backend_, *job_ptr, key, publish));
            } catch (...) {
                done->set_exception(std::current_exception());
            }
        };
        pending.push_back(
            {key, std::move(publish), std::move(done),
             std::move(run)});
        pending_keys.push_back(prep_keys[i]);
    }

    // Admission: prefix-aware chunks into this session's FIFO queue;
    // the scheduler round-robins across sessions. Three
    // non-Accepted outcomes, all local to the chunk:
    //  - Closed (shutdown, or a shutdown racing this submit): the
    //    chunk runs inline on the submitting thread — same jobs,
    //    same streams, same results (counter
    //    service.inline_after_shutdown + a once-per-service warn).
    //  - Full (queue at ServiceConfig::maxQueueDepth): the chunk is
    //    SHED — every job's future fails with ResourceExhausted and
    //    its ledger claim is abandoned so cross-session duplicates
    //    fail too instead of hanging. Nothing executes; the caller
    //    backs off and resubmits.
    //  - Injected worker stall (fault::FaultSite::WorkerStall,
    //    keyed by the chunk's first job): degrade to inline
    //    execution, as if the worker assigned to the chunk never
    //    picked it up and the submitter reclaimed the work.
    const auto chunk_indices = prefixScheduleIndexChunks(
        pending_keys,
        static_cast<std::size_t>(scheduler_->threadCount()));
    // All-hit batches (no chunks) complete right here.
    if (slo) {
        slo->remaining.store(chunk_indices.size(),
                             std::memory_order_relaxed);
        if (chunk_indices.empty())
            slo->record();
    }

    auto &injector = fault::FaultInjector::instance();
    for (const auto &indices : chunk_indices) {
        auto shared = std::make_shared<
            std::vector<std::function<void()>>>();
        shared->reserve(indices.size());
        for (std::size_t i : indices)
            shared->push_back(std::move(pending[i].run));
        auto runner = [shared, slo] {
            for (auto &run : *shared)
                run();
            if (slo)
                slo->complete();
        };

        if (injector.enabled() && !indices.empty() &&
            injector.shouldInject(
                fault::FaultSite::WorkerStall,
                jobStream(pending[indices.front()].key))) {
            session.inlineJobs_.fetch_add(
                shared->size(), std::memory_order_relaxed);
            tallyInline += shared->size();
            runner();
            continue;
        }

        switch (scheduler_->enqueue(session.queue_, runner)) {
        case ServiceScheduler::Admission::Accepted:
            break;
        case ServiceScheduler::Admission::Full: {
            const Status status = resourceExhaustedError(
                "session admission queue is full (maxQueueDepth=" +
                std::to_string(scheduler_->maxQueueDepth()) +
                "): job shed — back off and resubmit");
            for (std::size_t i : indices) {
                PendingJob &p = pending[i];
                if (p.publish)
                    ledger_.abandon(p.key, p.publish, status);
                p.done->set_exception(std::make_exception_ptr(
                    StatusError(status)));
            }
            session.shed_.fetch_add(shared->size(),
                                    std::memory_order_relaxed);
            shedJobs_.fetch_add(shared->size(),
                                std::memory_order_relaxed);
            tallyShed += shared->size();
            // The shed chunk's futures have all resolved
            // (exceptionally) — that IS its completion.
            if (slo)
                slo->complete();
            break;
        }
        case ServiceScheduler::Admission::Closed:
            if (!warnedLateInline_.exchange(
                    true, std::memory_order_relaxed))
                warn("ExecutionService: admission closed "
                     "(shutdown); late submissions execute inline "
                     "on the submitting thread");
            session.inlineJobs_.fetch_add(
                shared->size(), std::memory_order_relaxed);
            inlineAfterShutdown_.fetch_add(
                shared->size(), std::memory_order_relaxed);
            tallyInline += shared->size();
            if (metricsOn)
                ServiceMetrics::get().inlineAfterShutdown.add(
                    shared->size());
            runner();
            break;
        }
    }

    publishTallies();
    return futures;
}

} // namespace varsaw
