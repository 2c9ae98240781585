#include "service/job_ledger.hh"

#include <utility>

#include "mitigation/executor.hh"
#include "telemetry/metrics.hh"
#include "telemetry/trace.hh"
#include "util/logging.hh"

namespace varsaw {

namespace {

/**
 * Dedupe-ledger mirror under `runtime.ledger.*` plus the per-job
 * execution latency histogram. Trace events correlate stages of one
 * job by jobStream(key) — a pure content function, so the same
 * submission carries the same id across runs and sessions.
 */
struct LedgerMetrics
{
    telemetry::Counter &dedupeHits;
    telemetry::Counter &shotsSaved;
    telemetry::Counter &claims;
    telemetry::Counter &evictions;
    telemetry::Counter &quarantined;
    telemetry::Histogram &jobLatencyNs;

    static LedgerMetrics &
    get()
    {
        auto &reg = telemetry::MetricsRegistry::instance();
        static LedgerMetrics *m = new LedgerMetrics{
            reg.counter("runtime.ledger.dedupe_hits"),
            reg.counter("runtime.ledger.shots_saved"),
            reg.counter("runtime.ledger.claims"),
            reg.counter("runtime.ledger.evictions"),
            reg.counter("service.quarantined"),
            reg.histogram("runtime.job_latency_ns"),
        };
        return *m;
    }
};

} // namespace

JobLedger::JobLedger(std::size_t max_entries)
    : maxEntries_(max_entries)
{
    if (maxEntries_ == 0)
        panic("JobLedger: max_entries must be positive");
}

JobLedger::Claim
JobLedger::claim(const JobKey &key, std::uint64_t shots,
                 std::uint64_t owner, std::uint64_t *primary_owner)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second.lruIt);
        ++stats_.dedupeHits;
        stats_.shotsSaved += shots;
        if (telemetry::metricsEnabled()) {
            auto &m = LedgerMetrics::get();
            m.dedupeHits.add();
            m.shotsSaved.add(shots);
        }
        if (telemetry::tracingEnabled())
            telemetry::SpanTracer::instance().instant(
                "dedupe-hit", jobStream(key));
        if (primary_owner)
            *primary_owner = it->second.owner;
        return {it->second.primary, nullptr};
    }

    // New primary. Evict least-recently-claimed keys first so the
    // tracked set never exceeds the cap; both the eviction point and
    // the victim depend only on the claimed key sequence. An evicted
    // in-flight primary keeps running — its waiters hold shared
    // futures — but its result is no longer tracked.
    while (entries_.size() >= maxEntries_) {
        const JobKey victim = lru_.back();
        lru_.pop_back();
        entries_.erase(victim);
        ++stats_.evictions;
        if (telemetry::metricsEnabled())
            LedgerMetrics::get().evictions.add();
    }
    auto publish = std::make_shared<std::promise<Pmf>>();
    Entry entry{publish->get_future().share(), owner, {}};
    lru_.push_front(key);
    entry.lruIt = lru_.begin();
    entries_.emplace(key, std::move(entry));
    ++stats_.claims;
    if (telemetry::metricsEnabled())
        LedgerMetrics::get().claims.add();
    if (telemetry::tracingEnabled())
        telemetry::SpanTracer::instance().instant("claim",
                                                  jobStream(key));
    return {{}, std::move(publish)};
}

std::future<Pmf>
JobLedger::deferToPrimary(Claim claim)
{
    return std::async(std::launch::deferred,
                      [primary = std::move(claim.primary)] {
                          return primary.get();
                      });
}

Pmf
JobLedger::executeAndPublish(
    Executor &backend, const CircuitJob &job, const JobKey &key,
    const std::shared_ptr<std::promise<Pmf>> &publish)
{
    // Quarantine fast path: a poisoned key never reaches the
    // backend again until clearQuarantine(). The claimed entry (if
    // any) is retracted so a post-clearQuarantine resubmission gets
    // a fresh primary.
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (quarantine_.count(key) != 0) {
            ++stats_.quarantineRejections;
            dropEntryLocked(key);
            Status status = failedPreconditionError(
                "job key is quarantined after a failed execution "
                "(clearQuarantine() to re-admit)");
            if (publish)
                publish->set_exception(std::make_exception_ptr(
                    StatusError(status)));
            throw StatusError(std::move(status));
        }
    }

    telemetry::ScopedSpan span("job", jobStream(key));
    StatusOr<Pmf> result =
        backend.tryExecuteJob(job.view(), jobStream(key));
    if (!result.ok()) {
        // Poison job: retries exhausted (or permanently invalid).
        // Quarantine the key, retract its entry and fail the
        // primary's future so waiting duplicates see the same typed
        // error.
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (quarantine_.insert(key).second)
                ++stats_.quarantined;
            dropEntryLocked(key);
        }
        if (telemetry::metricsEnabled())
            LedgerMetrics::get().quarantined.add();
        if (telemetry::tracingEnabled())
            telemetry::SpanTracer::instance().instant(
                "quarantine", jobStream(key));
        warn("JobLedger: quarantining job (stream=" +
             std::to_string(jobStream(key)) +
             "): " + result.status().toString());
        if (publish)
            publish->set_exception(std::make_exception_ptr(
                StatusError(result.status())));
        throw StatusError(result.status());
    }
    if (telemetry::metricsEnabled() && span.armed())
        LedgerMetrics::get().jobLatencyNs.record(span.elapsedNs());
    if (publish)
        publish->set_value(*result);
    if (telemetry::tracingEnabled())
        telemetry::SpanTracer::instance().instant(
            "complete", jobStream(key));
    return std::move(result).value();
}

void
JobLedger::abandon(const JobKey &key,
                   const std::shared_ptr<std::promise<Pmf>> &publish,
                   const Status &status)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        dropEntryLocked(key);
        ++stats_.abandoned;
    }
    if (publish)
        publish->set_exception(
            std::make_exception_ptr(StatusError(status)));
}

bool
JobLedger::isQuarantined(const JobKey &key) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return quarantine_.count(key) != 0;
}

std::size_t
JobLedger::quarantinedCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return quarantine_.size();
}

void
JobLedger::clearQuarantine()
{
    std::lock_guard<std::mutex> lock(mutex_);
    quarantine_.clear();
}

JobLedgerStats
JobLedger::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

CacheStats
JobLedger::cacheStats() const
{
    const JobLedgerStats s = stats();
    CacheStats out;
    out.hits = s.dedupeHits;
    out.misses = s.claims;
    out.evictions = s.evictions;
    out.circuitsSaved = s.dedupeHits;
    out.shotsSaved = s.shotsSaved;
    return out;
}

void
JobLedger::dropEntryLocked(const JobKey &key)
{
    auto it = entries_.find(key);
    if (it == entries_.end())
        return;
    lru_.erase(it->second.lruIt);
    entries_.erase(it);
}

void
JobLedger::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    lru_.clear();
}

std::size_t
JobLedger::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

} // namespace varsaw
