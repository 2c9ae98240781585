/**
 * @file
 * Fault-tolerance tests for the execution stack under the
 * deterministic injector (fault/): retries converge bit-identically,
 * deadlines and backoff run on the virtual clock, poison jobs are
 * quarantined, bounded admission queues shed with ResourceExhausted,
 * and every degradation path (worker stall, cache-insert failure,
 * late submit after shutdown) preserves results.
 *
 * The injector is process-wide; every test installs its plan through
 * a PlanGuard that restores the previous plan (and zeroes the
 * injection stats) on exit, and tears down its service (joining the
 * workers) before the guard fires.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "chem/spin_models.hh"
#include "core/selective.hh"
#include "core/varsaw.hh"
#include "fault/fault_injector.hh"
#include "service/execution_service.hh"
#include "sim/circuit.hh"
#include "sim/circuit_hash.hh"
#include "util/status.hh"
#include "vqa/ansatz.hh"
#include "../util/pmf_equality.hh"

namespace varsaw {
namespace {

/** Restores the process-wide fault plan + stats at scope exit. */
class PlanGuard
{
  public:
    PlanGuard() : saved_(fault::FaultInjector::instance().plan()) {}

    ~PlanGuard()
    {
        fault::FaultInjector::instance().configure(saved_);
        fault::FaultInjector::instance().resetStats();
    }

    PlanGuard(const PlanGuard &) = delete;
    PlanGuard &operator=(const PlanGuard &) = delete;

  private:
    fault::FaultPlan saved_;
};

/** Parse-and-install a plan spec (must be well-formed). */
void
installPlan(const std::string &spec)
{
    fault::FaultPlan plan;
    std::string error;
    ASSERT_TRUE(fault::parseFaultPlan(spec, plan, error)) << error;
    fault::FaultInjector::instance().configure(plan);
    fault::FaultInjector::instance().resetStats();
}

/** All rates zero: injection off, real clock. */
void
installZeroPlan()
{
    fault::FaultInjector::instance().configure(fault::FaultPlan{});
    fault::FaultInjector::instance().resetStats();
}

/** A prefix-sharing workload: per-basis Globals over one ansatz. */
Batch
basisWorkload(const std::shared_ptr<const Circuit> &prep,
              const std::vector<PauliString> &bases,
              const std::vector<double> &params, std::uint64_t shots)
{
    Batch batch;
    for (const auto &basis : bases)
        batch.addPrefixed(prep, makeGlobalSuffix(basis), params,
                          shots);
    return batch;
}

std::vector<PauliString>
tfimBases(int qubits)
{
    const Hamiltonian h = tfim(qubits, 1.0, 0.7);
    return coverReduce(h.strings()).bases;
}

/** The one 4-qubit workload most tests run (fresh objects each
 * call; results depend only on content + backend seed). */
struct Workload
{
    std::shared_ptr<const Circuit> prep;
    std::vector<double> params;
    std::vector<PauliString> bases;

    Workload()
    {
        EfficientSU2 ansatz(
            AnsatzConfig{4, 2, Entanglement::Linear});
        prep = std::make_shared<const Circuit>(ansatz.circuit());
        params = ansatz.initialParameters(17);
        bases = tfimBases(4);
    }

    Batch batch(std::uint64_t shots) const
    {
        return basisWorkload(prep, bases, params, shots);
    }
};

/** Fault-free reference results for @p batch on a seed-3 ideal
 * backend (zero plan installed for the duration). */
std::vector<Pmf>
idealReference(const Batch &batch)
{
    installZeroPlan();
    IdealExecutor exec(3);
    RuntimeConfig rc;
    rc.threads = 1;
    auto runtime = makeSubmitter(exec, rc);
    return runtime->run(batch);
}

TEST(FaultTolerance, ZeroRatePlanIsBitIdenticalAndInjectionFree)
{
    PlanGuard guard;
    const Workload w;
    const Batch batch = w.batch(1024);
    const std::vector<Pmf> ref = idealReference(batch);

    installZeroPlan();
    IdealExecutor exec(3);
    ServiceConfig sc;
    sc.threads = 2;
    ExecutionService service(exec, sc);
    auto session = service.createSession();
    const auto got = session->run(batch);

    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        expectBitIdentical(got[i], ref[i]);
    EXPECT_EQ(fault::FaultInjector::instance().stats().total(), 0u);
    EXPECT_EQ(exec.retriesPerformed(), 0u);
    EXPECT_EQ(service.stats().quarantinedKeys, 0u);
    EXPECT_EQ(service.stats().shedJobs, 0u);
}

TEST(FaultTolerance, TransientFaultsRetryToBitIdenticalResults)
{
    PlanGuard guard;
    const Workload w;
    const Batch batch = w.batch(1024);
    const std::vector<Pmf> ref = idealReference(batch);
    const std::uint64_t ref_circuits = [&] {
        installZeroPlan();
        IdealExecutor exec(3);
        RuntimeConfig rc;
        rc.threads = 1;
        rc.cacheResults = true; // dedupe like the service does
        auto runtime = makeSubmitter(exec, rc);
        (void)runtime->run(batch);
        return exec.circuitsExecuted();
    }();

    // Every job fails its first two attempts, then succeeds: the
    // surviving attempt samples the same content-derived stream a
    // first-try success would, so results cannot move a bit.
    installPlan("seed=11,exec_transient=1.0,burst=2,retries=5,"
                "virtual_time=1");
    IdealExecutor exec(3);
    ServiceConfig sc;
    sc.threads = 2;
    ExecutionService service(exec, sc);
    auto session = service.createSession();
    const auto got = session->run(batch);

    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        expectBitIdentical(got[i], ref[i]);
    EXPECT_GT(exec.retriesPerformed(), 0u);
    const auto stats = fault::FaultInjector::instance().stats();
    EXPECT_GT(stats.injected[static_cast<int>(
                  fault::FaultSite::ExecutorTransient)],
              0u);
    // An injected transient fails BEFORE the backend runs, so the
    // paper's cost counter is exact under chaos: same circuit count
    // as the fault-free run.
    EXPECT_EQ(exec.circuitsExecuted(), ref_circuits);
}

TEST(FaultTolerance, CorruptionIsDetectedAndRetriedBitIdentical)
{
    PlanGuard guard;
    const Workload w;
    const Batch batch = w.batch(512);
    const std::vector<Pmf> ref = idealReference(batch);

    installPlan("seed=13,corrupt=1.0,burst=2,retries=5,"
                "virtual_time=1");
    IdealExecutor exec(3);
    ServiceConfig sc;
    sc.threads = 2;
    ExecutionService service(exec, sc);
    auto session = service.createSession();
    const auto got = session->run(batch);

    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        expectBitIdentical(got[i], ref[i]);
    EXPECT_GT(exec.retriesPerformed(), 0u);
    EXPECT_GT(fault::FaultInjector::instance()
                  .stats()
                  .injected[static_cast<int>(
                      fault::FaultSite::ResultCorruption)],
              0u);
}

TEST(FaultTolerance, DeadlineExceededOnVirtualClock)
{
    PlanGuard guard;
    // First attempt fails (transient), the 1 ms backoff before
    // attempt 2 blows the 0.5 ms deadline — all on the virtual
    // clock, so the test is instantaneous and exact.
    installPlan("exec_transient=1.0,burst=10,retries=10,"
                "backoff_ns=1000000,max_backoff_ns=8000000,"
                "deadline_ns=500000,virtual_time=1");
    IdealExecutor exec(3);
    Circuit c(2);
    c.h(0).cx(0, 1).measureAll();
    const std::vector<double> params;
    const StatusOr<Pmf> result =
        exec.tryExecuteJob(JobView{c, params, 0, nullptr}, 99);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::DeadlineExceeded);
    // Both attempts died before reaching the backend.
    EXPECT_EQ(exec.circuitsExecuted(), 0u);
}

TEST(FaultTolerance, RetryBackoffIsDeterministicOnVirtualClock)
{
    PlanGuard guard;
    auto &inj = fault::FaultInjector::instance();
    Circuit c(2);
    c.h(0).cx(0, 1).measureAll();
    const std::vector<double> params;
    const JobView job{c, params, 64, nullptr};

    for (int round = 0; round < 2; ++round) {
        // configure() resets the virtual clock, so both rounds
        // replay the identical schedule.
        installPlan("exec_transient=1.0,burst=3,retries=5,"
                    "backoff_ns=1000,max_backoff_ns=8000,"
                    "virtual_time=1");
        IdealExecutor exec(3);
        const StatusOr<Pmf> result = exec.tryExecuteJob(job, 7);
        ASSERT_TRUE(result.ok()) << result.status().toString();
        // Attempts 0..2 fail; backoffs 1000, 2000, 4000 ns precede
        // attempts 1..3. Exponential, capped, and exactly
        // reproducible.
        EXPECT_EQ(inj.nowNs(), 7000u) << "round " << round;
        EXPECT_EQ(exec.retriesPerformed(), 3u);
    }
}

TEST(FaultTolerance, InvalidJobFailsItsFutureNotTheService)
{
    PlanGuard guard;
    installZeroPlan();
    IdealExecutor exec(3);
    ServiceConfig sc;
    sc.threads = 2;
    ExecutionService service(exec, sc);
    auto session = service.createSession();

    // A circuit with no measurements is a malformed submission: it
    // must fail ITS future with InvalidArgument — never a panic,
    // never the pool.
    Circuit bad(2);
    bad.h(0).cx(0, 1);
    Batch batch;
    batch.add(bad, {}, 128);
    auto futures = session->submit(batch);
    ASSERT_EQ(futures.size(), 1u);
    try {
        (void)futures[0].get();
        FAIL() << "invalid job must fail its future";
    } catch (const StatusError &e) {
        EXPECT_EQ(e.code(), StatusCode::InvalidArgument);
    }

    // The service is fully alive: a valid batch still executes.
    const Workload w;
    const Batch good = w.batch(256);
    const auto got = session->run(good);
    const std::vector<Pmf> ref = idealReference(good);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        expectBitIdentical(got[i], ref[i]);
}

TEST(FaultTolerance, ExhaustedRetriesQuarantineThePoisonKey)
{
    PlanGuard guard;
    const Workload w;
    Batch batch;
    batch.addPrefixed(w.prep, makeGlobalSuffix(w.bases.front()),
                      w.params, 256);
    const std::vector<Pmf> ref = idealReference(batch);

    // burst > retries: every attempt fails, the key is poisoned.
    installPlan("seed=5,exec_transient=1.0,burst=50,retries=3,"
                "virtual_time=1");
    IdealExecutor exec(3);
    ServiceConfig sc;
    sc.threads = 1;
    ExecutionService service(exec, sc);
    auto session = service.createSession();

    auto futures = session->submit(batch);
    ASSERT_EQ(futures.size(), 1u);
    try {
        (void)futures[0].get();
        FAIL() << "exhausted retries must fail the future";
    } catch (const StatusError &e) {
        EXPECT_EQ(e.code(), StatusCode::Unavailable);
    }
    EXPECT_EQ(service.stats().quarantinedKeys, 1u);
    EXPECT_TRUE(
        service.ledger().isQuarantined(makeJobKey(batch.jobs()[0])));
    EXPECT_EQ(exec.circuitsExecuted(), 0u);

    // Resubmission fast-fails with FailedPrecondition WITHOUT
    // touching the backend: the poison job cannot burn retry
    // budgets over and over.
    auto again = session->submit(batch);
    try {
        (void)again[0].get();
        FAIL() << "quarantined key must fast-fail";
    } catch (const StatusError &e) {
        EXPECT_EQ(e.code(), StatusCode::FailedPrecondition);
    }
    EXPECT_EQ(exec.circuitsExecuted(), 0u);

    // Quarantine SURVIVES clearing the dedupe state: dropping
    // caches must not silently re-admit poison jobs.
    service.clearSharedCaches();
    auto after_clear = session->submit(batch);
    EXPECT_THROW((void)after_clear[0].get(), StatusError);
    EXPECT_EQ(service.stats().quarantinedKeys, 1u);

    const JobLedgerStats ledger_stats = service.ledger().stats();
    EXPECT_EQ(ledger_stats.quarantined, 1u);
    EXPECT_EQ(ledger_stats.quarantineRejections, 2u);

    // Operator intervention: clear the quarantine, fix the fault
    // (zero plan), and the key executes to the unfaulted result.
    service.ledger().clearQuarantine();
    EXPECT_EQ(service.stats().quarantinedKeys, 0u);
    installZeroPlan();
    const auto got = session->run(batch);
    ASSERT_EQ(got.size(), 1u);
    expectBitIdentical(got[0], ref[0]);
}

TEST(FaultTolerance, CacheInsertFailureDegradesToBypass)
{
    PlanGuard guard;
    const Workload w;
    const Batch batch = w.batch(512);
    const std::vector<Pmf> ref = idealReference(batch);

    // Every prepared state fails to become resident: the state
    // cache degrades to bypass. Waiters still get their states, so
    // only work changes — results are pure functions of content.
    installPlan("cache_insert=1.0");
    IdealExecutor exec(3);
    ServiceConfig sc;
    sc.threads = 2;
    ExecutionService service(exec, sc);
    auto session = service.createSession();
    const auto got = session->run(batch);

    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        expectBitIdentical(got[i], ref[i]);
    EXPECT_GT(exec.simEngine().cache().stats().insertFailures, 0u);
    EXPECT_GT(fault::FaultInjector::instance()
                  .stats()
                  .injected[static_cast<int>(
                      fault::FaultSite::StateCacheInsert)],
              0u);
}

TEST(FaultTolerance, BackpressureShedsWithResourceExhausted)
{
    PlanGuard guard;
    const Workload w;
    // N single-job batches with distinct shot counts (distinct
    // keys), plus their fault-free references.
    constexpr int kBatches = 16;
    std::vector<Batch> batches;
    std::vector<Pmf> refs;
    for (int i = 0; i < kBatches; ++i) {
        Batch b;
        b.addPrefixed(w.prep, makeGlobalSuffix(w.bases.front()),
                      w.params, 256 + static_cast<std::uint64_t>(i));
        refs.push_back(idealReference(b).front());
        batches.push_back(std::move(b));
    }

    // One worker held ~30 ms per job by injected latency spikes, a
    // queue depth of one, and a tight submission loop: most
    // submissions find the queue full and are shed.
    installPlan("latency_spike=1.0,latency_ns=30000000");
    IdealExecutor exec(3);
    ServiceConfig sc;
    sc.threads = 1;
    sc.maxQueueDepth = 1;
    ExecutionService service(exec, sc);
    auto session = service.createSession();

    std::vector<std::future<Pmf>> futures;
    for (const Batch &b : batches)
        futures.push_back(std::move(session->submit(b).front()));

    std::vector<int> shed_indices;
    std::uint64_t delivered = 0;
    for (int i = 0; i < kBatches; ++i) {
        try {
            const Pmf got = futures[static_cast<std::size_t>(i)].get();
            expectBitIdentical(got, refs[static_cast<std::size_t>(i)]);
            ++delivered;
        } catch (const StatusError &e) {
            EXPECT_EQ(e.code(), StatusCode::ResourceExhausted);
            shed_indices.push_back(i);
        }
    }
    EXPECT_GT(session->stats().shedJobs, 0u);
    EXPECT_EQ(session->stats().shedJobs, shed_indices.size());
    EXPECT_EQ(service.stats().shedJobs, shed_indices.size());
    EXPECT_EQ(delivered + shed_indices.size(),
              static_cast<std::uint64_t>(kBatches));
    EXPECT_GT(delivered, 0u);
    // Shedding never quarantines: the jobs were never executed.
    EXPECT_EQ(service.stats().quarantinedKeys, 0u);
    EXPECT_EQ(service.ledger().stats().abandoned,
              shed_indices.size());

    // Back off and resubmit: the abandoned claims were released, so
    // every shed job now executes to its unfaulted result.
    installZeroPlan();
    for (int i : shed_indices) {
        const auto got =
            session->run(batches[static_cast<std::size_t>(i)]);
        ASSERT_EQ(got.size(), 1u);
        expectBitIdentical(got[0], refs[static_cast<std::size_t>(i)]);
    }
}

TEST(FaultTolerance, WorkerStallDegradesToInlineExecution)
{
    PlanGuard guard;
    const Workload w;
    const Batch batch = w.batch(512);
    const std::vector<Pmf> ref = idealReference(batch);

    // Every chunk's worker is "wedged": the service degrades to
    // inline execution on the submitting thread — same jobs, same
    // streams, same results.
    installPlan("worker_stall=1.0");
    IdealExecutor exec(3);
    ServiceConfig sc;
    sc.threads = 4;
    ExecutionService service(exec, sc);
    auto session = service.createSession();
    const auto got = session->run(batch);

    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        expectBitIdentical(got[i], ref[i]);
    // Every PRIMARY ran inline (duplicate submissions were answered
    // from the primaries' futures, as always).
    const SessionStats stats = session->stats();
    EXPECT_EQ(stats.inlineJobs, stats.cacheMisses);
    EXPECT_EQ(stats.inlineJobs + stats.cacheHits, batch.size());
    EXPECT_GT(fault::FaultInjector::instance()
                  .stats()
                  .injected[static_cast<int>(
                      fault::FaultSite::WorkerStall)],
              0u);
}

TEST(FaultTolerance, LateSubmitAfterShutdownExecutesInlineCounted)
{
    PlanGuard guard;
    installZeroPlan();
    const Workload w;
    const Batch batch = w.batch(512);
    const std::vector<Pmf> ref = idealReference(batch);

    installZeroPlan();
    IdealExecutor exec(3);
    ServiceConfig sc;
    sc.threads = 2;
    ExecutionService service(exec, sc);
    auto session = service.createSession();
    service.shutdown();

    // The late submission still yields identical results (inline on
    // this thread) — and, since this PR, is COUNTED instead of
    // falling over silently.
    const auto got = session->run(batch);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        expectBitIdentical(got[i], ref[i]);
    // Primaries ran inline and were counted; duplicates were
    // answered from their futures as usual.
    const SessionStats stats = session->stats();
    EXPECT_EQ(stats.inlineJobs, stats.cacheMisses);
    EXPECT_EQ(stats.inlineJobs + stats.cacheHits, batch.size());
    EXPECT_EQ(service.stats().inlineAfterShutdown,
              stats.inlineJobs);
    EXPECT_GT(service.stats().inlineAfterShutdown, 0u);
}

TEST(FaultTolerance, ShutdownUnderLoadWithFaultsResolvesAllFutures)
{
    PlanGuard guard;
    const Workload w;
    constexpr int kThreads = 4;
    constexpr int kBatchesPerThread = 6;

    // Fault-free references, one per distinct shot count.
    std::vector<std::vector<Pmf>> refs(
        static_cast<std::size_t>(kThreads * kBatchesPerThread));
    {
        installZeroPlan();
        IdealExecutor exec(3);
        RuntimeConfig rc;
        rc.threads = 1;
        auto runtime = makeSubmitter(exec, rc);
        for (int i = 0; i < kThreads * kBatchesPerThread; ++i)
            refs[static_cast<std::size_t>(i)] = runtime->run(
                w.batch(300 + static_cast<std::uint64_t>(i)));
    }

    // Real-time chaos: 20% transients (burst 2 < retries 5, so
    // every job converges), latency spikes, microsecond backoffs —
    // while the main thread shuts the service down mid-storm.
    installPlan("seed=9,exec_transient=0.2,latency_spike=0.5,"
                "latency_ns=100000,burst=2,retries=5,"
                "backoff_ns=1000,max_backoff_ns=8000");
    IdealExecutor exec(3);
    ServiceConfig sc;
    sc.threads = kThreads;
    ExecutionService service(exec, sc);

    std::vector<std::vector<Pmf>> got(refs.size());
    std::vector<std::exception_ptr> errors(refs.size());
    std::vector<std::thread> submitters;
    for (int t = 0; t < kThreads; ++t) {
        submitters.emplace_back([&, t] {
            auto session = service.createSession();
            for (int j = 0; j < kBatchesPerThread; ++j) {
                const int i = t * kBatchesPerThread + j;
                try {
                    got[static_cast<std::size_t>(i)] = session->run(
                        w.batch(300 + static_cast<std::uint64_t>(i)));
                } catch (...) {
                    errors[static_cast<std::size_t>(i)] =
                        std::current_exception();
                }
            }
        });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    service.shutdown();
    for (auto &thread : submitters)
        thread.join();

    // Every submission resolved to a value: no shed (queues are
    // unbounded here), no quarantine (burst < retries), shutdown
    // only moved late work inline. And every value is bit-identical
    // to the fault-free reference.
    for (std::size_t i = 0; i < refs.size(); ++i) {
        ASSERT_EQ(errors[i], nullptr) << "batch " << i;
        ASSERT_EQ(got[i].size(), refs[i].size()) << "batch " << i;
        for (std::size_t k = 0; k < refs[i].size(); ++k)
            expectBitIdentical(got[i][k], refs[i][k]);
    }
    EXPECT_EQ(service.stats().quarantinedKeys, 0u);
    EXPECT_EQ(service.stats().shedJobs, 0u);
}

TEST(FaultTolerance, SessionDestroyedWhileRetriesInFlight)
{
    PlanGuard guard;
    const Workload w;
    const Batch batch = w.batch(768);
    const std::vector<Pmf> ref = idealReference(batch);

    installPlan("seed=21,exec_transient=1.0,burst=2,retries=5,"
                "virtual_time=1");
    IdealExecutor exec(3);
    ServiceConfig sc;
    sc.threads = 2;
    ExecutionService service(exec, sc);
    auto session = service.createSession();
    auto futures = session->submit(batch);
    // Drop the session with the (retrying) work still in flight:
    // admitted tasks keep running and the futures stay valid — the
    // task closures capture shared batch storage, never the
    // session.
    session.reset();

    ASSERT_EQ(futures.size(), ref.size());
    for (std::size_t i = 0; i < futures.size(); ++i)
        expectBitIdentical(futures[i].get(), ref[i]);
    EXPECT_GT(exec.retriesPerformed(), 0u);
}

} // namespace
} // namespace varsaw
