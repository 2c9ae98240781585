/**
 * @file
 * Tests for makeSubmitter() sessions: the inline one-thread path,
 * submission-order determinism across thread counts, futures
 * plumbing, cost accounting, prefix-aware placement, and estimator
 * integration.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <mutex>
#include <thread>
#include <vector>

#include "chem/spin_models.hh"
#include "core/varsaw.hh"
#include "mitigation/jigsaw.hh"
#include "noise/device_model.hh"
#include "pauli/subsetting.hh"
#include "service/execution_service.hh"
#include "util/parallel.hh"
#include "vqa/ansatz.hh"
#include "vqa/estimator.hh"
#include "../util/pmf_equality.hh"

namespace varsaw {
namespace {

/**
 * A fixed-seed TFIM workload shaped like one VarSaw tick: every
 * basis's Global plus the shared subset circuits, with shots.
 */
Batch
tfimWorkload(const Hamiltonian &h, const Circuit &ansatz,
             const std::vector<double> &params)
{
    Batch batch;
    BasisReduction reduction = coverReduce(h.strings());
    for (const auto &basis : reduction.bases)
        batch.add(makeGlobalCircuit(ansatz, basis), params, 4096);
    for (const auto &basis : reduction.bases) {
        for (const auto &w : windowSubsets(basis, 2))
            batch.add(makeSubsetCircuit(ansatz, w), params, 2048);
    }
    return batch;
}

/** IdealExecutor that records the thread every job executes on. */
class ThreadRecordingExecutor : public IdealExecutor
{
  public:
    using IdealExecutor::IdealExecutor;

    std::vector<std::thread::id> threads() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return threads_;
    }

  protected:
    Pmf executeImpl(const JobView &job, Rng &rng) override
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            threads_.push_back(std::this_thread::get_id());
        }
        return IdealExecutor::executeImpl(job, rng);
    }

  private:
    mutable std::mutex mutex_;
    std::vector<std::thread::id> threads_;
};

/** Live threads of this process (/proc/self/task entries on Linux;
 * -1 where that is unavailable, which makes the check vacuous). */
long
processThreadCount()
{
#if defined(__linux__)
    long n = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator("/proc/self/task")) {
        (void)entry;
        ++n;
    }
    return n;
#else
    return -1;
#endif
}

TEST(Submitter, OneThreadRunsInlineOnTheCallingThread)
{
    // threads == 1: the private service has no scheduler. Every
    // primary executes on the submitting thread before submit()
    // returns, and building and using the submitter starts no
    // thread and registers no kernel-assist host.
    const long threads_before = processThreadCount();
    const int hosts_before = detail::kernelAssistHostCount();

    ThreadRecordingExecutor exec(5);
    RuntimeConfig config; // threads = 1
    config.cacheResults = true;
    auto session = makeSubmitter(exec, config);
    EXPECT_EQ(detail::kernelAssistHostCount(), hosts_before);
    EXPECT_EQ(session->service().threadCount(), 1);

    Batch batch;
    for (int rep = 0; rep < 2; ++rep) {
        for (int q = 0; q < 3; ++q) {
            Circuit c(3);
            c.x(q).h(q).measureAll();
            batch.add(c, {}, 128);
        }
    }
    auto futures = session->submit(batch);
    // Already executed: three primaries, three deduped repeats.
    EXPECT_EQ(exec.circuitsExecuted(), 3u);
    for (auto &future : futures)
        future.get();

    const auto ids = exec.threads();
    ASSERT_EQ(ids.size(), 3u);
    for (const auto &id : ids)
        EXPECT_EQ(id, std::this_thread::get_id());
    EXPECT_EQ(session->stats().inlineJobs, 3u);
    EXPECT_EQ(session->stats().cacheHits, 3u);
    EXPECT_EQ(session->service().stats().chunksExecuted, 0u);
    EXPECT_EQ(processThreadCount(), threads_before);
    EXPECT_EQ(detail::kernelAssistHostCount(), hosts_before);
}

TEST(Submitter, ParallelBitIdenticalToSerialOnTfim)
{
    const Hamiltonian h = tfim(4, 1.0, 0.7);
    EfficientSU2 ansatz(AnsatzConfig{4, 2, Entanglement::Linear});
    const auto params = ansatz.initialParameters(17);
    const DeviceModel device = DeviceModel::uniform(4, 0.02, 0.05);
    const Batch batch = tfimWorkload(h, ansatz.circuit(), params);
    ASSERT_GT(batch.size(), 4u);

    NoisyExecutor serial_exec(
        device, GateNoiseMode::AnalyticDepolarizing, 7);
    auto serial =
        makeSubmitter(serial_exec, RuntimeConfig{1, false, 64});
    const auto serial_results = serial->run(batch);

    NoisyExecutor parallel_exec(
        device, GateNoiseMode::AnalyticDepolarizing, 7);
    auto parallel =
        makeSubmitter(parallel_exec, RuntimeConfig{4, false, 64});
    const auto parallel_results = parallel->run(batch);

    ASSERT_EQ(serial_results.size(), parallel_results.size());
    for (std::size_t i = 0; i < serial_results.size(); ++i)
        expectBitIdentical(serial_results[i], parallel_results[i]);
}

TEST(Submitter, TrajectoryNoiseAlsoDeterministic)
{
    // The trajectory sampler consumes far more RNG than plain shot
    // sampling; it must be equally order-independent.
    const Hamiltonian h = tfim(3, 1.0, 0.5);
    EfficientSU2 ansatz(AnsatzConfig{3, 1, Entanglement::Linear});
    const auto params = ansatz.initialParameters(3);
    const DeviceModel device =
        DeviceModel::uniform(3, 0.01, 0.02, 0.0, 1e-3, 1e-2);
    const Batch batch = tfimWorkload(h, ansatz.circuit(), params);

    NoisyExecutor a(device, GateNoiseMode::PauliTrajectories, 9, 8);
    NoisyExecutor b(device, GateNoiseMode::PauliTrajectories, 9, 8);
    auto serial = makeSubmitter(a, RuntimeConfig{1, false, 64});
    auto parallel = makeSubmitter(b, RuntimeConfig{4, false, 64});

    const auto ra = serial->run(batch);
    const auto rb = parallel->run(batch);
    for (std::size_t i = 0; i < ra.size(); ++i)
        expectBitIdentical(ra[i], rb[i]);
}

TEST(Submitter, FuturesAlignWithJobIndices)
{
    IdealExecutor exec(1);
    auto runtime = makeSubmitter(exec, RuntimeConfig{2, false, 64});

    // Distinguishable jobs: job i prepares |1> on qubit i of 3.
    Batch batch;
    for (int q = 0; q < 3; ++q) {
        Circuit c(3);
        c.x(q).measureAll();
        batch.add(c, {}, 0);
    }
    auto futures = runtime->submit(batch);
    ASSERT_EQ(futures.size(), 3u);
    for (int q = 0; q < 3; ++q) {
        Pmf pmf = futures[static_cast<std::size_t>(q)].get();
        EXPECT_DOUBLE_EQ(pmf.prob(1ull << q), 1.0);
    }
}

TEST(Submitter, CountsCircuitsAndShotsExactly)
{
    IdealExecutor exec(1);
    auto runtime = makeSubmitter(exec, RuntimeConfig{4, false, 64});
    Circuit c(2);
    c.h(0).cx(0, 1).measureAll();

    Batch batch;
    for (int i = 0; i < 64; ++i)
        batch.add(c, {}, 100 + static_cast<std::uint64_t>(i));
    runtime->run(batch);

    EXPECT_EQ(exec.circuitsExecuted(), 64u);
    EXPECT_EQ(exec.shotsExecuted(), batch.totalShots());
    EXPECT_EQ(runtime->jobsSubmitted(), 64u);
}

TEST(Submitter, EmptyBatchIsANoop)
{
    IdealExecutor exec(1);
    auto runtime = makeSubmitter(exec, RuntimeConfig{});
    EXPECT_TRUE(runtime->run(Batch{}).empty());
    EXPECT_EQ(exec.circuitsExecuted(), 0u);
}

TEST(Submitter, CacheDedupesIdenticalJobsWithinABatch)
{
    IdealExecutor exec(1);
    RuntimeConfig config;
    config.threads = 1;
    config.cacheResults = true;
    auto runtime = makeSubmitter(exec, config);

    Circuit c(2);
    c.h(0).cx(0, 1).measureAll();
    Batch batch;
    for (int i = 0; i < 10; ++i)
        batch.add(c, {}, 256);
    const auto results = runtime->run(batch);

    EXPECT_EQ(exec.circuitsExecuted(), 1u);
    EXPECT_EQ(runtime->cacheStats().hits, 9u);
    EXPECT_EQ(runtime->cacheStats().shotsSaved, 9u * 256u);
    for (std::size_t i = 1; i < results.size(); ++i)
        expectBitIdentical(results[0], results[i]);
}

TEST(Submitter, CachedDuplicatesDeterministicUnderThreads)
{
    // With the cache on, only the first submission of a key ever
    // executes — duplicates wait on its future — so results AND
    // cost counters are identical between serial and parallel runs
    // even when duplicates hit a cold cache.
    Circuit c(3);
    c.h(0).cx(0, 1).cx(1, 2).measureAll();
    Batch batch;
    for (int i = 0; i < 32; ++i)
        batch.add(c, {}, 512);

    IdealExecutor serial_exec(3);
    RuntimeConfig serial_config;
    serial_config.threads = 1;
    serial_config.cacheResults = true;
    auto serial = makeSubmitter(serial_exec, serial_config);
    const auto serial_results = serial->run(batch);

    IdealExecutor parallel_exec(3);
    RuntimeConfig parallel_config;
    parallel_config.threads = 4;
    parallel_config.cacheResults = true;
    auto parallel = makeSubmitter(parallel_exec, parallel_config);
    const auto parallel_results = parallel->run(batch);

    for (std::size_t i = 0; i < parallel_results.size(); ++i)
        expectBitIdentical(serial_results[0], parallel_results[i]);
    EXPECT_EQ(serial_exec.circuitsExecuted(), 1u);
    EXPECT_EQ(parallel_exec.circuitsExecuted(), 1u);
    EXPECT_EQ(parallel->cacheStats().hits, 31u);
}

TEST(PrefixScheduler, GroupsCompareFullKeysNotDigests)
{
    // mix64(a, b) finalizes a + phi * (b + 1), so {s, p} and
    // {s + phi, p - 1} have identical combined() digests while
    // being different prep identities. The scheduler groups by full
    // PrepKey: the colliding pair must land in two groups (they may
    // share a hash bucket, never a group), while equal keys
    // serialize into one group in submission order.
    constexpr std::uint64_t kPhi = 0x9E3779B97F4A7C15ull;
    const PrepKey a{123, 456};
    const PrepKey collides_with_a{123 + kPhi, 455};
    const PrepKey b{777, 888};
    ASSERT_EQ(a.combined(), collides_with_a.combined());
    ASSERT_FALSE(a == collides_with_a);

    const auto groups =
        groupByPrepKey({a, b, collides_with_a, a, b, a});
    ASSERT_EQ(groups.size(), 3u);
    // First-appearance order of groups, submission order within.
    EXPECT_EQ(groups[0], (std::vector<std::size_t>{0, 3, 5})); // a
    EXPECT_EQ(groups[1], (std::vector<std::size_t>{1, 4}));    // b
    EXPECT_EQ(groups[2], (std::vector<std::size_t>{2})); // collider
}

TEST(PrefixScheduler, MultiPrepBatchDeterministicAcrossPlacement)
{
    // Several distinct preps (distinct group keys) in one batch:
    // results must be bit-identical however many service workers
    // the prefix-aware scheduler places them across, and each prep
    // must still be simulated exactly once.
    const int qubits = 4;
    const std::vector<PauliString> bases = {
        PauliString::parse("XYZX"), PauliString::parse("ZZXX"),
        PauliString::parse("YXYZ")};
    std::vector<std::shared_ptr<const Circuit>> preps;
    std::vector<std::vector<double>> prep_params;
    for (int depth : {1, 2, 3}) {
        EfficientSU2 ansatz(
            AnsatzConfig{qubits, depth, Entanglement::Linear});
        preps.push_back(
            std::make_shared<const Circuit>(ansatz.circuit()));
        prep_params.push_back(ansatz.initialParameters(7));
    }
    Batch batch;
    for (std::size_t p = 0; p < preps.size(); ++p)
        for (const auto &basis : bases)
            batch.addPrefixed(preps[p], makeGlobalSuffix(basis),
                              prep_params[p], 512);

    // Inline reference: no placement at all.
    IdealExecutor ref_exec(23);
    const auto reference =
        makeSubmitter(ref_exec, RuntimeConfig{})->run(batch);
    EXPECT_EQ(ref_exec.simEngine().stats().prepSimulations,
              preps.size());

    // Placement really differs across the worker counts: one chunk
    // per prep while preps >= workers, split groups beyond.
    const auto keys = prepKeysOf(batch.jobs());
    EXPECT_EQ(prefixScheduleIndexChunks(keys, 1).size(),
              preps.size());
    EXPECT_GT(prefixScheduleIndexChunks(keys, 4).size(),
              preps.size());

    for (int workers : {1, 2, 4}) {
        IdealExecutor exec(23);
        ServiceConfig sc;
        sc.threads = workers;
        sc.cacheResults = false;
        ExecutionService service(exec, sc);
        const auto got = service.createSession()->run(batch);
        EXPECT_EQ(exec.simEngine().stats().prepSimulations,
                  preps.size())
            << workers;
        ASSERT_EQ(got.size(), reference.size());
        for (std::size_t i = 0; i < got.size(); ++i)
            expectBitIdentical(reference[i], got[i]);
    }
}

TEST(VarsawEstimator, EnergyIdenticalAcrossThreadCounts)
{
    const Hamiltonian h = tfim(4, 1.0, 0.7);
    EfficientSU2 ansatz(AnsatzConfig{4, 2, Entanglement::Linear});
    const auto params = ansatz.initialParameters(21);
    const DeviceModel device = DeviceModel::uniform(4, 0.03, 0.06);

    auto energy = [&](int threads) {
        NoisyExecutor exec(device,
                           GateNoiseMode::AnalyticDepolarizing, 13);
        VarsawConfig config;
        config.subsetShots = 1024;
        config.globalShots = 2048;
        config.runtime.threads = threads;
        VarsawEstimator est(h, ansatz.circuit(), exec, config);
        return est.estimate(params);
    };
    EXPECT_DOUBLE_EQ(energy(1), energy(4));
}

TEST(JigsawEstimator, EnergyIdenticalAcrossThreadCounts)
{
    const Hamiltonian h = tfim(4, 1.0, 0.7);
    EfficientSU2 ansatz(AnsatzConfig{4, 1, Entanglement::Linear});
    const auto params = ansatz.initialParameters(29);
    const DeviceModel device = DeviceModel::uniform(4, 0.03, 0.06);

    auto energy = [&](int threads) {
        NoisyExecutor exec(device,
                           GateNoiseMode::AnalyticDepolarizing, 13);
        JigsawConfig config;
        config.subsetShots = 512;
        config.globalShots = 1024;
        RuntimeConfig runtime;
        runtime.threads = threads;
        JigsawEstimator est(h, ansatz.circuit(), exec, config,
                            BasisMode::Cover, runtime);
        return est.estimate(params);
    };
    EXPECT_DOUBLE_EQ(energy(1), energy(4));
}

TEST(BaselineEstimator, EnergyIdenticalAcrossThreadCounts)
{
    const Hamiltonian h = tfim(4, 1.0, 0.7);
    EfficientSU2 ansatz(AnsatzConfig{4, 2, Entanglement::Linear});
    const auto params = ansatz.initialParameters(21);

    auto energy = [&](int threads) {
        IdealExecutor exec(99);
        RuntimeConfig runtime;
        runtime.threads = threads;
        BaselineEstimator est(h, ansatz.circuit(), exec, 4096,
                              BasisMode::Cover,
                              ShotAllocation::Uniform, runtime);
        return est.estimate(params);
    };
    EXPECT_DOUBLE_EQ(energy(1), energy(4));
}

} // namespace
} // namespace varsaw
