/**
 * @file
 * Unit tests for the dedupe ledger: claim order decides primary vs
 * duplicate, key separation, claim-time LRU eviction, statistics,
 * and end-to-end transparency on workloads without duplicate
 * submissions.
 */

#include <gtest/gtest.h>

#include "chem/spin_models.hh"
#include "core/varsaw.hh"
#include "noise/device_model.hh"
#include "service/job_ledger.hh"
#include "vqa/ansatz.hh"

namespace varsaw {
namespace {

Pmf
pointMass(int bits, std::uint64_t outcome)
{
    Pmf pmf(bits);
    pmf.set(outcome, 1.0);
    return pmf;
}

CircuitJob
tfimJob(double theta, std::uint64_t shots)
{
    Circuit c(2);
    c.ry(0, theta).cx(0, 1).measureAll();
    return {c, {}, shots, nullptr};
}

/**
 * Claim @p key; a primary publishes @p result at once (as if it
 * executed). Returns whether the claim was a duplicate.
 */
bool
claimOrPublish(JobLedger &ledger, const JobKey &key,
               const Pmf &result = Pmf(2))
{
    auto claim = ledger.claim(key, key.shots);
    if (claim.duplicate())
        return true;
    claim.publish->set_value(result);
    return false;
}

TEST(JobLedger, MissThenHit)
{
    JobLedger ledger(8);
    const JobKey key = makeJobKey(tfimJob(0.3, 1024));

    auto primary = ledger.claim(key, key.shots);
    ASSERT_FALSE(primary.duplicate());
    primary.publish->set_value(pointMass(2, 0b11));
    auto hit = ledger.claim(key, key.shots);
    ASSERT_TRUE(hit.duplicate());
    EXPECT_DOUBLE_EQ(
        JobLedger::deferToPrimary(std::move(hit)).get().prob(0b11),
        1.0);

    const CacheStats stats = ledger.cacheStats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.circuitsSaved, 1u);
    EXPECT_EQ(stats.shotsSaved, 1024u);
    EXPECT_DOUBLE_EQ(stats.hitRate(), 0.5);
}

TEST(JobLedger, DistinctParamsAndShotsNeverCollide)
{
    JobLedger ledger(8);
    EXPECT_FALSE(
        claimOrPublish(ledger, makeJobKey(tfimJob(0.3, 1024))));

    // Different angle, different shot count, and a different circuit
    // must all be fresh primaries.
    EXPECT_FALSE(
        claimOrPublish(ledger, makeJobKey(tfimJob(0.31, 1024))));
    EXPECT_FALSE(
        claimOrPublish(ledger, makeJobKey(tfimJob(0.3, 2048))));
    Circuit other(2);
    other.ry(0, 0.3).cx(1, 0).measureAll();
    EXPECT_FALSE(claimOrPublish(
        ledger, makeJobKey(CircuitJob{other, {}, 1024, nullptr})));

    // The original is still a duplicate.
    EXPECT_TRUE(
        claimOrPublish(ledger, makeJobKey(tfimJob(0.3, 1024))));
}

TEST(JobLedger, SymbolicParamsKeyedByValues)
{
    Circuit c(1);
    c.ryParam(0, 0).measureAll();
    JobLedger ledger(8);
    EXPECT_FALSE(claimOrPublish(
        ledger, makeJobKey(CircuitJob{c, {0.5}, 64, nullptr})));
    EXPECT_TRUE(claimOrPublish(
        ledger, makeJobKey(CircuitJob{c, {0.5}, 64, nullptr})));
    EXPECT_FALSE(claimOrPublish(
        ledger, makeJobKey(CircuitJob{c, {0.6}, 64, nullptr})));
}

TEST(JobLedger, LruEvictionRespectsCap)
{
    JobLedger ledger(2);
    const JobKey k1 = makeJobKey(tfimJob(0.1, 1));
    const JobKey k2 = makeJobKey(tfimJob(0.2, 1));
    const JobKey k3 = makeJobKey(tfimJob(0.3, 1));
    claimOrPublish(ledger, k1);
    claimOrPublish(ledger, k2);
    claimOrPublish(ledger, k3);

    EXPECT_EQ(ledger.size(), 2u);
    EXPECT_EQ(ledger.stats().evictions, 1u);
    EXPECT_TRUE(claimOrPublish(ledger, k2));
    EXPECT_TRUE(claimOrPublish(ledger, k3));
    // The least recently claimed key was the one evicted.
    EXPECT_FALSE(claimOrPublish(ledger, k1));
}

TEST(JobLedger, HotKeySurvivesEviction)
{
    // LRU, not FIFO: a VQA loop re-claims the same keys every
    // iteration, and those hot keys must outlive colder claims even
    // though they were claimed first.
    JobLedger ledger(2);
    const JobKey hot = makeJobKey(tfimJob(0.1, 1));
    const JobKey cold = makeJobKey(tfimJob(0.2, 1));
    const JobKey fresh = makeJobKey(tfimJob(0.3, 1));
    claimOrPublish(ledger, hot);
    claimOrPublish(ledger, cold);

    // Touch the oldest claim, then push past the cap: the untouched
    // key is the victim, not the oldest one.
    EXPECT_TRUE(claimOrPublish(ledger, hot));
    EXPECT_FALSE(claimOrPublish(ledger, fresh));

    EXPECT_EQ(ledger.stats().evictions, 1u);
    EXPECT_TRUE(claimOrPublish(ledger, hot));
    EXPECT_TRUE(claimOrPublish(ledger, fresh));

    // Re-claiming every "iteration" keeps the hot key resident
    // across any number of one-shot claims.
    for (double theta : {0.4, 0.5, 0.6}) {
        EXPECT_TRUE(claimOrPublish(ledger, hot)) << theta;
        EXPECT_FALSE(
            claimOrPublish(ledger, makeJobKey(tfimJob(theta, 1))));
        EXPECT_EQ(ledger.size(), 2u);
    }
    EXPECT_TRUE(claimOrPublish(ledger, hot));
    // The cold key went long ago: claiming it again is a fresh miss.
    EXPECT_FALSE(claimOrPublish(ledger, cold));
}

TEST(JobLedger, ClearDropsEntriesKeepsStats)
{
    JobLedger ledger(8);
    const JobKey key = makeJobKey(tfimJob(0.3, 8));
    claimOrPublish(ledger, key);
    EXPECT_TRUE(claimOrPublish(ledger, key));
    ledger.clear();
    EXPECT_EQ(ledger.size(), 0u);
    EXPECT_EQ(ledger.cacheStats().hits, 1u);
    // Cleared: the next claim executes again.
    EXPECT_FALSE(claimOrPublish(ledger, key));
    EXPECT_EQ(ledger.cacheStats().misses, 2u);
}

/**
 * Dedupe-on vs dedupe-off on one VarSaw TFIM tick: the reported
 * energy is identical, while the ledger removes the tick's genuine
 * runtime-level redundancy — the Z-type bases all compile to the
 * same fully-measured Global circuit (I and Z need no rotation
 * gates), so only one of them actually executes.
 *
 * The energy match is exact because with window size 2 every TFIM
 * basis has a single window, so reconstruction pins each term's
 * marginal to the shared subset locals and the (deduped) Global
 * samples cancel out of the energy.
 */
TEST(JobLedger, VarsawTickIdenticalWithDedupeOnAndOff)
{
    const Hamiltonian h = tfim(4, 1.0, 0.7);
    EfficientSU2 ansatz(AnsatzConfig{4, 2, Entanglement::Linear});
    const auto params = ansatz.initialParameters(33);
    const DeviceModel device = DeviceModel::uniform(4, 0.03, 0.06);

    struct Tick
    {
        double energy;
        std::uint64_t circuits;
        CacheStats stats;
    };
    auto tick = [&](bool cache_on) {
        NoisyExecutor exec(device,
                           GateNoiseMode::AnalyticDepolarizing, 11);
        VarsawConfig config;
        config.subsetShots = 2048;
        config.globalShots = 4096;
        config.runtime.cacheResults = cache_on;
        VarsawEstimator est(h, ansatz.circuit(), exec, config);
        const double energy = est.estimate(params);
        return Tick{energy, exec.circuitsExecuted(),
                    est.runtime().cacheStats()};
    };

    const Tick off = tick(false);
    const Tick on = tick(true);
    EXPECT_DOUBLE_EQ(off.energy, on.energy);
    EXPECT_EQ(off.stats.hits, 0u); // dedupe off: never consulted
    // Dedupe on: the duplicate Z-basis Globals are answered by the
    // ledger, and only those.
    EXPECT_GT(on.stats.hits, 0u);
    EXPECT_EQ(on.circuits + on.stats.circuitsSaved, off.circuits);
}

/** Re-evaluating at identical parameters is answered by the ledger. */
TEST(JobLedger, RepeatedVarsawTickIsAnsweredByTheLedger)
{
    const Hamiltonian h = tfim(4, 1.0, 0.7);
    EfficientSU2 ansatz(AnsatzConfig{4, 2, Entanglement::Linear});
    const auto params = ansatz.initialParameters(33);

    IdealExecutor exec(5);
    VarsawConfig config;
    config.subsetShots = 512;
    config.globalShots = 1024;
    config.runtime.cacheResults = true;
    VarsawEstimator est(h, ansatz.circuit(), exec, config);

    est.estimate(params);
    const std::uint64_t circuits_first = exec.circuitsExecuted();
    ASSERT_GT(circuits_first, 0u);

    est.estimate(params); // same params: every job repeats
    const CacheStats stats = est.runtime().cacheStats();
    EXPECT_GT(stats.hits, 0u);
    EXPECT_EQ(stats.circuitsSaved, stats.hits);
    // Every tick-2 submission was answered by the ledger: the backend
    // executed nothing new.
    EXPECT_EQ(exec.circuitsExecuted(), circuits_first);
}

} // namespace
} // namespace varsaw
