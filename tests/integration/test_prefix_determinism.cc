/**
 * @file
 * Property tests for the prefix-shared engine across the estimator
 * stack: on fixed-seed TFIM and H2 workloads, every estimator
 * (Baseline / JigSaw / VarSaw) must report bit-identical energies
 * across {prep cache on, off} x {1, 4, 8 threads} — prepared-state
 * sharing and worker placement change cost, never results — and the
 * cached runs must perform exactly one prep simulation per
 * (prefix, params) key.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "chem/molecules.hh"
#include "chem/spin_models.hh"
#include "core/varsaw.hh"
#include "mitigation/executor.hh"
#include "noise/device_model.hh"
#include "service/execution_service.hh"
#include "sim/kernels/kernels.hh"
#include "util/parallel.hh"
#include "vqa/ansatz.hh"
#include "vqa/estimator.hh"

namespace varsaw {
namespace {

struct Workload
{
    std::string name;
    Hamiltonian hamiltonian;
    EfficientSU2 ansatz;
    std::vector<double> x0;
};

std::vector<Workload>
workloads()
{
    std::vector<Workload> out;
    {
        EfficientSU2 ansatz(AnsatzConfig{5, 2, Entanglement::Linear});
        out.push_back({"tfim5", tfim(5, 1.0, 0.7), ansatz,
                       ansatz.initialParameters(3)});
    }
    {
        EfficientSU2 ansatz(AnsatzConfig{4, 2, Entanglement::Linear});
        out.push_back({"h2", h2Sto3g(), ansatz,
                       ansatz.initialParameters(3)});
    }
    return out;
}

/**
 * Evaluate one estimator flavor at three parameter points under the
 * given runtime config / cache mode and return the energy sequence.
 */
std::vector<double>
energySequence(const std::string &flavor, const Workload &w,
               int threads, bool prep_cache,
               std::uint64_t *prep_sims = nullptr)
{
    NoisyExecutor exec(
        DeviceModel::uniform(w.ansatz.config().numQubits, 0.02,
                             0.05),
        GateNoiseMode::AnalyticDepolarizing, 42);
    exec.simEngine().setCacheEnabled(prep_cache);

    RuntimeConfig runtime;
    runtime.threads = threads;

    // Three probe points: x0 and two deterministic perturbations.
    std::vector<std::vector<double>> points(3, w.x0);
    for (std::size_t i = 0; i < points[1].size(); ++i)
        points[1][i] += 0.1;
    for (std::size_t i = 0; i < points[2].size(); ++i)
        points[2][i] -= 0.05;

    std::vector<double> energies;
    const auto evaluate = [&](EnergyEstimator &est) {
        for (const auto &p : points)
            energies.push_back(est.estimate(p));
    };

    if (flavor == "baseline") {
        BaselineEstimator est(w.hamiltonian, w.ansatz.circuit(),
                              exec, 2048, BasisMode::Cover,
                              ShotAllocation::Uniform, runtime);
        evaluate(est);
    } else if (flavor == "jigsaw") {
        JigsawConfig config;
        config.globalShots = 2048;
        config.subsetShots = 1024;
        JigsawEstimator est(w.hamiltonian, w.ansatz.circuit(), exec,
                            config, BasisMode::Cover, runtime);
        evaluate(est);
    } else {
        VarsawConfig config;
        config.globalShots = 2048;
        config.subsetShots = 1024;
        config.runtime = runtime;
        VarsawEstimator est(w.hamiltonian, w.ansatz.circuit(), exec,
                            config);
        evaluate(est);
    }

    if (prep_sims)
        *prep_sims = exec.simEngine().stats().prepSimulations;
    return energies;
}

TEST(PrefixDeterminism, BitIdenticalAcrossCacheAndThreads)
{
    for (const Workload &w : workloads()) {
        for (const std::string flavor :
             {"baseline", "jigsaw", "varsaw"}) {
            const std::vector<double> reference =
                energySequence(flavor, w, 1, false);
            ASSERT_EQ(reference.size(), 3u);
            for (int threads : {1, 4, 8}) {
                for (bool cache : {false, true}) {
                    const auto got =
                        energySequence(flavor, w, threads, cache);
                    ASSERT_EQ(got.size(), reference.size());
                    for (std::size_t i = 0; i < got.size(); ++i)
                        EXPECT_EQ(got[i], reference[i])
                            << w.name << "/" << flavor
                            << " threads=" << threads
                            << " cache=" << cache << " point=" << i;
                }
            }
        }
    }
}

TEST(PrefixDeterminism, KernelThreadsNeverChangeResults)
{
    // Intra-kernel parallelism rides below everything the other
    // tests cover, so pin it at a width where it actually engages:
    // 17 qubits puts every sweep and pair kernel above the
    // kParallelEngage threshold. A prefix-shared evaluation (one
    // deep prep, several measurement suffixes) must be
    // bit-identical across {1, 4, 8} kernel threads x {cache
    // on/off} x {1, 4} batch threads x every SIMD tier the host
    // supports (setSimdTier, not VARSAW_SIMD — the env is read
    // once at startup).
    struct Guard
    {
        int saved = kernelThreads();
        kern::SimdTier tier = kern::activeSimdTier();
        ~Guard()
        {
            setKernelThreads(saved);
            kern::setSimdTier(tier);
        }
    } guard; // restores even when an ASSERT aborts the test body
    const int n = 17;
    EfficientSU2 ansatz(AnsatzConfig{n, 1, Entanglement::Linear});
    const auto params = ansatz.initialParameters(7);
    auto prep = std::make_shared<const Circuit>(ansatz.circuit());

    std::vector<Circuit> suffixes;
    for (int b = 0; b < 5; ++b) {
        PauliString basis(n);
        for (int q = 0; q < n; ++q)
            basis.setOp(q, static_cast<PauliOp>(1 + (q + b) % 3));
        Circuit suffix(n);
        suffix.appendBasisRotations(basis);
        suffix.measureAll();
        suffixes.push_back(std::move(suffix));
    }

    const auto evaluate = [&](int kernel_threads, bool cache,
                              int batch_threads) {
        setKernelThreads(kernel_threads);
        IdealExecutor exec(11);
        exec.simEngine().setCacheEnabled(cache);
        RuntimeConfig rc;
        rc.threads = batch_threads;
        auto runtime = makeSubmitter(exec, rc);
        Batch batch;
        for (const auto &suffix : suffixes)
            batch.addPrefixed(prep, suffix, params, 64);
        std::vector<double> flat;
        for (const auto &pmf : runtime->run(batch))
            for (std::uint64_t o = 0; o < 8; ++o)
                flat.push_back(pmf.prob(o));
        return flat;
    };

    // Reference: forced-scalar, serial, cached.
    kern::setSimdTier(kern::SimdTier::Scalar);
    const auto reference = evaluate(1, true, 1);
    const int max_tier =
        static_cast<int>(kern::maxSupportedSimdTier());
    for (int tier = 0; tier <= max_tier; ++tier) {
        kern::setSimdTier(static_cast<kern::SimdTier>(tier));
        for (const int kernel_threads : {1, 4, 8})
            for (const bool cache : {false, true})
                for (const int batch_threads : {1, 4}) {
                    const auto got = evaluate(kernel_threads, cache,
                                              batch_threads);
                    ASSERT_EQ(got.size(), reference.size());
                    for (std::size_t i = 0; i < got.size(); ++i)
                        EXPECT_EQ(got[i], reference[i])
                            << "simd="
                            << kern::simdTierName(
                                   static_cast<kern::SimdTier>(tier))
                            << " kernelThreads=" << kernel_threads
                            << " cache=" << cache
                            << " batchThreads=" << batch_threads
                            << " slot=" << i;
                }
    }
}

TEST(PrefixDeterminism, OnePrepPerParameterPointWhenCached)
{
    // Every estimator evaluates 3 parameter points over one fixed
    // ansatz: with the prep cache on, that is exactly 3 full
    // state-prep simulations, however many basis/subset/Global
    // circuits each tick fans out into.
    for (const Workload &w : workloads()) {
        for (const std::string flavor :
             {"baseline", "jigsaw", "varsaw"}) {
            std::uint64_t prep_sims = 0;
            energySequence(flavor, w, 4, true, &prep_sims);
            EXPECT_EQ(prep_sims, 3u) << w.name << "/" << flavor;
        }
    }
}

} // namespace
} // namespace varsaw
