/**
 * @file
 * Quickstart: mitigate measurement error for an H2 VQE run.
 *
 * Builds the exact 4-qubit H2 Hamiltonian, then runs three short
 * VQE optimizations on ONE simulated noisy device — unmitigated
 * baseline, JigSaw, and VarSaw — all submitting through sessions of
 * one shared ExecutionService (one scheduler, shared result/state
 * caches), and prints final energies, circuit costs, and the
 * service's sharing statistics.
 *
 *   $ ./quickstart [--cache-bytes=N] [--kernel-threads=N]
 *                  [--simd=scalar|avx2|avx512|auto]
 *                  [--service-threads=N] [--metrics-out=PATH]
 *                  [--trace-out=PATH]
 *
 * With --metrics-out (or VARSAW_METRICS_OUT) a JSON snapshot of the
 * process-wide telemetry registry is written at exit; --trace-out
 * dumps per-job spans as Chrome trace JSON. A short registry
 * summary prints either way when telemetry is enabled.
 *
 * --simd (or VARSAW_SIMD) forces a statevector kernel tier; the
 * default is the widest the CPU supports. Results are bit-identical
 * at every tier — the flag trades speed only.
 */

#include <cstdio>

#include "chem/exact_solver.hh"
#include "chem/molecules.hh"
#include "core/varsaw.hh"
#include "service/execution_service.hh"
#include "sim/sim_engine.hh"
#include "telemetry/exporters.hh"
#include "telemetry/metrics.hh"
#include "util/table.hh"
#include "vqa/vqe.hh"

using namespace varsaw;

int
main(int argc, char **argv)
{
    if (!applyRuntimeFlags(argc, argv))
        return 2;
    // 1. The problem: H2 ground-state energy estimation.
    Hamiltonian h = h2Sto3g();
    std::printf("workload: %s, %d qubits, %zu Pauli terms\n",
                h.name().c_str(), h.numQubits(), h.numTerms());
    const double reference = groundStateEnergy(h);
    std::printf("exact ground energy (Lanczos): %.6f Ha\n\n",
                reference);

    // 2. The ansatz and the simulated device.
    EfficientSU2 ansatz(AnsatzConfig{4, 2, Entanglement::Full});
    const DeviceModel device = DeviceModel::mumbai();
    std::printf("device: %s\n\n", device.summary().c_str());

    // 3. One backend + one shared execution service: every method
    // below submits through its own session of this service, so
    // they share one worker pool and one set of caches instead of
    // competing (results are bit-identical to private runtimes —
    // sharing only removes redundant work). Size with
    // --service-threads; the same workers also serve the
    // statevector kernels.
    NoisyExecutor exec(device, GateNoiseMode::AnalyticDepolarizing,
                       1);
    ExecutionService service(exec);
    std::printf("execution service: %d worker threads\n\n",
                service.threadCount());
    RuntimeConfig runtime;
    runtime.cacheResults = true;
    runtime.service = &service;

    const auto x0 = ansatz.initialParameters(42);
    const std::uint64_t budget = 8000;

    TablePrinter table("H2 VQE under a fixed budget of 8000 circuits");
    table.setHeader({"Method", "Iterations", "Final energy",
                     "Circuits"});

    auto report = [&](const char *label, VqeResult &res) {
        table.addRow({label,
                      TablePrinter::num(
                          static_cast<long long>(res.iterations)),
                      TablePrinter::num(res.bestEnergy, 4),
                      TablePrinter::num(
                          static_cast<long long>(res.circuitsUsed))});
    };

    VqeConfig vc;
    vc.maxIterations = 100000;
    vc.circuitBudget = budget;

    { // Unmitigated baseline.
        BaselineEstimator est(h, ansatz.circuit(), exec, 1024,
                              BasisMode::Cover,
                              ShotAllocation::Uniform, runtime);
        Spsa spsa;
        VqeDriver driver(est, spsa, &exec);
        VqeResult res = driver.run(x0, vc);
        report("Baseline (noisy)", res);
    }
    // Fence the methods' cost accounting: all three start from the
    // same x0 on one backend, so without this a later method could
    // be answered from an earlier method's cached circuits and
    // undercount against its 8000-circuit budget. Clearing cannot
    // change any result — only make each method pay its own way.
    service.clearSharedCaches();
    { // JigSaw-for-VQA.
        JigsawEstimator est(h, ansatz.circuit(), exec,
                            JigsawConfig{}, BasisMode::Cover,
                            runtime);
        Spsa spsa;
        VqeDriver driver(est, spsa, &exec);
        VqeResult res = driver.run(x0, vc);
        report("JigSaw", res);
    }
    service.clearSharedCaches();
    { // VarSaw (spatial + adaptive temporal).
        VarsawConfig config;
        config.subsetShots = 512;
        config.globalShots = 1024;
        config.runtime = runtime;
        VarsawEstimator est(h, ansatz.circuit(), exec, config);
        Spsa spsa;
        VqeDriver driver(est, spsa, &exec);
        VqeResult res = driver.run(x0, vc);
        report("VarSaw", res);
        std::printf("VarSaw spatial plan: %s\n",
                    est.plan().summary().c_str());
        std::printf("VarSaw global-execution fraction: %.3f\n\n",
                    est.scheduler().globalFraction());
    }

    table.print();

    const ServiceStats stats = service.stats();
    std::printf("\nshared service: %llu sessions, %llu jobs, "
                "%.1f%% dedupe hit rate (ledger fenced "
                "between methods so each pays its own budget; see "
                "subset_explorer / bench_runtime_scaling for "
                "cross-estimator dedupe)\n",
                static_cast<unsigned long long>(
                    stats.sessionsOpened),
                static_cast<unsigned long long>(
                    stats.jobsSubmitted),
                100.0 * stats.cache.hitRate());
    // The same numbers (and much more: state-cache residency,
    // scheduler latencies, per-session dedupe) are queryable from
    // the process-wide telemetry registry whenever it is enabled
    // (--metrics-out, VARSAW_TELEMETRY=1, ...).
    if (telemetry::metricsEnabled()) {
        const auto snap =
            telemetry::MetricsRegistry::instance().snapshot();
        std::printf(
            "\ntelemetry registry (%zu series): "
            "%.0f dedupe hits, %.0f prep sims, "
            "%.0f chunks executed\n",
            snap.metrics.size(),
            snap.value("runtime.ledger.dedupe_hits"),
            snap.value("sim.engine.prep_simulations"),
            snap.value("service.scheduler.chunks_executed"));
        if (!telemetry::metricsOutPath().empty())
            std::printf("metrics snapshot will be written to %s\n",
                        telemetry::metricsOutPath().c_str());
    }

    std::printf("\nreference (exact): %.4f Ha. VarSaw should land "
                "closest for the same budget.\n", reference);
    return 0;
}
