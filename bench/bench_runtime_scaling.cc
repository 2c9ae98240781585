/**
 * @file
 * Runtime scaling, in three parts.
 *
 * Part 1 — batched-execution throughput (circuits/sec) and
 * dedupe hit rate vs worker thread count {1, 2, 4, 8} on a
 * fig8-style TFIM workload (per-tick VarSaw batches: shared subset
 * circuits plus one Global per reduced basis, repeated over
 * optimizer-style parameter points with SPSA-like double probes).
 * Expected shape: near-linear throughput scaling up to the physical
 * core count, identical energies at every thread count, and a cache
 * hit rate reflecting the workload's redundancy.
 *
 * Part 2 — shared service vs per-estimator runtimes: two concurrent
 * estimators (VarSaw + Baseline) over ONE overlapping Hamiltonian
 * evaluate the same optimizer trajectory from two client threads,
 * once on private per-estimator sessions (split thread budget,
 * one private service each) and once as sessions of one shared
 * ExecutionService (shared scheduler + shared ledger). Every
 * per-tick Global circuit is identical work in the two estimators,
 * so the service's cross-session dedupe executes it once.
 * Expected shape: identical (bit-for-bit) summed energies in both
 * modes, nonzero cross-session hits, fewer backend executions and
 * lower wall time for the shared mode. CSV: bench_runtime_scaling.csv (part 1) and
 * bench_runtime_scaling_shared.csv (part 2).
 *
 * Part 3 — graceful degradation under injected faults: the part-1
 * workload re-runs at 4 threads under seeded fault plans with
 * transient-failure rates {0, 1%, 5%, 20%} (plus latency spikes at
 * half the rate, burst 2 < 5 retries, so every job converges
 * through the bounded retry loop). Expected shape: wall time
 * degrades smoothly with the fault rate while result checksums AND
 * executed-circuit counts stay EXACTLY constant — injected
 * transients fail before the backend runs, and the surviving
 * attempt samples the same content-derived stream as a fault-free
 * run. CSV: bench_runtime_scaling_faults.csv, including the
 * service.retries / service.faults.* registry deltas per rate.
 *
 * VARSAW_BENCH_CHECK=1 gates part 2 (cross-session hits > 0 and
 * bit-identical energies between the modes) and part 3 (checksums
 * and cost counters identical across every fault rate; retries
 * observed at the highest rate; registry retry counter equal to the
 * executor's own count).
 *
 * Knobs: VARSAW_BENCH_TICKS (parameter points), VARSAW_BENCH_SHOTS,
 * VARSAW_FAULT_SEED (part-3 fault plan seed).
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "common.hh"
#include "chem/spin_models.hh"
#include "core/varsaw.hh"
#include "fault/fault_injector.hh"
#include "mitigation/jigsaw.hh"
#include "noise/device_model.hh"
#include "pauli/subsetting.hh"
#include "service/execution_service.hh"
#include "telemetry/metrics.hh"
#include "util/csv.hh"
#include "vqa/ansatz.hh"
#include "vqa/estimator.hh"

using namespace varsaw;
using namespace varsaw::bench;

namespace {

/** One VarSaw-tick batch: shared subsets + per-basis Globals. */
Batch
tickBatch(const SpatialPlan &plan, const Circuit &ansatz,
          const std::vector<double> &params, std::uint64_t shots)
{
    Batch batch;
    batch.reserve(plan.executedSubsets.size() +
                  plan.bases.bases.size());
    for (const auto &subset : plan.executedSubsets)
        batch.add(makeSubsetCircuit(ansatz, subset), params, shots);
    for (const auto &basis : plan.bases.bases)
        batch.add(makeGlobalCircuit(ansatz, basis), params,
                  2 * shots);
    return batch;
}

struct Measurement
{
    int threads = 0;
    double seconds = 0.0;
    std::uint64_t circuitsSubmitted = 0;
    std::uint64_t circuitsExecuted = 0;
    std::uint64_t retries = 0; //!< retry attempts absorbed (part 3)
    double hitRate = 0.0;
    double checksum = 0.0; //!< sum over all result PMFs, for identity
};

Measurement
measure(int threads, const SpatialPlan &plan, const Circuit &ansatz,
        const std::vector<std::vector<double>> &points,
        std::uint64_t shots, const DeviceModel &device)
{
    NoisyExecutor exec(device, GateNoiseMode::AnalyticDepolarizing,
                       1234);
    RuntimeConfig config;
    config.threads = threads;
    config.cacheResults = true;
    auto runtime = makeSubmitter(exec, config);

    Measurement m;
    m.threads = threads;
    Stopwatch watch;
    for (const auto &params : points) {
        // SPSA-style double probe: the second evaluation at the same
        // point is pure temporal redundancy for the cache.
        for (int probe = 0; probe < 2; ++probe) {
            const auto results =
                runtime->run(tickBatch(plan, ansatz, params, shots));
            for (const auto &pmf : results)
                m.checksum += pmf.prob(0);
        }
    }
    m.seconds = watch.seconds();
    m.circuitsSubmitted = runtime->jobsSubmitted();
    m.circuitsExecuted = exec.circuitsExecuted();
    m.retries = exec.retriesPerformed();
    m.hitRate = runtime->cacheStats().hitRate();
    return m;
}

/** Part 2: one mode's measurement. */
struct SharedModeResult
{
    double seconds = 0.0;
    std::uint64_t circuitsExecuted = 0;
    std::uint64_t crossSessionHits = 0;
    double varsawEnergySum = 0.0;
    double baselineEnergySum = 0.0;
    /** Delta of the service.cross_session_hits registry counter
     * over the run — must agree with crossSessionHits (the
     * SessionStats-derived number) when metrics are on. */
    std::uint64_t metricCrossSessionHits = 0;
};

/** Current value of a registry counter (0 when absent). */
std::uint64_t
counterValue(const char *name)
{
    return static_cast<std::uint64_t>(
        telemetry::MetricsRegistry::instance().snapshot().value(
            name));
}

/**
 * Run the two-estimator workload in one mode. @p shared routes both
 * estimators onto sessions of one ExecutionService with
 * @p total_threads workers; otherwise each gets a private session
 * with half the thread budget. One backend executor
 * (fixed seed) either way, so the content-derived streams make the
 * energies bit-identical across modes.
 */
SharedModeResult
measureSharedMode(bool shared, int total_threads,
                  const Hamiltonian &h, const Circuit &ansatz,
                  const std::vector<std::vector<double>> &points,
                  std::uint64_t shots, const DeviceModel &device)
{
    NoisyExecutor exec(device, GateNoiseMode::AnalyticDepolarizing,
                       4321);
    std::unique_ptr<ExecutionService> service;
    if (shared) {
        ServiceConfig sc;
        sc.threads = total_threads;
        service = std::make_unique<ExecutionService>(exec, sc);
    }

    VarsawConfig vconfig;
    vconfig.subsetShots = shots;
    vconfig.globalShots = 2 * shots;
    vconfig.runtime.cacheResults = true;
    vconfig.runtime.threads =
        shared ? 1 : std::max(1, total_threads / 2);
    vconfig.runtime.service = service.get();
    VarsawEstimator varsaw(h, ansatz, exec, vconfig);
    // Baseline at the Global shot count: its per-basis circuits are
    // the exact jobs VarSaw's Global ticks submit.
    BaselineEstimator baseline(h, ansatz, exec, 2 * shots,
                               BasisMode::Cover,
                               ShotAllocation::Uniform,
                               vconfig.runtime);

    SharedModeResult m;
    const std::uint64_t metric_hits_before =
        counterValue("service.cross_session_hits");
    Stopwatch watch;
    std::thread varsaw_client([&] {
        for (const auto &params : points)
            m.varsawEnergySum += varsaw.estimate(params);
    });
    std::thread baseline_client([&] {
        for (const auto &params : points)
            m.baselineEnergySum += baseline.estimate(params);
    });
    varsaw_client.join();
    baseline_client.join();
    m.seconds = watch.seconds();
    m.circuitsExecuted = exec.circuitsExecuted();
    if (service) {
        m.crossSessionHits = service->stats().crossSessionHits;
        m.metricCrossSessionHits =
            counterValue("service.cross_session_hits") -
            metric_hits_before;
    }
    return m;
}

void
runSharedServiceComparison(int total_threads, const Hamiltonian &h,
                           const Circuit &ansatz,
                           const std::vector<std::vector<double>>
                               &points,
                           std::uint64_t shots,
                           const DeviceModel &device)
{
    std::printf("\nshared service vs per-estimator runtimes "
                "(2 concurrent estimators, %d total threads)\n",
                total_threads);

    const SharedModeResult priv = measureSharedMode(
        false, total_threads, h, ansatz, points, shots, device);
    const SharedModeResult shared = measureSharedMode(
        true, total_threads, h, ansatz, points, shots, device);

    TablePrinter table("Cross-estimator dedupe through one service");
    table.setHeader({"Mode", "Seconds", "Executed", "Cross hits",
                     "Speedup"});
    CsvWriter csv(outPath("bench_runtime_scaling_shared.csv"));
    csv.writeRow({"shared_mode", "threads", "seconds",
                  "circuits_executed", "cross_session_hits",
                  "varsaw_energy_sum", "baseline_energy_sum",
                  "speedup_vs_private"});
    auto emit = [&](const char *mode, bool is_shared,
                    const SharedModeResult &m) {
        const double speedup =
            m.seconds > 0.0 ? priv.seconds / m.seconds : 1.0;
        table.addRow(
            {mode, TablePrinter::num(m.seconds, 3),
             TablePrinter::num(
                 static_cast<long long>(m.circuitsExecuted)),
             TablePrinter::num(
                 static_cast<long long>(m.crossSessionHits)),
             TablePrinter::ratio(speedup)});
        csv.writeNumericRow(
            {is_shared ? 1.0 : 0.0,
             static_cast<double>(total_threads), m.seconds,
             static_cast<double>(m.circuitsExecuted),
             static_cast<double>(m.crossSessionHits),
             m.varsawEnergySum, m.baselineEnergySum, speedup});
    };
    emit("private", false, priv);
    emit("shared", true, shared);
    table.print();

    const bool identical =
        priv.varsawEnergySum == shared.varsawEnergySum &&
        priv.baselineEnergySum == shared.baselineEnergySum;
    std::printf("energies bit-identical across modes: %s\n",
                identical ? "yes" : "NO");
    std::printf("shared-mode executions saved: %lld\n",
                static_cast<long long>(priv.circuitsExecuted) -
                    static_cast<long long>(
                        shared.circuitsExecuted));

    const char *check = std::getenv("VARSAW_BENCH_CHECK");
    if (check && check[0] == '1') {
        if (!identical) {
            std::fprintf(stderr,
                         "CHECK FAILED: shared-service energies "
                         "differ from private-runtime energies\n");
            std::exit(1);
        }
        if (shared.crossSessionHits == 0) {
            std::fprintf(stderr,
                         "CHECK FAILED: no cross-session cache "
                         "hits on an overlapping workload\n");
            std::exit(1);
        }
        if (shared.circuitsExecuted >= priv.circuitsExecuted) {
            std::fprintf(stderr,
                         "CHECK FAILED: shared mode executed no "
                         "fewer circuits than private mode\n");
            std::exit(1);
        }
        // The registry mirrors SessionStats at the same accounting
        // point, so the counter delta over the shared run must equal
        // the service's own number exactly (benches force metrics on
        // in parseStandardArgs).
        if (telemetry::metricsEnabled() &&
            shared.metricCrossSessionHits !=
                shared.crossSessionHits) {
            std::fprintf(
                stderr,
                "CHECK FAILED: registry cross-session hits (%llu) "
                "!= SessionStats cross-session hits (%llu)\n",
                static_cast<unsigned long long>(
                    shared.metricCrossSessionHits),
                static_cast<unsigned long long>(
                    shared.crossSessionHits));
            std::exit(1);
        }
        std::printf("CHECK PASSED: cross-session dedupe active, "
                    "energies bit-identical, telemetry counter "
                    "matches SessionStats\n");
    }
}

/**
 * Part 3: re-run the part-1 workload at a fixed thread count under
 * seeded fault plans of increasing severity and verify graceful
 * degradation — checksums and executed-circuit counts must be
 * EXACTLY those of the fault-free run, with only wall time and the
 * retry/fault counters allowed to move. Saves and restores the
 * process-wide plan, so an externally armed VARSAW_FAULTS (the
 * chaos CI job) is back in force after the sweep.
 */
void
runFaultRateSweep(int threads, const SpatialPlan &plan,
                  const Circuit &ansatz,
                  const std::vector<std::vector<double>> &points,
                  std::uint64_t shots, const DeviceModel &device)
{
    auto &inj = fault::FaultInjector::instance();
    const fault::FaultPlan ambient = inj.plan();
    const auto fault_seed = static_cast<std::uint64_t>(
        envInt("VARSAW_FAULT_SEED", 7));

    std::printf("\nfault-rate sweep (%d threads, fault seed %llu)\n",
                threads,
                static_cast<unsigned long long>(fault_seed));

    struct SweepRow
    {
        double rate = 0.0;
        Measurement m;
        std::uint64_t faultsInjected = 0;
        std::uint64_t metricRetries = 0;
    };
    std::vector<SweepRow> rows;
    for (double rate : {0.0, 0.01, 0.05, 0.20}) {
        fault::FaultPlan fp;
        fp.seed = fault_seed;
        fp.executorTransientRate = rate;
        fp.latencySpikeRate = rate / 2.0;
        fp.latencySpikeNs = 20'000; // 20us: visible, not dominant
        fp.burst = 2;               // < retries: always converges
        fp.retryAttempts = 5;
        fp.retryBackoffNs = 10'000;
        fp.retryMaxBackoffNs = 100'000;
        inj.configure(fp);
        inj.resetStats();

        SweepRow row;
        row.rate = rate;
        const std::uint64_t retries_before =
            counterValue("service.retries");
        row.m = measure(threads, plan, ansatz, points, shots,
                        device);
        row.faultsInjected = inj.stats().total();
        row.metricRetries =
            counterValue("service.retries") - retries_before;
        rows.push_back(row);
    }
    inj.configure(ambient);
    inj.resetStats();

    const Measurement &clean = rows.front().m;
    TablePrinter table(
        "Graceful degradation vs injected fault rate");
    table.setHeader({"Fault rate", "Seconds", "Executed", "Retries",
                     "Faults", "Slowdown", "Identical"});
    CsvWriter csv(outPath("bench_runtime_scaling_faults.csv"));
    csv.writeRow({"fault_rate", "threads", "seconds",
                  "circuits_executed", "retries", "faults_injected",
                  "metric_retries", "checksum",
                  "slowdown_vs_clean"});
    for (const SweepRow &row : rows) {
        const double slowdown = clean.seconds > 0.0
                                    ? row.m.seconds / clean.seconds
                                    : 1.0;
        const bool identical =
            row.m.checksum == clean.checksum &&
            row.m.circuitsExecuted == clean.circuitsExecuted;
        table.addRow(
            {TablePrinter::percent(row.rate),
             TablePrinter::num(row.m.seconds, 3),
             TablePrinter::num(
                 static_cast<long long>(row.m.circuitsExecuted)),
             TablePrinter::num(
                 static_cast<long long>(row.m.retries)),
             TablePrinter::num(
                 static_cast<long long>(row.faultsInjected)),
             TablePrinter::ratio(slowdown),
             identical ? "yes" : "NO"});
        csv.writeNumericRow(
            {row.rate, static_cast<double>(threads), row.m.seconds,
             static_cast<double>(row.m.circuitsExecuted),
             static_cast<double>(row.m.retries),
             static_cast<double>(row.faultsInjected),
             static_cast<double>(row.metricRetries), row.m.checksum,
             slowdown});
    }
    table.print();

    const char *check = std::getenv("VARSAW_BENCH_CHECK");
    if (!(check && check[0] == '1'))
        return;
    for (const SweepRow &row : rows) {
        if (row.m.checksum != clean.checksum) {
            std::fprintf(stderr,
                         "CHECK FAILED: results at fault rate %g "
                         "differ from the fault-free run\n",
                         row.rate);
            std::exit(1);
        }
        if (row.m.circuitsExecuted != clean.circuitsExecuted) {
            std::fprintf(
                stderr,
                "CHECK FAILED: executed-circuit count at fault "
                "rate %g (%llu) != fault-free count (%llu)\n",
                row.rate,
                static_cast<unsigned long long>(
                    row.m.circuitsExecuted),
                static_cast<unsigned long long>(
                    clean.circuitsExecuted));
            std::exit(1);
        }
        // The retry metric mirrors Executor::retriesPerformed()
        // increment-for-increment (benches force metrics on).
        if (telemetry::metricsEnabled() &&
            row.metricRetries != row.m.retries) {
            std::fprintf(
                stderr,
                "CHECK FAILED: service.retries delta (%llu) != "
                "executor retries (%llu) at fault rate %g\n",
                static_cast<unsigned long long>(row.metricRetries),
                static_cast<unsigned long long>(row.m.retries),
                row.rate);
            std::exit(1);
        }
    }
    if (rows.front().m.retries != 0) {
        std::fprintf(stderr,
                     "CHECK FAILED: zero-rate plan performed "
                     "retries\n");
        std::exit(1);
    }
    if (rows.back().m.retries == 0) {
        std::fprintf(stderr,
                     "CHECK FAILED: no retries observed at the "
                     "highest fault rate\n");
        std::exit(1);
    }
    std::printf("CHECK PASSED: energies and cost counters "
                "bit-identical at every fault rate; retries "
                "absorbed the injected transients\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (!parseStandardArgs(argc, argv))
        return 2;
    banner("Runtime scaling - batched execution throughput",
           "near-linear circuits/sec scaling up to the physical core "
           "count; identical results at every thread count");

    const int qubits = 8;
    const Hamiltonian h = tfim(qubits, 1.0, 0.7);
    EfficientSU2 ansatz(
        AnsatzConfig{qubits, 2, Entanglement::Linear});
    const SpatialPlan plan = buildSpatialPlan(h, 2);
    const DeviceModel device = DeviceModel::uniform(
        qubits, 0.02, 0.05, 0.02, 1e-4, 1e-3);

    const int ticks =
        static_cast<int>(envInt("VARSAW_BENCH_TICKS", 24));
    const auto shots = static_cast<std::uint64_t>(
        envInt("VARSAW_BENCH_SHOTS", 2048));

    // Optimizer-style trajectory of parameter points.
    Rng rng(7);
    std::vector<std::vector<double>> points;
    std::vector<double> params = ansatz.initialParameters(7);
    for (int t = 0; t < ticks; ++t) {
        for (auto &p : params)
            p += rng.normal(0.0, 0.05);
        points.push_back(params);
    }

    std::printf("hardware threads available: %u\n\n",
                std::thread::hardware_concurrency());

    TablePrinter table(
        "Throughput and cache hit rate vs worker threads");
    table.setHeader({"Threads", "Circuits", "Executed", "Seconds",
                     "Circuits/sec", "Speedup", "Cache hits"});
    CsvWriter csv(outPath("bench_runtime_scaling.csv"));
    csv.writeRow({"threads", "circuits_submitted",
                  "circuits_executed", "seconds", "circuits_per_sec",
                  "speedup", "cache_hit_rate"});

    double serial_rate = 0.0;
    double serial_checksum = 0.0;
    BenchSummary summary;
    double best_rate = 0.0;
    double last_hit_rate = 0.0;
    for (int threads : {1, 2, 4, 8}) {
        const Measurement m =
            measure(threads, plan, ansatz.circuit(), points, shots,
                    device);
        const double rate = perSecond(m.circuitsSubmitted, m.seconds);
        if (threads == 1) {
            serial_rate = rate;
            serial_checksum = m.checksum;
        } else if (m.checksum != serial_checksum) {
            std::printf("WARNING: results at %d threads differ from "
                        "serial!\n",
                        threads);
        }
        table.addRow(
            {TablePrinter::num(static_cast<long long>(threads)),
             TablePrinter::num(
                 static_cast<long long>(m.circuitsSubmitted)),
             TablePrinter::num(
                 static_cast<long long>(m.circuitsExecuted)),
             TablePrinter::num(m.seconds, 3),
             TablePrinter::num(rate, 1),
             TablePrinter::ratio(
                 serial_rate > 0.0 ? rate / serial_rate : 1.0),
             TablePrinter::percent(m.hitRate)});
        csv.writeNumericRow(
            {static_cast<double>(threads),
             static_cast<double>(m.circuitsSubmitted),
             static_cast<double>(m.circuitsExecuted), m.seconds,
             rate, serial_rate > 0.0 ? rate / serial_rate : 1.0,
             m.hitRate});
        summary.wallSeconds += m.seconds;
        summary.executions += m.circuitsExecuted;
        summary.cacheHits += static_cast<std::uint64_t>(
            m.hitRate *
            static_cast<double>(m.circuitsSubmitted));
        best_rate = std::max(best_rate, rate);
        last_hit_rate = m.hitRate;
    }
    table.print();
    summary.extra = {
        {"serial_circuits_per_sec", serial_rate},
        {"best_circuits_per_sec", best_rate},
        {"cache_hit_rate", last_hit_rate},
        {"scaling_speedup",
         serial_rate > 0.0 ? best_rate / serial_rate : 1.0},
    };
    emitBenchSummary(summary);

    // Part 2: shared-service vs per-estimator-runtime comparison.
    runSharedServiceComparison(4, h, ansatz.circuit(), points,
                               shots, device);

    // Part 3: graceful degradation under injected faults.
    runFaultRateSweep(4, plan, ansatz.circuit(), points, shots,
                      device);
    return 0;
}
