/**
 * @file
 * Micro-benchmarks for the mitigation/planning hot paths that the
 * statevector-focused bench_micro_kernels no longer covers:
 * Bayesian reconstruction, commutation cover reduction, subset
 * reduction, spatial-plan construction, ansatz simulation,
 * end-to-end noisy execution, and shot sampling (Pmf::sample over
 * full-support PMFs of 4 / 64 / 4096 / 65536 outcomes at 256 and
 * 2048 shots, the sizes the paper workloads draw). Plain table
 * bench (ops/sec and ns per call), CSV via util/csv.
 *
 * Knobs: VARSAW_BENCH_REPS (default 20 timing repetitions; the
 * sampling cases scale that up so each draws about the same number
 * of shots plus support entries), plus the standard --cache-bytes /
 * --kernel-threads flags.
 */

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common.hh"
#include "core/spatial.hh"
#include "mitigation/bayesian.hh"
#include "mitigation/executor.hh"
#include "noise/device_model.hh"
#include "pauli/subsetting.hh"
#include "sim/statevector.hh"
#include "util/counts.hh"
#include "util/csv.hh"
#include "util/rng.hh"
#include "vqa/ansatz.hh"

using namespace varsaw;
using namespace varsaw::bench;

namespace {

struct Case
{
    std::string name;
    int reps;
    std::function<void()> run; //!< one timed invocation
};

} // namespace

int
main(int argc, char **argv)
{
    if (!parseStandardArgs(argc, argv))
        return 2;
    banner("Micro-mitigation - reconstruction, reduction, and "
           "planning hot paths",
           "throughput only; results are deterministic per fixed "
           "seed");

    const int reps =
        static_cast<int>(envInt("VARSAW_BENCH_REPS", 20));

    // ---- Fixtures (built once, outside every timed region) ------
    Rng rng(9);
    Pmf global(10);
    for (int i = 0; i < (1 << 10); ++i)
        global.set(i, rng.uniform());
    global.normalize();
    std::vector<LocalPmf> locals;
    for (int s = 0; s + 1 < 10; ++s) {
        LocalPmf local;
        local.positions = {s, s + 1};
        local.pmf = Pmf(2);
        for (int i = 0; i < 4; ++i)
            local.pmf.set(i, rng.uniform());
        local.pmf.normalize();
        locals.push_back(std::move(local));
    }

    const Hamiltonian ch4 = molecule("CH4-8");
    const Hamiltonian h6 = molecule("H6-10");
    const auto h6_pool = aggregateSubsets(h6.strings(), 2);

    EfficientSU2 ansatz(AnsatzConfig{10, 2, Entanglement::Full});
    const auto ansatz_params = ansatz.initialParameters(1);

    EfficientSU2 noisy_ansatz(AnsatzConfig{6, 2,
                                           Entanglement::Full});
    const auto noisy_params = noisy_ansatz.initialParameters(3);
    NoisyExecutor exec(DeviceModel::mumbai());
    Circuit noisy_circuit(6);
    noisy_circuit.append(noisy_ansatz.circuit());
    noisy_circuit.measureAll();

    // Sampling fixtures: random full-support PMFs, one Rng per case
    // so each case's draws do not depend on the others.
    struct SampleFixture
    {
        Pmf pmf;
        std::uint64_t shots;
        Rng rng;
    };
    std::vector<SampleFixture> sample_fixtures;
    for (const int bits : {2, 6, 12, 16}) {
        std::vector<double> dense(std::size_t{1} << bits);
        for (double &p : dense)
            p = rng.uniform();
        Pmf pmf = Pmf::fromDense(bits, dense);
        pmf.normalize();
        for (const std::uint64_t shots : {256u, 2048u})
            sample_fixtures.push_back(
                {pmf, shots, Rng(mix64(bits, shots))});
    }

    std::vector<Case> cases;
    cases.push_back({"bayesianReconstruct_10q", reps, [&] {
                         Pmf out =
                             bayesianReconstruct(global, locals, 1);
                         (void)out.supportSize();
                     }});
    cases.push_back({"coverReduce_CH4-8", reps, [&] {
                         (void)coverReduce(ch4.strings()).bases
                             .size();
                     }});
    cases.push_back({"coverReduce_H6-10", reps, [&] {
                         (void)coverReduce(h6.strings()).bases
                             .size();
                     }});
    cases.push_back({"reduceSubsets_H6-10", reps, [&] {
                         (void)reduceSubsets(h6_pool).size();
                     }});
    cases.push_back({"buildSpatialPlan_CH4-8", reps, [&] {
                         (void)buildSpatialPlan(ch4, 2)
                             .executedSubsets.size();
                     }});
    cases.push_back({"ansatzSimulation_10q", reps, [&] {
                         Statevector sv(10);
                         sv.run(ansatz.circuit(), ansatz_params);
                         (void)sv.norm();
                     }});
    cases.push_back({"noisyExecution_6q_1024shots", reps, [&] {
                         (void)exec.execute(noisy_circuit,
                                            noisy_params, 1024)
                             .supportSize();
                     }});
    for (SampleFixture &f : sample_fixtures) {
        const std::uint64_t work = f.pmf.supportSize() + f.shots;
        cases.push_back(
            {"sample_" + std::to_string(f.pmf.supportSize()) + "x" +
                 std::to_string(f.shots),
             static_cast<int>(static_cast<std::uint64_t>(reps) *
                              std::max<std::uint64_t>(
                                  1, (std::uint64_t{1} << 17) / work)),
             [&f] {
                 (void)f.pmf.sample(f.rng, f.shots).numOutcomes();
             }});
    }

    TablePrinter table("Mitigation/planning micro-benchmarks");
    table.setHeader({"Case", "Reps", "Seconds", "Ops/sec", "ns/call"});
    CsvWriter csv(outPath("bench_micro_mitigation.csv"));
    csv.writeRow({"case", "reps", "seconds", "ops_per_sec", "ns_per_call"});

    BenchSummary summary;
    for (const Case &c : cases) {
        Stopwatch watch;
        for (int r = 0; r < c.reps; ++r)
            c.run();
        const double seconds = watch.seconds();
        const double rate = perSecond(
            static_cast<std::uint64_t>(c.reps), seconds);
        const double ns_per_call =
            1e9 * seconds / static_cast<double>(c.reps);
        table.addRow({c.name,
                      TablePrinter::num(
                          static_cast<long long>(c.reps)),
                      TablePrinter::num(seconds, 4),
                      TablePrinter::num(rate, 1),
                      TablePrinter::num(ns_per_call, 1)});
        csv.writeRow({c.name, std::to_string(c.reps),
                      std::to_string(seconds),
                      std::to_string(rate),
                      std::to_string(ns_per_call)});
        summary.wallSeconds += seconds;
        summary.executions +=
            static_cast<std::uint64_t>(c.reps);
        summary.extra.emplace_back(c.name + "_ops_per_sec", rate);
    }
    table.print();
    emitBenchSummary(summary);
    return 0;
}
