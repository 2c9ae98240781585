#include "workloads.hh"

#include <cmath>
#include <memory>
#include <stdexcept>
#include <thread>

#include "chem/exact_solver.hh"
#include "chem/molecules.hh"
#include "chem/spin_models.hh"
#include "core/varsaw.hh"
#include "noise/device_model.hh"
#include "service/execution_service.hh"
#include "vqa/ansatz.hh"
#include "vqa/optimizer.hh"
#include "vqa/vqe.hh"

namespace vqebench {

using namespace varsaw;

const std::vector<WorkloadSpec> &
allWorkloads()
{
    // VarSaw's adaptive Global schedule makes a trajectory's cost
    // depend strongly on its seed, so a cycle runs several short
    // trajectories (inputs) rather than one long one; peak memory is
    // the largest trajectory's, so h2o12 runs six to keep it steady.
    // A cycle takes 5-8 s on a shared 4-core VM, so the minimum three
    // cycles about fill a 20 s window; they hold at least 200
    // evaluations, so p95 has at least 10 samples beyond it.
    //
    // The mean-error intervals hold VarSaw's own bias on the mumbai
    // model, which is negative: its adaptive schedule keeps the
    // lower of the stale and fresh estimate on check iterations.
    // vqebench/README.md gives the measured figures.
    static const std::vector<WorkloadSpec> workloads = {
        // Fig. 13's VarSaw scenario: narrow and shot-bound.
        {.name = "ch4_varsaw", .hamiltonian = "CH4-6", .qubits = 6,
         .reps = 2, .shots = 2048, .iterationsPerPass = 20,
         .inputsPerCycle = 24, .meanErrorLow = -0.07,
         .meanErrorHigh = 0.0},
        // Wide register, few shots: statevector-bound.
        {.name = "tfim16_wide", .hamiltonian = "TFIM-16", .qubits = 16,
         .reps = 6, .shots = 256, .iterationsPerPass = 4,
         .inputsPerCycle = 4, .meanErrorLow = -0.08,
         .meanErrorHigh = 0.05},
        // Two VQE restarts sharing one execution service.
        {.name = "h2o12_multistart", .hamiltonian = "H2O-12",
         .qubits = 12, .reps = 2, .shots = 256, .iterationsPerPass = 4,
         .inputsPerCycle = 6, .clients = 2, .serviceWorkers = 2,
         .meanErrorLow = -0.15, .meanErrorHigh = 0.05},
    };
    return workloads;
}

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const auto &w : allWorkloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

namespace {

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

Hamiltonian
makeHamiltonian(const WorkloadSpec &spec)
{
    if (spec.hamiltonian.rfind("TFIM-", 0) == 0)
        return tfim(spec.qubits, 1.0, 1.0);
    return molecule(spec.hamiltonian);
}

} // namespace

Seeds
deriveSeeds(std::uint64_t seed, int k)
{
    // Distinct streams per input, so e.g. the x0 draw and the SPSA
    // perturbations never share a generator state. SPSA seeds are
    // kept small enough that client c's seed spsa + c cannot wrap.
    const std::uint64_t base =
        splitmix64(splitmix64(seed) + static_cast<std::uint64_t>(k));
    Seeds s;
    s.x0 = splitmix64(base ^ 0x1);
    s.spsa = splitmix64(base ^ 0x2) >> 8;
    s.backend = splitmix64(base ^ 0x3);
    return s;
}

PassResult
runPass(const WorkloadSpec &spec, const Seeds &seeds,
        const PassMode &mode)
{
    PassResult out;
    std::vector<int> client_ids;
    if (mode.inlineClient >= 0)
        client_ids.push_back(mode.inlineClient);
    else
        for (int c = 0; c < spec.clients; ++c)
            client_ids.push_back(c);
    const bool shared = spec.serviceWorkers > 0 && mode.inlineClient < 0;
    const std::size_t n_clients = client_ids.size();

    // ---- set-up ------------------------------------------------------
    const double t_setup = wallNow();
    const Hamiltonian h = makeHamiltonian(spec);
    const EfficientSU2 ansatz(
        AnsatzConfig{spec.qubits, spec.reps, Entanglement::Full});
    const std::vector<double> x0 = ansatz.initialParameters(seeds.x0);

    TracedNoisyExecutor *traced = nullptr;
    std::unique_ptr<NoisyExecutor> exec;
    if (mode.traced) {
        auto t = std::make_unique<TracedNoisyExecutor>(
            DeviceModel::mumbai(), GateNoiseMode::AnalyticDepolarizing,
            seeds.backend);
        traced = t.get();
        exec = std::move(t);
    } else {
        exec = std::make_unique<NoisyExecutor>(
            DeviceModel::mumbai(), GateNoiseMode::AnalyticDepolarizing,
            seeds.backend);
    }

    std::unique_ptr<ExecutionService> service;
    if (shared) {
        ServiceConfig sc;
        sc.threads = spec.serviceWorkers;
        service = std::make_unique<ExecutionService>(*exec, sc);
    }

    const double t_estimator = wallNow();
    std::vector<std::unique_ptr<VarsawEstimator>> estimators;
    for (std::size_t c = 0; c < n_clients; ++c) {
        VarsawConfig vc;
        vc.subsetShots = spec.shots;
        vc.globalShots = spec.shots;
        vc.runtime.threads = 1;
        if (shared) {
            vc.runtime.service = service.get();
            vc.runtime.cacheResults = true;
        }
        estimators.push_back(std::make_unique<VarsawEstimator>(
            h, ansatz.circuit(), *exec, vc));
    }
    out.setupEstimator = wallNow() - t_estimator;

    // The warm-up pays first-use costs (scratch buffers, worker
    // start). Resetting the temporal state and the shared ledger
    // afterwards makes the run start like a fresh estimator, and
    // keeps warm-up results out of the run's dedupe counts.
    const double t_first = wallNow();
    for (auto &est : estimators) {
        est->estimate(x0);
        est->resetTemporalState();
    }
    if (service)
        service->clearSharedCaches();
    out.setupFirstEval = wallNow() - t_first;
    out.setup = wallNow() - t_setup;

    // ---- run ---------------------------------------------------------
    const std::uint64_t circuits0 = exec->circuitsExecuted();
    const std::uint64_t shots0 = exec->shotsExecuted();
    const std::uint64_t retries0 = exec->retriesPerformed();
    const SimEngineStats sim0 = exec->simEngine().stats();
    const ServiceStats svc0 = service ? service->stats() : ServiceStats{};
    const ExecTotals exec0 = traced ? traced->totals() : ExecTotals{};
    std::vector<std::uint64_t> jobs0;
    for (auto &est : estimators)
        jobs0.push_back(est->runtime().jobsSubmitted());

    out.clients.resize(n_clients);
    auto run_client = [&](std::size_t i) {
        ClientRun &cr = out.clients[i];
        ProbedEstimator probe(*estimators[i], mode.traced);
        try {
            Spsa::Config sc;
            sc.seed = seeds.spsa + static_cast<std::uint64_t>(client_ids[i]);
            Spsa spsa(sc);
            VqeDriver driver(probe, spsa);
            VqeConfig vc;
            vc.maxIterations = spec.iterationsPerPass;
            const double t = wallNow();
            VqeResult res = driver.run(x0, vc);
            cr.runWall = wallNow() - t;
            cr.bestEnergy = res.bestEnergy;
        } catch (const std::exception &e) {
            cr.error = e.what();
        } catch (...) {
            cr.error = "unknown exception";
        }
        cr.energies = probe.values();
        cr.points = probe.points();
        cr.latencies = probe.latencies();
        cr.estimateWall = probe.wallSeconds();
        cr.estimateCpu = probe.cpuSeconds();
        cr.execOnThread = probe.execOnThreadSeconds();
    };

    const double t_run = wallNow();
    {
        // The main thread drives client 0; jthreads join on scope
        // exit, so no path leaves a client thread running.
        std::vector<std::jthread> others;
        for (std::size_t i = 1; i < n_clients; ++i)
            others.emplace_back(run_client, i);
        run_client(0);
    }
    out.wall = wallNow() - t_run;

    // ---- accounting --------------------------------------------------
    out.circuits = exec->circuitsExecuted() - circuits0;
    out.shots = exec->shotsExecuted() - shots0;
    out.retries = exec->retriesPerformed() - retries0;
    const SimEngineStats sim1 = exec->simEngine().stats();
    out.preps = sim1.prepSimulations - sim0.prepSimulations;
    out.suffixes = sim1.suffixApplications - sim0.suffixApplications;
    out.prepCacheHits = sim1.cache.hits - sim0.cache.hits;
    out.prepCacheMisses = sim1.cache.misses - sim0.cache.misses;
    if (service) {
        const ServiceStats svc1 = service->stats();
        out.crossSessionHits =
            svc1.crossSessionHits - svc0.crossSessionHits;
        out.chunks = svc1.chunksExecuted - svc0.chunksExecuted;
        out.workers = service->threadCount();
    }
    if (traced) {
        const ExecTotals e1 = traced->totals();
        out.exec.execNs = e1.execNs - exec0.execNs;
        out.exec.marginalNs = e1.marginalNs - exec0.marginalNs;
        out.exec.shots = e1.shots - exec0.shots;
        out.exec.supportEntries =
            e1.supportEntries - exec0.supportEntries;
        out.exec.suffixGateAmplitudes =
            e1.suffixGateAmplitudes - exec0.suffixGateAmplitudes;
        out.exec.prepGateAmplitudes = e1.prepGateAmplitudes;
    }
    for (std::size_t i = 0; i < n_clients; ++i) {
        ClientRun &cr = out.clients[i];
        cr.jobsSubmitted =
            estimators[i]->runtime().jobsSubmitted() - jobs0[i];
        cr.globalsRun = estimators[i]->scheduler().globalsRun();
        cr.ticks = estimators[i]->scheduler().ticksSeen();
    }
    return out;
}

struct Reference::Impl
{
    explicit Impl(const WorkloadSpec &spec)
        : h(makeHamiltonian(spec)),
          ansatz(AnsatzConfig{spec.qubits, spec.reps, Entanglement::Full}),
          exact(h, ansatz.circuit())
    {
        // NoisyExecutor's analytic depolarizing channel mixes the
        // output distribution with the uniform one, which scales
        // every non-identity Pauli expectation by the circuit's
        // survival probability. The few basis-change gates a
        // measurement appends (one-qubit error 1e-4 each) are left
        // out; they move the target by well under 0.01.
        const DeviceModel device = DeviceModel::mumbai();
        const Circuit &c = ansatz.circuit();
        survival = std::pow(1.0 - device.gate1Error(),
                            c.oneQubitGateCount()) *
            std::pow(1.0 - device.gate2Error(), c.twoQubitGateCount());
    }

    const Hamiltonian h;
    const EfficientSU2 ansatz;
    ExactEstimator exact;
    double survival = 1.0;
};

Reference::Reference(const WorkloadSpec &spec)
    : impl_(std::make_unique<Impl>(spec)),
      ground_(groundStateEnergy(impl_->h))
{
}

Reference::~Reference() = default;

double
Reference::mitigationTarget(const std::vector<double> &params)
{
    const double offset = impl_->h.identityOffset();
    return offset +
        impl_->survival * (impl_->exact.estimate(params) - offset);
}

} // namespace vqebench
