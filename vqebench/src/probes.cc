#include "probes.hh"

#include <chrono>
#include <ctime>
#include <utility>

namespace vqebench {

namespace {

/** Nanoseconds this thread spent inside traced executeImpl calls. */
thread_local std::uint64_t tlExecNs = 0;

std::uint64_t
steadyNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::uint64_t
gateAmplitudes(const varsaw::Circuit &circuit, int num_qubits)
{
    const auto gates = static_cast<std::uint64_t>(
        circuit.oneQubitGateCount() + circuit.twoQubitGateCount());
    return gates << num_qubits;
}

} // namespace

double
wallNow()
{
    return static_cast<double>(steadyNs()) * 1e-9;
}

double
threadCpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
        static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
threadExecSeconds()
{
    return static_cast<double>(tlExecNs) * 1e-9;
}

TracedNoisyExecutor::TracedNoisyExecutor(varsaw::DeviceModel device,
                                         varsaw::GateNoiseMode mode,
                                         std::uint64_t seed)
    : NoisyExecutor(std::move(device), mode, seed)
{
}

ExecTotals
TracedNoisyExecutor::totals() const
{
    ExecTotals t;
    t.execNs = execNs_.load(std::memory_order_relaxed);
    t.marginalNs = marginalNs_.load(std::memory_order_relaxed);
    t.shots = shots_.load(std::memory_order_relaxed);
    t.supportEntries =
        supportEntries_.load(std::memory_order_relaxed);
    t.suffixGateAmplitudes =
        suffixGateAmplitudes_.load(std::memory_order_relaxed);
    t.prepGateAmplitudes =
        prepGateAmplitudes_.load(std::memory_order_relaxed);
    return t;
}

varsaw::Pmf
TracedNoisyExecutor::executeImpl(const varsaw::JobView &job,
                                 varsaw::Rng &rng)
{
    const std::uint64_t start = steadyNs();
    varsaw::Pmf out = NoisyExecutor::executeImpl(job, rng);
    const std::uint64_t elapsed = steadyNs() - start;
    tlExecNs += elapsed;
    execNs_.fetch_add(elapsed, std::memory_order_relaxed);
    shots_.fetch_add(job.shots, std::memory_order_relaxed);
    return out;
}

std::vector<double>
TracedNoisyExecutor::noisyMarginal(const varsaw::JobView &job)
{
    const std::uint64_t start = steadyNs();
    std::vector<double> probs = NoisyExecutor::noisyMarginal(job);
    marginalNs_.fetch_add(steadyNs() - start,
                          std::memory_order_relaxed);
    supportEntries_.fetch_add(probs.size(),
                              std::memory_order_relaxed);
    const int n = job.numQubits();
    suffixGateAmplitudes_.fetch_add(gateAmplitudes(job.circuit, n),
                                    std::memory_order_relaxed);
    if (job.prep)
        prepGateAmplitudes_.store(gateAmplitudes(*job.prep, n),
                                  std::memory_order_relaxed);
    return probs;
}

ProbedEstimator::ProbedEstimator(varsaw::EnergyEstimator &inner,
                                 bool traced)
    : inner_(inner), traced_(traced)
{
}

double
ProbedEstimator::estimate(const std::vector<double> &params)
{
    const double cpu0 = traced_ ? threadCpuNow() : 0.0;
    const double exec0 = traced_ ? threadExecSeconds() : 0.0;
    const double t0 = wallNow();
    const double value = inner_.estimate(params);
    const double latency = wallNow() - t0;
    if (traced_) {
        cpu_ += threadCpuNow() - cpu0;
        execOnThread_ += threadExecSeconds() - exec0;
    }
    wall_ += latency;
    values_.push_back(value);
    points_.push_back(params);
    latencies_.push_back(latency);
    return value;
}

} // namespace vqebench
