/**
 * @file
 * Outside-in layer probes for the benchmark.
 *
 * Nothing here reaches inside the library: time is attributed to a
 * layer by timing calls into that layer's public seams.
 *
 *  - ProbedEstimator decorates an EnergyEstimator. It records every
 *    estimate() value, its parameters and its wall latency
 *    (always), and in traced mode also the calling thread's CPU
 *    time and the part of that call spent executing circuits on the
 *    same thread.
 *  - TracedNoisyExecutor subclasses NoisyExecutor and times its two
 *    protected seams: executeImpl (one whole circuit execution) and
 *    noisyMarginal (the SimEngine statevector work inside it). The
 *    outcome layer (readout confusion, Pmf sampling, Counts) is the
 *    difference.
 *
 * Both are pure observers: they forward every call unchanged, so a
 * traced run reproduces an untraced run's energies bit for bit
 * (the benchmark checks this on every traced run).
 */

#ifndef VQEBENCH_PROBES_HH
#define VQEBENCH_PROBES_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "mitigation/executor.hh"
#include "vqa/estimator.hh"

namespace vqebench {

/** Monotonic wall clock, seconds. */
double wallNow();

/** CPU time consumed by the calling thread, seconds. */
double threadCpuNow();

/**
 * Wall time the calling thread has spent inside
 * TracedNoisyExecutor::executeImpl since it started, seconds.
 */
double threadExecSeconds();

/** Work and time recorded by a TracedNoisyExecutor (all threads). */
struct ExecTotals
{
    std::uint64_t execNs = 0;     //!< inside executeImpl
    std::uint64_t marginalNs = 0; //!< inside noisyMarginal
    std::uint64_t shots = 0;
    /** Dense outcome entries handed to the outcome layer (2^m per
     * job with m measured bits). */
    std::uint64_t supportEntries = 0;
    /** Sum over jobs of suffix gates x 2^n amplitudes. */
    std::uint64_t suffixGateAmplitudes = 0;
    /** Gates x 2^n amplitudes of one state preparation (the
     * estimator's ansatz; 0 when jobs carry no shared prep). */
    std::uint64_t prepGateAmplitudes = 0;
};

/** NoisyExecutor whose execution seams are timed (see file comment). */
class TracedNoisyExecutor : public varsaw::NoisyExecutor
{
  public:
    TracedNoisyExecutor(varsaw::DeviceModel device,
                        varsaw::GateNoiseMode mode,
                        std::uint64_t seed);

    /** Snapshot of everything recorded so far. */
    ExecTotals totals() const;

  protected:
    varsaw::Pmf executeImpl(const varsaw::JobView &job,
                            varsaw::Rng &rng) override;
    std::vector<double>
    noisyMarginal(const varsaw::JobView &job) override;

  private:
    std::atomic<std::uint64_t> execNs_{0};
    std::atomic<std::uint64_t> marginalNs_{0};
    std::atomic<std::uint64_t> shots_{0};
    std::atomic<std::uint64_t> supportEntries_{0};
    std::atomic<std::uint64_t> suffixGateAmplitudes_{0};
    std::atomic<std::uint64_t> prepGateAmplitudes_{0};
};

/** EnergyEstimator decorator recording values and timings. */
class ProbedEstimator : public varsaw::EnergyEstimator
{
  public:
    ProbedEstimator(varsaw::EnergyEstimator &inner, bool traced);

    double estimate(const std::vector<double> &params) override;
    void onIterationBoundary() override
    {
        inner_.onIterationBoundary();
    }
    std::string name() const override { return inner_.name(); }

    /** Every value estimate() returned, in call order. */
    const std::vector<double> &values() const { return values_; }

    /** The parameters of every estimate() call, in call order. */
    const std::vector<std::vector<double>> &points() const
    {
        return points_;
    }

    /** Wall latency of each estimate() call, seconds. */
    const std::vector<double> &latencies() const
    {
        return latencies_;
    }

    /** Sum of estimate() wall time, seconds. */
    double wallSeconds() const { return wall_; }

    /** Traced only: calling-thread CPU time inside estimate(). */
    double cpuSeconds() const { return cpu_; }

    /** Traced only: circuit execution on the calling thread inside
     * estimate() (wall, from TracedNoisyExecutor). */
    double execOnThreadSeconds() const { return execOnThread_; }

  private:
    varsaw::EnergyEstimator &inner_;
    bool traced_;
    std::vector<double> values_;
    std::vector<std::vector<double>> points_;
    std::vector<double> latencies_;
    double wall_ = 0.0;
    double cpu_ = 0.0;
    double execOnThread_ = 0.0;
};

} // namespace vqebench

#endif // VQEBENCH_PROBES_HH
