/**
 * @file
 * Units of work shared by the executors and the execution service.
 *
 * A CircuitJob is one (circuit, parameters, shots) submission; a
 * Batch is the ordered set of jobs one estimator tick produces.
 * Estimators build a Batch per objective evaluation and submit it
 * through a Session instead of looping over Executor::execute(). A
 * JobView is the non-owning shape of the same submission: backends
 * consume views, so the legacy serial execute() path can describe a
 * caller's circuit without deep-copying it into a transient job.
 *
 * Jobs come in two shapes:
 *  - plain: `circuit` is the complete measurement circuit;
 *  - prefix-sharing: `prep` points at a state-prep circuit shared
 *    (by shared_ptr) across many jobs, and `circuit` holds only the
 *    measurement suffix (basis rotations + measurement spec) over
 *    it. This is how one objective evaluation's N basis circuits
 *    are submitted without cloning the ansatz N times, and how the
 *    SimEngine recognizes that they share one prepared state.
 *
 * This header lives in sim/ (not service/) on purpose: jobs and
 * their content hashes are the vocabulary shared by sim/,
 * mitigation/, and service/, and the lower layers must build
 * without the service.
 */

#ifndef VARSAW_SIM_JOB_HH
#define VARSAW_SIM_JOB_HH

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/circuit.hh"

namespace varsaw {

/**
 * Non-owning view of one circuit submission.
 *
 * The shape backends execute: it borrows the caller's circuit and
 * parameter storage instead of copying them, so the serial
 * Executor::execute() path costs no per-call clone. The referenced
 * circuit/params must outlive the view — trivially true for the
 * synchronous backend calls this type is passed through.
 */
struct JobView
{
    /** Full circuit, or the measurement suffix when prep is set. */
    const Circuit &circuit;
    const std::vector<double> &params;
    std::uint64_t shots = 0;
    /** Shared state-prep prefix; null for a plain job. */
    const Circuit *prep = nullptr;

    /** Register width (the prep's width when one is attached). */
    int numQubits() const
    {
        return prep ? prep->numQubits() : circuit.numQubits();
    }

    /** Qubits read out, in classical-bit order. */
    const std::vector<int> &measuredQubits() const
    {
        return circuit.measuredQubits();
    }

    /** Number of measured qubits. */
    int numMeasured() const { return circuit.numMeasured(); }

    /** One-qubit gates across prep + suffix. */
    int oneQubitGateCount() const
    {
        return (prep ? prep->oneQubitGateCount() : 0) +
            circuit.oneQubitGateCount();
    }

    /** Two-qubit gates across prep + suffix. */
    int twoQubitGateCount() const
    {
        return (prep ? prep->twoQubitGateCount() : 0) +
            circuit.twoQubitGateCount();
    }

    /**
     * The complete circuit this submission denotes: the plain
     * circuit, or prep + suffix concatenated (with the suffix's
     * measurement spec). Used by backends that cannot split
     * execution (density matrix) and by diagnostics; hot paths work
     * on the two halves directly.
     */
    Circuit flattened() const
    {
        if (!prep)
            return circuit;
        Circuit full(prep->numQubits(), circuit.label());
        full.append(*prep);
        full.append(circuit);
        for (int q : circuit.measuredQubits())
            full.measure(q);
        return full;
    }
};

/** One circuit submission. */
struct CircuitJob
{
    /** Full circuit, or the measurement suffix when prep is set. */
    Circuit circuit;
    std::vector<double> params;
    std::uint64_t shots = 0;
    /** Shared state-prep prefix; null for a plain job. */
    std::shared_ptr<const Circuit> prep;

    /** Non-owning view of this job (valid while the job lives). */
    JobView view() const
    {
        return {circuit, params, shots, prep.get()};
    }

    /** Register width (the prep's width when one is attached). */
    int numQubits() const { return view().numQubits(); }

    /** Qubits read out, in classical-bit order. */
    const std::vector<int> &measuredQubits() const
    {
        return circuit.measuredQubits();
    }

    /** Number of measured qubits. */
    int numMeasured() const { return view().numMeasured(); }

    /** One-qubit gates across prep + suffix. */
    int oneQubitGateCount() const
    {
        return view().oneQubitGateCount();
    }

    /** Two-qubit gates across prep + suffix. */
    int twoQubitGateCount() const
    {
        return view().twoQubitGateCount();
    }

    /** The complete circuit this job denotes (see JobView). */
    Circuit flattened() const { return view().flattened(); }
};

/** An ordered collection of jobs submitted together. */
class Batch
{
  public:
    Batch() = default;

    /** Reserve capacity for @p n jobs. */
    void reserve(std::size_t n) { jobs_.reserve(n); }

    /**
     * Append a job; returns its index within the batch, which is
     * also the index of its result in the runtime's output vector.
     */
    std::size_t add(Circuit circuit, std::vector<double> params,
                    std::uint64_t shots)
    {
        jobs_.push_back(
            {std::move(circuit), std::move(params), shots, nullptr});
        return jobs_.size() - 1;
    }

    /**
     * Append a prefix-sharing job: @p suffix (basis rotations +
     * measurement spec) executes over the state @p prep prepares.
     * The prep circuit is shared, not copied — every basis circuit
     * of one evaluation should pass the same shared_ptr.
     */
    std::size_t addPrefixed(std::shared_ptr<const Circuit> prep,
                            Circuit suffix,
                            std::vector<double> params,
                            std::uint64_t shots)
    {
        jobs_.push_back({std::move(suffix), std::move(params), shots,
                         std::move(prep)});
        return jobs_.size() - 1;
    }

    /** The jobs, in submission order. */
    const std::vector<CircuitJob> &jobs() const { return jobs_; }

    /** Number of jobs. */
    std::size_t size() const { return jobs_.size(); }

    /** Whether the batch holds no jobs. */
    bool empty() const { return jobs_.empty(); }

    /** Sum of the shots over all jobs. */
    std::uint64_t totalShots() const
    {
        std::uint64_t total = 0;
        for (const auto &job : jobs_)
            total += job.shots;
        return total;
    }

  private:
    std::vector<CircuitJob> jobs_;
};

} // namespace varsaw

#endif // VARSAW_SIM_JOB_HH
