/**
 * @file
 * Energy estimators: how one VQA objective evaluation is turned
 * into quantum circuits.
 *
 * Every estimator answers "what is <H> at these ansatz parameters?"
 * but with different circuit workloads per call:
 *
 *  - ExactEstimator: state-vector expectation, no circuits (used for
 *    ideal references and to find optimal parameters);
 *  - BaselineEstimator: traditional VQA — one circuit per
 *    commutation-reduced measurement basis (the paper's Baseline);
 *  - JigsawEstimator: Baseline plus, per basis, a Global and all
 *    sliding-window subset circuits with Bayesian reconstruction
 *    (the paper's JigSaw-for-VQA);
 *  - VarsawEstimator (src/core/varsaw.hh): the proposed approach.
 */

#ifndef VARSAW_VQA_ESTIMATOR_HH
#define VARSAW_VQA_ESTIMATOR_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mitigation/executor.hh"
#include "mitigation/jigsaw.hh"
#include "pauli/commutation.hh"
#include "pauli/hamiltonian.hh"
#include "service/execution_service.hh"
#include "sim/circuit.hh"

namespace varsaw {

/** Abstract objective evaluator for the hybrid VQA loop. */
class EnergyEstimator
{
  public:
    virtual ~EnergyEstimator() = default;

    /** Estimate <H> at the given ansatz parameters. */
    virtual double estimate(const std::vector<double> &params) = 0;

    /**
     * Optimizer-iteration boundary notification. Stateful
     * estimators (VarSaw's stale-Global chain) freeze their
     * reconstruction prior within an iteration so that the multiple
     * objective probes of one optimizer step (e.g. SPSA's +-
     * perturbations) see the same prior and the gradient signal is
     * not polluted by chain-advance noise. Default: no-op.
     */
    virtual void onIterationBoundary() {}

    /** Human-readable estimator name. */
    virtual std::string name() const = 0;
};

/** Noise-free, shot-free state-vector expectation (no circuits). */
class ExactEstimator : public EnergyEstimator
{
  public:
    /**
     * @param hamiltonian Problem Hamiltonian.
     * @param ansatz      Parameterized preparation circuit.
     */
    ExactEstimator(const Hamiltonian &hamiltonian,
                   const Circuit &ansatz);

    double estimate(const std::vector<double> &params) override;

    std::string name() const override { return "exact"; }

  private:
    const Hamiltonian &hamiltonian_;
    const Circuit &ansatz_;
};

/** How a baseline evaluation distributes shots across bases. */
enum class ShotAllocation
{
    /** The same shot count for every basis circuit. */
    Uniform,
    /**
     * Shots proportional to each basis's |coefficient| mass
     * (variance-optimal up to term covariances): heavy bases get
     * measured harder for the same total shot budget.
     */
    CoefficientWeighted,
};

/**
 * Traditional VQA estimator: one measurement circuit per
 * cover-reduced basis (the paper's Baseline comparison, which does
 * use Pauli-string commutation but no error mitigation).
 */
class BaselineEstimator : public EnergyEstimator
{
  public:
    /**
     * @param hamiltonian Problem Hamiltonian.
     * @param ansatz      Parameterized preparation circuit,
     *                    snapshotted at construction — later
     *                    changes to the caller's circuit do not
     *                    affect this estimator.
     * @param executor    Backend (counts the circuit cost).
     * @param shots       Shots per basis circuit (0 = exact); under
     *                    CoefficientWeighted allocation this is the
     *                    *average* per basis (total preserved).
     * @param basis_mode  Commutation reduction flavor.
     * @param allocation  Shot distribution across bases.
     * @param runtime     Batch runtime tunables (threads, cache) or,
     *                    via runtime.service, the shared execution
     *                    service to open a session on.
     */
    BaselineEstimator(
        const Hamiltonian &hamiltonian, const Circuit &ansatz,
        Executor &executor, std::uint64_t shots,
        BasisMode basis_mode = BasisMode::Cover,
        ShotAllocation allocation = ShotAllocation::Uniform,
        const RuntimeConfig &runtime = {});

    double estimate(const std::vector<double> &params) override;

    std::string name() const override { return "baseline"; }

    /** The cover-reduced measurement bases in use. */
    const BasisReduction &reduction() const { return reduction_; }

    /** Shots assigned to each basis per evaluation. */
    const std::vector<std::uint64_t> &basisShots() const
    {
        return basisShots_;
    }

    /** The session (private or on a shared service)
     * circuits are submitted through. */
    Session &runtime() { return *runtime_; }
    const Session &runtime() const { return *runtime_; }

  private:
    const Hamiltonian &hamiltonian_;
    /** Construction-time ansatz snapshot, shared by every job. */
    std::shared_ptr<const Circuit> prep_;
    std::unique_ptr<Session> runtime_;
    std::uint64_t shots_;
    BasisReduction reduction_;
    /** Per-basis measurement suffixes (fixed across evaluations). */
    std::vector<Circuit> suffixes_;
    std::vector<std::uint64_t> basisShots_;
};

/**
 * JigSaw-for-VQA estimator: every basis circuit is mitigated
 * independently with fresh Globals and fresh sliding-window subsets
 * each evaluation — the costly prior approach VarSaw improves on.
 */
class JigsawEstimator : public EnergyEstimator
{
  public:
    /**
     * @param hamiltonian Problem Hamiltonian.
     * @param ansatz      Parameterized preparation circuit,
     *                    snapshotted at construction.
     * @param executor    Backend (counts the circuit cost).
     * @param config      Subset size, shots, reconstruction passes.
     * @param basis_mode  Commutation reduction flavor.
     * @param runtime     Batch runtime tunables (threads, cache).
     */
    JigsawEstimator(const Hamiltonian &hamiltonian,
                    const Circuit &ansatz, Executor &executor,
                    const JigsawConfig &config,
                    BasisMode basis_mode = BasisMode::Cover,
                    const RuntimeConfig &runtime = {});

    double estimate(const std::vector<double> &params) override;

    std::string name() const override { return "jigsaw"; }

    /** The cover-reduced measurement bases in use. */
    const BasisReduction &reduction() const { return reduction_; }

    /** The session (private or on a shared service)
     * circuits are submitted through. */
    Session &runtime() { return *runtime_; }
    const Session &runtime() const { return *runtime_; }

  private:
    const Hamiltonian &hamiltonian_;
    /** Construction-time ansatz snapshot, shared by every job. */
    std::shared_ptr<const Circuit> prep_;
    std::unique_ptr<Session> runtime_;
    JigsawConfig config_;
    BasisReduction reduction_;
    /** Per-basis suffix sets (windows + CPM/Global suffixes). */
    std::vector<JigsawCircuitSet> suffixSets_;
};

/**
 * Shared helper: energy from per-basis output PMFs. Basis b's PMF
 * must span all qubits (bit q = qubit q); each term assigned to b
 * is evaluated as the parity expectation over its support.
 */
double energyFromBasisPmfs(const Hamiltonian &hamiltonian,
                           const BasisReduction &reduction,
                           const std::vector<Pmf> &basis_pmfs);

} // namespace varsaw

#endif // VARSAW_VQA_ESTIMATOR_HH
