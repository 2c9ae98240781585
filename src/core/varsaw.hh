/**
 * @file
 * The VarSaw energy estimator: spatial + temporal optimization of
 * JigSaw measurement-error mitigation for VQAs (Section 4).
 *
 * Per objective evaluation ("tick"):
 *  1. execute the spatially-reduced subset set once; every basis's
 *     window marginals are answered from these shared results
 *     through the covering relation;
 *  2. per basis, reconstruct a mitigated PMF either from a fresh
 *     Global (only on scheduler-chosen ticks) or from the previous
 *     tick's mitigated PMF (the stale chain);
 *  3. on check ticks compute both variants, keep the better energy,
 *     and hill-climb the Global interval.
 */

#ifndef VARSAW_CORE_VARSAW_HH
#define VARSAW_CORE_VARSAW_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/spatial.hh"
#include "core/temporal.hh"
#include "mitigation/bayesian.hh"
#include "mitigation/executor.hh"
#include "mitigation/mbm.hh"
#include "pauli/hamiltonian.hh"
#include "service/execution_service.hh"
#include "sim/circuit.hh"
#include "vqa/estimator.hh"

namespace varsaw {

/** VarSaw tunables. */
struct VarsawConfig
{
    /** Subset (window) size; 2 is optimal (Appendix A). */
    int subsetSize = 2;

    /** Shots per subset circuit. */
    std::uint64_t subsetShots = 2048;

    /** Shots per Global circuit. */
    std::uint64_t globalShots = 4096;

    /** Bayesian reconstruction sweeps. */
    int reconstructionPasses = 1;

    /** Commutation reduction used for the measurement bases. */
    BasisMode basisMode = BasisMode::Cover;

    /** Temporal (Global sparsity) configuration. */
    GlobalScheduler::Config temporal;

    /**
     * Optionally stack IBM-style matrix-based mitigation on the
     * Global PMFs before reconstruction (Fig. 18). Disabled when
     * unset.
     */
    std::optional<MbmCalibration> mbm;

    /** How circuits are submitted (threads, dedupe, or a shared
     * service; see makeSubmitter()). */
    RuntimeConfig runtime;
};

/** The VarSaw estimator (the paper's proposed system). */
class VarsawEstimator : public EnergyEstimator
{
  public:
    /**
     * @param hamiltonian Problem Hamiltonian.
     * @param ansatz      Parameterized preparation circuit,
     *                    snapshotted at construction — later
     *                    changes to the caller's circuit do not
     *                    affect this estimator.
     * @param executor    Backend (counts the circuit cost).
     * @param config      VarSaw tunables.
     */
    VarsawEstimator(const Hamiltonian &hamiltonian,
                    const Circuit &ansatz, Executor &executor,
                    const VarsawConfig &config);

    double estimate(const std::vector<double> &params) override;

    /**
     * Advance to the next optimizer iteration: the most recent
     * mitigated result becomes the reconstruction prior for every
     * probe of the new iteration, and the Global schedule ticks
     * once. Called by VqeDriver; when never called (direct use,
     * tests), every estimate() is treated as its own iteration.
     */
    void onIterationBoundary() override;

    std::string name() const override { return "varsaw"; }

    /** The precomputed spatial plan. */
    const SpatialPlan &plan() const { return plan_; }

    /** The temporal scheduler (globals-run stats, interval). */
    const GlobalScheduler &scheduler() const { return scheduler_; }

    /** Objective evaluations performed so far. */
    std::uint64_t ticks() const { return evaluations_; }

    /** Optimizer iterations seen so far. */
    std::uint64_t iterations() const { return iteration_; }

    /** Reset temporal state (stale chain + scheduler + counters). */
    void resetTemporalState();

    /** The session (private or on a shared service)
     * circuits are submitted through. */
    Session &runtime() { return *runtime_; }
    const Session &runtime() const { return *runtime_; }

  private:
    /** Build per-basis LocalPmfs from this tick's subset runs. */
    std::vector<std::vector<LocalPmf>>
    collectLocals(const std::vector<double> &params);

    /** Reconstruct all bases against the given priors. */
    std::vector<Pmf>
    reconstructAll(const std::vector<Pmf> &priors,
                   const std::vector<std::vector<LocalPmf>> &locals)
        const;

    /** Execute fresh Globals for every basis. */
    std::vector<Pmf> runGlobals(const std::vector<double> &params);

    /** Close the current iteration window and open the next. */
    void advanceIteration();

    const Hamiltonian &hamiltonian_;
    /** Construction-time ansatz snapshot, shared by every job. */
    std::shared_ptr<const Circuit> prep_;
    std::unique_ptr<Session> runtime_;
    VarsawConfig config_;
    SpatialPlan plan_;
    GlobalScheduler scheduler_;
    /** Suffixes of the reduced subset set (fixed per estimator). */
    std::vector<Circuit> subsetSuffixes_;
    /** Per-basis Global suffixes (fixed per estimator). */
    std::vector<Circuit> globalSuffixes_;

    /** Reconstruction prior for all probes of this iteration. */
    std::vector<Pmf> prior_;
    bool havePrior_ = false;

    /** Most recent probe's mitigated PMFs (next iteration's prior). */
    std::vector<Pmf> lastResult_;
    bool haveResult_ = false;

    std::uint64_t iteration_ = 0;
    bool iterationStarted_ = false;
    int probesThisIteration_ = 0;
    bool externallyPaced_ = false;
    std::uint64_t evaluations_ = 0;
};

} // namespace varsaw

#endif // VARSAW_CORE_VARSAW_HH
