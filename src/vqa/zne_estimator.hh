/**
 * @file
 * Zero-noise-extrapolated energy estimator.
 *
 * Applies ZNE (mitigation/zne.hh) on top of the baseline
 * measurement pipeline: per fold factor every basis circuit is
 * folded and measured, per-factor energies are Richardson
 * extrapolated to zero gate noise. Circuit cost per evaluation is
 * factors x bases. Attacks *gate* noise — complementary to the
 * measurement-error mitigation of JigSaw/VarSaw.
 */

#ifndef VARSAW_VQA_ZNE_ESTIMATOR_HH
#define VARSAW_VQA_ZNE_ESTIMATOR_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "mitigation/executor.hh"
#include "mitigation/zne.hh"
#include "pauli/commutation.hh"
#include "pauli/hamiltonian.hh"
#include "service/execution_service.hh"
#include "vqa/estimator.hh"

namespace varsaw {

/** ZNE-on-baseline energy estimator. */
class ZneEstimator : public EnergyEstimator
{
  public:
    /**
     * @param hamiltonian Problem Hamiltonian.
     * @param ansatz      Parameterized preparation circuit.
     * @param executor    Backend (counts the circuit cost).
     * @param shots       Shots per circuit (0 = exact).
     * @param factors     Odd fold factors (default {1, 3, 5}).
     * @param runtime     Batch runtime tunables (threads, cache) or,
     *                    via runtime.service, the shared execution
     *                    service to open a session on. All folded
     *                    basis circuits of one evaluation are
     *                    submitted as one batch.
     */
    ZneEstimator(const Hamiltonian &hamiltonian, const Circuit &ansatz,
                 Executor &executor, std::uint64_t shots,
                 std::vector<int> factors = {1, 3, 5},
                 const RuntimeConfig &runtime = {});

    double estimate(const std::vector<double> &params) override;

    std::string name() const override { return "zne"; }

    /** The fold factors in use. */
    const std::vector<int> &factors() const { return factors_; }

    /** The cover-reduced measurement bases in use. */
    const BasisReduction &reduction() const { return reduction_; }

    /** The session (private or on a shared service)
     * circuits are submitted through. */
    Session &runtime() { return *runtime_; }
    const Session &runtime() const { return *runtime_; }

  private:
    const Hamiltonian &hamiltonian_;
    const Circuit &ansatz_;
    std::unique_ptr<Session> runtime_;
    std::uint64_t shots_;
    std::vector<int> factors_;
    BasisReduction reduction_;
};

} // namespace varsaw

#endif // VARSAW_VQA_ZNE_ESTIMATOR_HH
