// Explicit instantiations of the BayesLSH engines for the built-in
// (posterior model, signature store) combinations. The template definitions
// live in core/bayes_lsh_impl.h so that other callers can instantiate the
// engines for their own stores.

#include "core/bayes_lsh_impl.h"

namespace bayeslsh {

template std::vector<ScoredPair>
BayesLshVerify<JaccardPosterior, IntSignatureStore>(
    const JaccardPosterior&, IntSignatureStore*,
    const std::vector<std::pair<uint32_t, uint32_t>>&, const BayesLshParams&,
    VerifyStats*);
template std::vector<ScoredPair>
BayesLshVerify<CosinePosterior, BitSignatureStore>(
    const CosinePosterior&, BitSignatureStore*,
    const std::vector<std::pair<uint32_t, uint32_t>>&, const BayesLshParams&,
    VerifyStats*);
template std::vector<ScoredPair>
BayesLshLiteVerify<JaccardPosterior, IntSignatureStore>(
    const JaccardPosterior&, IntSignatureStore*,
    const std::vector<std::pair<uint32_t, uint32_t>>&, uint32_t,
    const std::function<double(uint32_t, uint32_t)>&, double,
    const BayesLshParams&, VerifyStats*);
template std::vector<ScoredPair>
BayesLshLiteVerify<CosinePosterior, BitSignatureStore>(
    const CosinePosterior&, BitSignatureStore*,
    const std::vector<std::pair<uint32_t, uint32_t>>&, uint32_t,
    const std::function<double(uint32_t, uint32_t)>&, double,
    const BayesLshParams&, VerifyStats*);
template std::vector<ScoredPair>
BayesLshVerify<BbitMinwisePosterior, BbitSignatureStore>(
    const BbitMinwisePosterior&, BbitSignatureStore*,
    const std::vector<std::pair<uint32_t, uint32_t>>&, const BayesLshParams&,
    VerifyStats*);
template std::vector<ScoredPair>
BayesLshLiteVerify<BbitMinwisePosterior, BbitSignatureStore>(
    const BbitMinwisePosterior&, BbitSignatureStore*,
    const std::vector<std::pair<uint32_t, uint32_t>>&, uint32_t,
    const std::function<double(uint32_t, uint32_t)>&, double,
    const BayesLshParams&, VerifyStats*);

}  // namespace bayeslsh
