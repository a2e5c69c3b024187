// Explicit instantiations of InferenceCache for the built-in posterior
// models; the template definitions live in core/inference_cache_impl.h.

#include "core/inference_cache_impl.h"

namespace bayeslsh {

template class InferenceCache<JaccardPosterior>;
template class InferenceCache<CosinePosterior>;
template class InferenceCache<BbitMinwisePosterior>;
template class InferenceCache<EuclideanPosterior>;

}  // namespace bayeslsh
