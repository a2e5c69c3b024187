// Synthetic text-corpus generator: the stand-in for RCV1 and the WikiWords
// datasets (see DESIGN.md §2 for the substitution rationale).
//
// Documents are bags of words drawn from a Zipfian vocabulary with
// log-normal lengths. A configurable number of *planted clusters* provides
// the similarity structure an all-pairs search needs: each cluster starts
// from a base document and adds near-duplicates where a fraction p of the
// tokens (drawn uniformly from [mutation_min, mutation_max] per duplicate)
// is resampled — sweeping p populates every similarity band between
// ~(1 - mutation_max) and ~(1 - mutation_min).
//
// The generator emits raw term counts; feed through TfIdfTransform +
// L2NormalizeRows (weighted cosine) or Binarize (Jaccard / binary cosine).

#ifndef BAYESLSH_DATA_TEXT_GENERATOR_H_
#define BAYESLSH_DATA_TEXT_GENERATOR_H_

#include <cstdint>

#include "vec/dataset.h"

namespace bayeslsh {

struct TextCorpusConfig {
  uint32_t num_docs = 5000;
  uint32_t vocab_size = 20000;
  double zipf_exponent = 1.05;  // Word-frequency skew.

  double avg_doc_len = 80.0;    // Mean token count (with repetition).
  double doc_len_sigma = 0.45;  // Sigma of the log-normal length law.
  uint32_t min_doc_len = 8;

  // Planted near-duplicate clusters.
  uint32_t num_clusters = 150;
  uint32_t cluster_size = 4;       // Documents per cluster (incl. the base).
  double mutation_min = 0.02;      // Fraction of tokens resampled...
  double mutation_max = 0.65;      // ...per near-duplicate.

  uint64_t seed = 1;
};

// Returns a Dataset of raw term counts (row = document, value = term count).
// Rows 0 .. num_clusters*cluster_size-1 are the planted clusters (grouped
// consecutively); the rest is background. Throws std::invalid_argument
// when cluster_size is 0 or the planted rows exceed num_docs.
Dataset GenerateTextCorpus(const TextCorpusConfig& config);

}  // namespace bayeslsh

#endif  // BAYESLSH_DATA_TEXT_GENERATOR_H_
