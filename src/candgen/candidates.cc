#include "candgen/candidates.h"

#include <algorithm>

namespace bayeslsh {

namespace {

// A sorted, duplicate-free stretch of the key vector.
struct KeyRun {
  const uint64_t* next;
  const uint64_t* end;
};

void AppendPair(uint64_t key, CandidateList* out) {
  out->pairs.emplace_back(static_cast<uint32_t>(key >> 32),
                          static_cast<uint32_t>(key));
}

// Merges the non-empty runs into out->pairs in key order, keeping one copy
// of a key that several runs hold. The heap holds each run's next key, so
// ordering it never dereferences a run.
void MergeKeyRuns(std::vector<KeyRun> runs, CandidateList* out) {
  struct Head {
    uint64_t key;
    uint32_t run;
  };
  std::vector<Head> heap;
  for (uint32_t r = 0; r < runs.size(); ++r) {
    heap.push_back({*runs[r].next++, r});
  }
  const auto later = [](const Head& x, const Head& y) {
    return x.key > y.key;
  };
  std::make_heap(heap.begin(), heap.end(), later);
  uint64_t last = 0;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    Head& head = heap.back();
    if (out->pairs.empty() || head.key != last) {
      AppendPair(head.key, out);
      last = head.key;
    }
    KeyRun& run = runs[head.run];
    if (run.next == run.end) {
      heap.pop_back();
    } else {
      head.key = *run.next++;
      std::push_heap(heap.begin(), heap.end(), later);
    }
  }
}

}  // namespace

CandidateList DedupPairKeys(std::vector<uint64_t>&& keys, ThreadPool* pool) {
  CandidateList out;
  out.raw_emitted = keys.size();
  if (pool == nullptr || pool->num_threads() <= 1) {
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    out.pairs.reserve(keys.size());
    for (uint64_t k : keys) AppendPair(k, &out);
  } else {
    // Pieces left unset (fewer keys than workers, or a nested call that
    // runs inline as one piece) stay empty.
    std::vector<KeyRun> runs(pool->num_threads(), KeyRun{nullptr, nullptr});
    pool->RunShards(keys.size(), [&](uint32_t s, uint64_t b, uint64_t e) {
      uint64_t* first = keys.data() + b;
      std::sort(first, keys.data() + e);
      runs[s] = {first, std::unique(first, keys.data() + e)};
    });
    runs.erase(std::remove_if(runs.begin(), runs.end(),
                              [](const KeyRun& r) { return r.next == r.end; }),
               runs.end());
    uint64_t bound = 0;
    for (const KeyRun& r : runs) bound += r.end - r.next;
    out.pairs.reserve(bound);
    MergeKeyRuns(std::move(runs), &out);
  }
  keys.clear();
  keys.shrink_to_fit();
  return out;
}

}  // namespace bayeslsh
