// Layer attribution of recorded span trees.
//
// The benchmark records one span tree per traced operation: its own spans
// around every call into a layer (snapshot, rewriter set-up, executor
// binding, xml update, summary build, apply-update, checkpoint) with the
// spans the library already emits attached underneath (rewrite phases,
// plan operators, the maintenance pass and its WAL/persist children).
// Every span name maps to a "layer.part" bucket; a span's self time (its
// duration minus its children's, which run sequentially) is charged to its
// bucket.
#ifndef SVXBENCH_SPANS_H_
#define SVXBENCH_SPANS_H_

#include <map>
#include <string>

#include "src/observability/trace.h"

namespace svxbench {

/// Self time per "layer.part" bucket, summed over the trees added.
class LayerTimes {
 public:
  /// Charges every span of the tree rooted at `root` to its bucket.
  void Add(const svx::TraceSpan& root);

  /// Operations added (one per root).
  int64_t ops() const { return ops_; }
  /// Summed root durations, in microseconds.
  double total_us() const { return total_us_; }
  /// Summed self time of one bucket (e.g. "algebra.scan"), microseconds.
  double BucketUs(const std::string& bucket) const;
  /// Summed self time of every bucket of `layer` (e.g. "algebra").
  double LayerUs(const std::string& layer) const;

  void Merge(const LayerTimes& other);

 private:
  void AddSpan(const svx::TraceSpan& span, const std::string& parent_bucket);

  int64_t ops_ = 0;
  double total_us_ = 0;
  std::map<std::string, double> self_us_;
};

}  // namespace svxbench

#endif  // SVXBENCH_SPANS_H_
