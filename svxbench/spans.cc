#include "svxbench/spans.h"

#include <cstdint>
#include <string_view>

namespace svxbench {
namespace {

struct BucketRule {
  std::string_view span;
  const char* bucket;
};

// Span names of the benchmark (read, write, snapshot, rewriter_setup,
// exec_catalog, execute, update_gen, xml_update, summary_build,
// apply_update, checkpoint) and of the library (cache-lookup, the rewrite
// phases of rewriter.cc, the plan operators of plan.cc's PlanKindName, and
// view_catalog.cc's maintenance_pass / wal_append / persist).
constexpr BucketRule kRules[] = {
    {"read", "harness.read"},
    {"write", "harness.write"},
    {"update_gen", "harness.update_gen"},
    {"snapshot", "viewstore.snapshot"},
    {"cache-lookup", "viewstore.cache_lookup"},
    {"exec_catalog", "viewstore.exec_catalog"},
    {"apply_update", "viewstore.apply_update"},
    {"wal_append", "viewstore.wal_append"},
    {"persist", "viewstore.persist"},
    {"checkpoint", "viewstore.checkpoint"},
    {"rewriter_setup", "rewriting.setup"},
    {"rewrite", "rewriting.other"},
    {"analyze", "rewriting.analyze"},
    {"prune-views", "rewriting.prune_views"},
    {"expand-views", "rewriting.expand_views"},
    {"plan-enum", "rewriting.plan_enum"},
    {"match-single-views", "rewriting.plan_enum"},
    {"enumerate-joins", "rewriting.plan_enum"},
    {"union-partials", "rewriting.other"},
    {"rank-by-cost", "rewriting.rank"},
    {"execute", "algebra.other"},
    {"scan", "algebra.scan"},
    {"join=", "algebra.idjoin"},
    {"sjoin", "algebra.sjoin"},
    {"navC", "algebra.nav"},
    {"navfID", "algebra.nav"},
    {"maintenance_pass", "maintenance.pass"},
    {"xml_update", "xml.update"},
    {"summary_build", "summary.build"},
};

/// The bucket of a span; an unlisted name (e.g. the select/project/union
/// operators) is charged to "<parent's layer>.other".
std::string BucketOf(std::string_view name, const std::string& parent_bucket) {
  for (const BucketRule& r : kRules) {
    if (r.span == name) return r.bucket;
  }
  return parent_bucket.substr(0, parent_bucket.find('.')) + ".other";
}

}  // namespace

void LayerTimes::Add(const svx::TraceSpan& root) {
  ++ops_;
  total_us_ += static_cast<double>(root.duration_us());
  AddSpan(root, "harness.other");
}

void LayerTimes::AddSpan(const svx::TraceSpan& span,
                         const std::string& parent_bucket) {
  const std::string bucket = BucketOf(span.name(), parent_bucket);
  int64_t self_us = span.duration_us();
  for (const auto& child : span.children()) {
    self_us -= child->duration_us();
    AddSpan(*child, bucket);
  }
  // Children are timed by their own clocks; rounding may push the
  // difference a microsecond below zero.
  if (self_us > 0) self_us_[bucket] += static_cast<double>(self_us);
}

double LayerTimes::BucketUs(const std::string& bucket) const {
  auto it = self_us_.find(bucket);
  return it == self_us_.end() ? 0 : it->second;
}

double LayerTimes::LayerUs(const std::string& layer) const {
  double sum = 0;
  const std::string prefix = layer + ".";
  for (const auto& [bucket, us] : self_us_) {
    if (bucket.compare(0, prefix.size(), prefix) == 0) sum += us;
  }
  return sum;
}

void LayerTimes::Merge(const LayerTimes& other) {
  ops_ += other.ops_;
  total_us_ += other.total_us_;
  for (const auto& [bucket, us] : other.self_us_) self_us_[bucket] += us;
}

}  // namespace svxbench
