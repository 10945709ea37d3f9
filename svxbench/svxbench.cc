// svx end-to-end benchmark: drives the library the way a user of it does.
//
//   read:  ViewCatalog::Snapshot → CachedRewrite → Execute
//   write: InsertSubtree / DeleteSubtree → SummaryBuilder::Build →
//          ViewCatalog::ApplyUpdateBatch (one delta) → periodic Save
//   recovery: a fresh ViewCatalog → Load (+ WAL replay)
//
// over three workloads, every input generated from --seed (XMark document,
// template order, literals, update stream):
//
//   cold-rewrite  4 documents at scale 1, 1 closed-loop client, each read a
//                 fresh [v>c] literal so every read misses the rewrite cache
//   hot-scan      scale 200, 2 closed-loop clients, plain templates, a 4 MB
//                 decoded-extent budget below the working set
//   update-mix    scale 20, 2 closed-loop clients plus an open-loop writer
//                 (5 updates/s, checkpoint Save every 10 writes) on a store
//                 with the write-ahead delta log
//
// Layers are measured from outside: calls into their public functions are
// timed, and RewriteStats, MaintenanceStats, DebugMetrics() and the svx_*
// registry counters are read. With --trace 1 every other round of each
// client (and every other write) records a span tree: the benchmark's spans
// around each layer call with the library's own spans attached underneath.
// The trees stay in memory and are written to .bench_out/trace-<workload>-
// <seed>.json at the end; spans.h turns them into per-layer self times, and
// the untraced rounds of the same run give the tracing overhead.
//
// Correctness is checked outside the timed window: sampled reads against
// direct evaluation over the same snapshot's document, maintained extents
// against rematerialization after update-mix, and the reopened store
// against the live catalog. A mismatch counts as a failed operation and
// makes the exit code 1.
//
// The last stdout line is one JSON object with every metric (name, value,
// unit), the sizes and the configuration; svxbench/run.py builds this
// binary, runs it and reshapes that line.
//
//   $ svxbench --workload update-mix --seed 7 --seconds 10 --trace 0
//
// Stores and traces go to .bench_out/ under the working directory.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/algebra/executor.h"
#include "src/observability/metrics.h"
#include "src/observability/trace.h"
#include "src/pattern/pattern_parser.h"
#include "src/rewriting/rewriter.h"
#include "src/rewriting/view.h"
#include "src/summary/summary_builder.h"
#include "src/util/check.h"
#include "src/util/json_writer.h"
#include "src/util/rng.h"
#include "src/util/strings.h"
#include "src/util/timer.h"
#include "src/viewstore/rewrite_cache.h"
#include "src/viewstore/view_catalog.h"
#include "src/workload/xmark.h"
#include "src/workload/xmark_queries.h"
#include "src/xml/builder.h"
#include "src/xml/serializer.h"
#include "src/xml/update.h"
#include "svxbench/spans.h"

namespace svxbench {
namespace {

namespace fs = std::filesystem;
using svx::Document;
using svx::Pattern;
using svx::Result;
using svx::Status;
using svx::Summary;
using svx::Table;
using svx::Timer;
using svx::ViewCatalog;
using Clock = std::chrono::steady_clock;

constexpr int kTemplates = 20;
/// q7's conjunctive form is a three-way cross product: never evaluate it
/// directly (it has no rewriting over the base views, so no read of it
/// executes a plan either).
constexpr int kNeverDirect = 7;
/// Writes made after the final checkpoint, so recovery always replays the
/// same number of WAL records.
constexpr int kReplayRecords = 10;
/// Set-up and recovery are repeated at least `min` times and for at least
/// `min_s` seconds (at most `max` times). Set-up runs one batch before the
/// timed window and one after everything else, and reports the median of
/// both: the machine's speed drifts over seconds, and set-ups spread over
/// the whole run see the same mix of it as the reads do. Recovery, whose
/// single reopenings take milliseconds, reports a trimmed mean.
struct Repeat {
  int min, max;
  double min_s;
};
constexpr Repeat kSetupBatch = {3, 100, 4.0};
constexpr Repeat kRecoveries = {15, 5000, 1.5};
/// Where stores, traces and the run history go, under the working directory.
constexpr const char* kOutDir = ".bench_out";
/// Every kSampleEvery-th read of a client that executed a plan is checked
/// against direct evaluation, up to kMaxSamples per client (each keeps its
/// result rows until the check).
constexpr int64_t kSampleEvery = 5;
constexpr size_t kMaxSamples = 30;

struct WorkloadSpec {
  const char* name;
  double scale;
  /// Independent documents, each with its own catalog and store; a client's
  /// rounds cycle through them. Averages out what one small random document
  /// decides by chance (summary shape, which templates find rewritings).
  int collections;
  int clients;
  bool fresh_literals;  // a new [v>c] per read: every read misses the cache
  int64_t memory_budget_bytes;  // <= 0 = unlimited
  bool delta_log;
  double writes_per_s;   // 0 = no writer
  int checkpoint_every;  // writes between checkpoint Saves
  bool warm_round;       // one untimed round first, to fill the caches
};

constexpr WorkloadSpec kWorkloads[] = {
    {"cold-rewrite", 1.0, 4, 1, true, 0, false, 0, 0, false},
    {"hot-scan", 200.0, 1, 2, false, 4 << 20, false, 0, 0, true},
    {"update-mix", 20.0, 1, 2, false, 0, true, 5.0, 10, true},
};

// ---------------------------------------------------------------------------
// Small helpers.
// ---------------------------------------------------------------------------

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::max<size_t>(rank, 1) - 1];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

/// The p-quantile of latencies, smoothed: the mean of the order statistics
/// ranked within 2.5 percentage points of p. Reads cycle through 20
/// equally frequent templates whose latencies form separate bands, so the
/// plain quantile at p = 0.5 or 0.9 sits exactly on the border between two
/// bands and flips between them from run to run; averaging one band's
/// width of neighbours around the rank keeps it steady.
double SmoothedQuantile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  size_t lo = static_cast<size_t>(std::max(0.0, std::floor((p - 0.025) * n)));
  size_t hi = static_cast<size_t>(std::min(n, std::ceil((p + 0.025) * n)));
  lo = std::min(lo, v.size() - 1);
  hi = std::max(hi, lo + 1);
  double sum = 0;
  for (size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

/// Mean of `v` without its lowest and highest 10%.
double TrimmedMean(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t cut = v.size() / 10;
  double sum = 0;
  for (size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

int64_t DirBytes(const std::string& dir) {
  int64_t total = 0;
  std::error_code ec;
  for (const fs::directory_entry& e : fs::directory_iterator(dir, ec)) {
    if (e.is_regular_file()) total += static_cast<int64_t>(e.file_size());
  }
  return total;
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// The §5 base views: one {id,v} view per distinct summary tag.
std::vector<svx::ViewDef> BaseTagViews(const Summary& summary) {
  std::vector<std::string> tags;
  for (svx::PathId s = 1; s < summary.size(); ++s) {
    tags.push_back(summary.label(s));
  }
  std::sort(tags.begin(), tags.end());
  tags.erase(std::unique(tags.begin(), tags.end()), tags.end());
  std::vector<svx::ViewDef> views;
  const std::string& root = summary.label(summary.root());
  for (size_t i = 0; i < tags.size(); ++i) {
    views.push_back({svx::StrFormat("B%zu_%s", i, tags[i].c_str()),
                     svx::MustParsePattern(svx::StrFormat(
                         "%s(//%s{id,v})", root.c_str(), tags[i].c_str()))});
  }
  return views;
}

/// Counter values read before and after the timed window.
struct Counters {
  int64_t rows_scanned, rows_out, evictions, reloads, reload_us, reload_n,
      wal_bytes, persist_bytes;

  static Counters Read() {
    namespace m = svx::metrics;
    return {m::ExecutorRowsScanned()->Value(), m::ExecutorRowsEmitted()->Value(),
            m::ExtentEvictions()->Value(),     m::ExtentReloads()->Value(),
            m::ExtentReloadUs()->Sum(),        m::ExtentReloadUs()->Count(),
            m::WalBytesWritten()->Value(),     m::PersistBytesWritten()->Value()};
  }
  Counters Minus(const Counters& b) const {
    return {rows_scanned - b.rows_scanned, rows_out - b.rows_out,
            evictions - b.evictions,       reloads - b.reloads,
            reload_us - b.reload_us,       reload_n - b.reload_n,
            wal_bytes - b.wal_bytes,       persist_bytes - b.persist_bytes};
  }
};

// ---------------------------------------------------------------------------
// Set-up: document, summary, base views, materialization; then the served
// catalogs' first Save.
// ---------------------------------------------------------------------------

struct World {
  std::shared_ptr<Document> doc;
  std::shared_ptr<const Summary> summary;
  std::unique_ptr<ViewCatalog> catalog;
  svx::ViewCatalogOptions options;
  double generate_ms = 0, summary_ms = 0, materialize_ms = 0;
};

/// The in-memory part of a set-up, which setup_s times. The views go into
/// a catalog without the delta log: materializing into a logging catalog
/// checkpoints after every view (81 manifest rewrites, log rotations and
/// directory sweeps), and file-system calls cost 6 to 127 ms of kernel time
/// for the same 163 files depending on what else uses the shared disk.
Result<World> SetUp(const WorkloadSpec& w, uint64_t seed,
                    const std::string& store_dir) {
  World world;
  Timer t;
  svx::XmarkOptions xo;
  xo.scale = w.scale;
  xo.seed = seed;
  world.doc = std::shared_ptr<Document>(svx::GenerateXmark(xo));
  world.generate_ms = t.ElapsedMillis();
  t.Reset();
  world.summary = std::shared_ptr<Summary>(svx::SummaryBuilder::Build(world.doc.get()));
  world.summary_ms = t.ElapsedMillis();
  world.options.dir = store_dir;
  world.options.enable_delta_log = w.delta_log;
  world.options.memory_budget_bytes = w.memory_budget_bytes;
  svx::ViewCatalogOptions bulk = world.options;
  bulk.enable_delta_log = false;
  world.catalog = std::make_unique<ViewCatalog>(bulk);
  t.Reset();
  for (const svx::ViewDef& def : BaseTagViews(*world.summary)) {
    Status s = world.catalog->Materialize(def, *world.doc);
    if (!s.ok()) return s;
  }
  world.catalog->BindDocument(world.doc, world.summary);
  world.materialize_ms = t.ElapsedMillis();
  return world;
}

/// The served world's first Save; with the delta log, a logging catalog
/// then opens the saved store and replaces the bulk-loaded one.
Status Persist(World* world) {
  SVX_RETURN_IF_ERROR(world->catalog->Save());
  if (!world->options.enable_delta_log) return Status::OK();
  auto logging = std::make_unique<ViewCatalog>(world->options);
  SVX_RETURN_IF_ERROR(logging->Load(world->doc, world->summary));
  world->catalog = std::move(logging);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Reads.
// ---------------------------------------------------------------------------

/// A read that executed a plan, kept for the post-window check. `doc`
/// shares ownership of the read's snapshot, which holds the document that
/// epoch was bound to: only sampled epochs outlive the writer's next
/// update, and each counts as live until the check.
struct Sample {
  std::shared_ptr<const Document> doc;
  uint64_t epoch = 0;
  int number = 0;
  Pattern query;
  Table rows;
};

/// What one client observed. Traced rounds feed `traced_ms` and `layers`;
/// untraced ones `untraced_ms`.
struct ClientOut {
  std::vector<double> untraced_ms, traced_ms;
  int64_t reads = 0, failed = 0, executed = 0, no_rewriting = 0,
          truncated = 0, cache_hits = 0, misses = 0;
  double miss_ms = 0, hit_us = 0, snapshot_us = 0, execute_ms = 0;
  int64_t plans_generated = 0, plans_dominated = 0, candidates_pruned = 0,
          memo_hits = 0, memo_misses = 0, epochs_live_max = 0;
  std::vector<Sample> samples;
  std::vector<std::unique_ptr<svx::Trace>> traces;
  LayerTimes layers;
};

/// Template `number` as read by the workload: the conjunctive XMark
/// pattern, with `literal` >= 0 put as [v>literal] on its first value node
/// that has no predicate yet — or, when every value node has one (q6, q20),
/// on its first such return node.
Pattern ReadPattern(int number, int64_t literal) {
  Pattern q = svx::GetXmarkQueryPatternConjunctive(number);
  if (literal < 0) return q;
  for (uint8_t attrs : {svx::kAttrValue, svx::kAttrId}) {
    for (svx::PatternNodeId n = 0; n < q.size(); ++n) {
      Pattern::Node& node = q.mutable_node(n);
      if ((node.attrs & attrs) != 0 && node.pred.IsTrue()) {
        node.pred = svx::Predicate::Gt(literal);
        return q;
      }
    }
  }
  return q;
}

/// One read: snapshot, rewrite through the snapshot's cache, execute the
/// cheapest plan. Returns false on a failure (a non-OK status). `root` is
/// null for untraced reads.
bool ReadOnce(const ViewCatalog& catalog, const Pattern& q, int number,
              bool sample, svx::TraceSpan* root, ClientOut* out) {
  std::shared_ptr<const svx::CatalogSnapshot> snap;
  {
    svx::ScopedSpan span(root, "snapshot");
    Timer t;
    snap = catalog.Snapshot();
    out->snapshot_us += t.ElapsedMicros();
  }
  out->epochs_live_max =
      std::max(out->epochs_live_max, svx::metrics::EpochsLive()->Value());
  svx::RewriterOptions opts;
  opts.max_results = 1;
  opts.cost_model = &snap->cost_model();
  opts.memo = snap->containment_memo();
  opts.trace = root;
  std::shared_ptr<const svx::ViewIndex> index;
  std::optional<svx::Rewriter> rewriter;
  {
    svx::ScopedSpan span(root, "rewriter_setup");
    index = snap->ViewIndexFor(*snap->summary(), opts.expansion);
    opts.shared_view_index = index.get();
    rewriter.emplace(*snap->summary(), opts);
    for (const auto& v : snap->views()) rewriter->AddView(v->def);
  }
  svx::RewriteStats stats;
  Timer rt;
  Result<std::vector<svx::Rewriting>> rws =
      svx::CachedRewrite(snap->rewrite_cache(), &*rewriter, q, &stats);
  const double rewrite_ms = rt.ElapsedMillis();
  if (!rws.ok()) {
    std::fprintf(stderr, "read q%d: %s\n", number,
                 rws.status().ToString().c_str());
    return false;
  }
  if (stats.rewrite_cache_hits > 0) {
    ++out->cache_hits;
    out->hit_us += rewrite_ms * 1000.0;
  } else {
    ++out->misses;
    out->miss_ms += rewrite_ms;
    out->plans_generated += static_cast<int64_t>(stats.plans_generated);
    out->plans_dominated += static_cast<int64_t>(stats.plans_dominated);
    out->candidates_pruned += static_cast<int64_t>(stats.candidates_pruned);
    out->memo_hits += static_cast<int64_t>(stats.containment_memo_hits);
    out->memo_misses += static_cast<int64_t>(stats.containment_memo_misses);
    if (stats.search_truncated || stats.time_budget_hit) ++out->truncated;
  }
  // A template without a rewriting (q7) is answered: "no rewriting".
  if (rws->empty()) {
    ++out->no_rewriting;
    return true;
  }
  svx::Catalog bindings;
  {
    svx::ScopedSpan span(root, "exec_catalog");
    bindings = snap->ExecutorCatalog();
  }
  Result<Table> rows = Status::Internal("not executed");
  {
    svx::ScopedSpan span(root, "execute");
    Timer et;
    rows = svx::Execute(*rws->front().plan, bindings, span.get());
    out->execute_ms += et.ElapsedMillis();
  }
  if (!rows.ok()) {
    std::fprintf(stderr, "execute q%d: %s\n", number,
                 rows.status().ToString().c_str());
    return false;
  }
  ++out->executed;
  if (sample && number != kNeverDirect &&
      out->samples.size() < kMaxSamples) {
    std::shared_ptr<const Document> doc(snap, snap->document());
    out->samples.push_back(
        {std::move(doc), snap->epoch(), number, q, std::move(rows).value()});
  }
  return true;
}

/// A client's closed loop: rounds over the 20 templates in a seeded order
/// until `stop` (or `max_rounds`). Rounds go in pairs to one catalog,
/// cycling through `catalogs`; with `trace` the second round of each pair
/// records span trees, so traced and untraced reads see the same documents.
void ClientLoop(const WorkloadSpec& w,
                const std::vector<const ViewCatalog*>& catalogs,
                uint64_t seed, int client, bool trace, int max_rounds,
                const std::atomic<bool>& stop, ClientOut* out) {
  svx::Rng rng(seed * 1000003u + static_cast<uint64_t>(client) * 7919u + 1);
  std::vector<int> order(kTemplates);
  std::vector<int64_t> literal_base(kTemplates + 1);
  for (int64_t& b : literal_base) b = rng.Uniform(0, 999);
  for (int round = 0; round < max_rounds || max_rounds < 0; ++round) {
    for (int i = 0; i < kTemplates; ++i) order[static_cast<size_t>(i)] = i + 1;
    for (int i = kTemplates - 1; i > 0; --i) {
      std::swap(order[static_cast<size_t>(i)],
                order[static_cast<size_t>(rng.Uniform(0, i))]);
    }
    const bool traced = trace && round % 2 == 1;
    const ViewCatalog& catalog =
        *catalogs[static_cast<size_t>(round / 2) % catalogs.size()];
    for (int number : order) {
      if (stop.load(std::memory_order_relaxed)) return;
      // Unique per template and round, so the rewrite cache never hits.
      const int64_t literal =
          w.fresh_literals ? literal_base[static_cast<size_t>(number)] + round
                           : -1;
      Pattern q = ReadPattern(number, literal);
      std::unique_ptr<svx::Trace> tr;
      if (traced) tr = std::make_unique<svx::Trace>("read");
      Timer t;
      const bool ok = ReadOnce(catalog, q, number,
                               out->reads % kSampleEvery == 0,
                               tr ? tr->root() : nullptr, out);
      const double ms = t.ElapsedMillis();
      ++out->reads;
      if (!ok) ++out->failed;
      if (tr) {
        tr->root()->End();
        out->traced_ms.push_back(ms);
        out->layers.Add(*tr->root());
        out->traces.push_back(std::move(tr));
      } else {
        out->untraced_ms.push_back(ms);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Writes (update-mix): an open-loop stream of item inserts and deletes.
// ---------------------------------------------------------------------------

struct WriterOut {
  std::vector<double> untraced_ms, traced_ms;  // due → ApplyUpdate returned
  int64_t writes = 0, failed = 0, checkpoints = 0;
  double late_ms = 0, xml_ms = 0, summary_ms = 0, apply_ms = 0,
         checkpoint_ms = 0;
  int64_t views_touched = 0, views_rebuilt = 0, tuples_changed = 0;
  std::vector<std::unique_ptr<svx::Trace>> traces;
  LayerTimes layers;
};

class Writer {
 public:
  Writer(ViewCatalog* catalog, std::shared_ptr<Document> doc,
         std::shared_ptr<const Summary> summary, uint64_t seed)
      : catalog_(catalog),
        doc_(std::move(doc)),
        summary_(std::move(summary)),
        initial_size_(doc_->size()),
        rng_(seed * 2654435761u + 17) {
    Result<std::unique_ptr<Document>> sub = svx::ParseTreeNotation(
        "item(name=fresh description(text=t keyword=new) payment=cash)");
    SVX_CHECK(sub.ok());
    subtree_ = std::move(sub).value();
  }
  // The writer thread holds this object's address.
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  /// One write, timed from `due`; `insert_only` rules out deletes. Returns
  /// false on failure.
  bool WriteOnce(Clock::time_point due, svx::TraceSpan* root, WriterOut* out,
                 bool insert_only = false) {
    out->late_ms += std::chrono::duration<double, std::milli>(Clock::now() - due)
                        .count();
    Result<svx::UpdateResult> up = Status::Internal("no update");
    {
      svx::ScopedSpan span(root, "update_gen");
      PickTarget(insert_only);
    }
    {
      svx::ScopedSpan span(root, "xml_update");
      Timer t;
      up = delete_ ? svx::DeleteSubtree(*doc_, target_)
                   : svx::InsertSubtree(*doc_, parent_, *subtree_,
                                        before_ ? &target_ : nullptr);
      out->xml_ms += t.ElapsedMillis();
    }
    if (!up.ok()) {
      std::fprintf(stderr, "xml update: %s\n", up.status().ToString().c_str());
      return false;
    }
    std::shared_ptr<Document> next(std::move(up->doc));
    std::shared_ptr<Summary> summary;
    {
      svx::ScopedSpan span(root, "summary_build");
      Timer t;
      summary = std::shared_ptr<Summary>(svx::SummaryBuilder::Build(next.get()));
      out->summary_ms += t.ElapsedMillis();
    }
    svx::MaintenanceStats ms;
    Status s;
    {
      svx::ScopedSpan span(root, "apply_update");
      Timer t;
      s = catalog_->ApplyUpdateBatch({up->delta}, next, summary, &ms,
                                     span.get());
      out->apply_ms += t.ElapsedMillis();
    }
    if (!s.ok()) {
      std::fprintf(stderr, "apply update: %s\n", s.ToString().c_str());
      return false;
    }
    doc_ = std::move(next);
    summary_ = std::move(summary);
    out->views_touched += ms.views_touched;
    out->views_rebuilt += ms.views_rebuilt;
    out->tuples_changed += ms.tuples_inserted + ms.tuples_deleted;
    return true;
  }

  bool Checkpoint(svx::TraceSpan* root, WriterOut* out) {
    svx::ScopedSpan span(root, "checkpoint");
    Timer t;
    Status s = catalog_->Save();
    out->checkpoint_ms += t.ElapsedMillis();
    ++out->checkpoints;
    if (!s.ok()) std::fprintf(stderr, "checkpoint: %s\n", s.ToString().c_str());
    return s.ok();
  }

  /// The open loop: write i is due at start + i / rate, whether or not the
  /// previous one has finished; a checkpoint Save follows every
  /// `checkpoint_every`-th write. With `trace`, odd writes record spans.
  void Loop(const WorkloadSpec& w, bool trace, Clock::time_point start,
            const std::atomic<bool>& stop, WriterOut* out) {
    const auto interval = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / w.writes_per_s));
    for (int64_t i = 0;; ++i) {
      const Clock::time_point due = start + interval * i;
      while (Clock::now() < due) {
        if (stop.load(std::memory_order_relaxed)) return;
        std::this_thread::sleep_for(std::min<Clock::duration>(
            due - Clock::now(), std::chrono::milliseconds(5)));
      }
      if (stop.load(std::memory_order_relaxed)) return;
      std::unique_ptr<svx::Trace> tr;
      if (trace && i % 2 == 1) tr = std::make_unique<svx::Trace>("write");
      svx::TraceSpan* root = tr ? tr->root() : nullptr;
      bool ok = WriteOnce(due, root, out);
      const double ms =
          std::chrono::duration<double, std::milli>(Clock::now() - due).count();
      ++out->writes;
      (tr ? out->traced_ms : out->untraced_ms).push_back(ms);
      if (ok && (i + 1) % w.checkpoint_every == 0) ok = Checkpoint(root, out);
      if (!ok) ++out->failed;
      if (tr) {
        tr->root()->End();
        out->layers.Add(*tr->root());
        out->traces.push_back(std::move(tr));
      }
    }
  }

  const std::shared_ptr<Document>& doc() const { return doc_; }
  const std::shared_ptr<const Summary>& summary() const { return summary_; }

 private:
  /// Seeded choice of the next update: a new item careted before an
  /// existing one or appended after its siblings, or — once the document
  /// has grown past its initial size — an existing item deleted.
  void PickTarget(bool insert_only) {
    std::vector<svx::NodeIndex> items;
    for (svx::NodeIndex n = 0; n < doc_->size(); ++n) {
      if (doc_->label(n) == "item") items.push_back(n);
    }
    SVX_CHECK(!items.empty());
    const svx::NodeIndex anchor = rng_.Pick(items);
    target_ = doc_->ord_path(anchor);
    delete_ = !insert_only && doc_->size() > initial_size_ &&
              rng_.Bernoulli(0.5);
    parent_ = doc_->ord_path(doc_->parent(anchor));
    before_ = rng_.Bernoulli(0.5);
  }

  ViewCatalog* catalog_;
  std::shared_ptr<Document> doc_;
  std::shared_ptr<const Summary> summary_;
  const int32_t initial_size_;
  svx::Rng rng_;
  std::unique_ptr<Document> subtree_;
  svx::OrdPath target_, parent_;
  bool delete_ = false, before_ = false;
};

// ---------------------------------------------------------------------------
// Correctness checks (outside the timed window).
// ---------------------------------------------------------------------------

/// Sampled reads must equal direct evaluation over their snapshot's
/// document. Returns the number of mismatches.
int64_t CheckSamples(const std::vector<Sample>& samples) {
  int64_t bad = 0;
  for (const Sample& s : samples) {
    Table direct = svx::MaterializeView(s.query, "Q", *s.doc);
    if (!s.rows.EqualsIgnoringOrder(direct)) {
      std::fprintf(stderr, "MISMATCH: q%d at epoch %llu: %lld rows vs %lld "
                   "by direct evaluation\n", s.number,
                   static_cast<unsigned long long>(s.epoch),
                   static_cast<long long>(s.rows.NumRows()),
                   static_cast<long long>(direct.NumRows()));
      ++bad;
    }
  }
  return bad;
}

/// Every extent of `a` must equal the same-named extent of `b` (when `b`
/// is non-null) or its rematerialization over `doc`.
int64_t CheckExtents(const ViewCatalog& a, const ViewCatalog* b,
                     const Document* doc, const char* what) {
  int64_t bad = 0;
  std::shared_ptr<const svx::CatalogSnapshot> snap = a.Snapshot();
  std::shared_ptr<const svx::CatalogSnapshot> other =
      b != nullptr ? b->Snapshot() : nullptr;
  if (other != nullptr && other->size() != snap->size()) {
    std::fprintf(stderr, "MISMATCH: %s: %d views vs %d\n", what, snap->size(),
                 other->size());
    return 1;
  }
  for (const auto& v : snap->views()) {
    Result<svx::TablePtr> mine = v->table();
    bool equal = mine.ok();
    if (equal && other != nullptr) {
      const svx::StoredView* theirs = other->Find(v->def.name);
      Result<svx::TablePtr> t =
          theirs != nullptr ? theirs->table() : Status::NotFound(v->def.name);
      equal = t.ok() && (*mine)->EqualsIgnoringOrder(**t);
    } else if (equal) {
      equal = (*mine)->EqualsIgnoringOrder(
          svx::MaterializeView(v->def.pattern, v->def.name, *doc));
    }
    if (!equal) {
      std::fprintf(stderr, "MISMATCH: %s: view %s\n", what, v->def.name.c_str());
      ++bad;
    }
  }
  return bad;
}

// ---------------------------------------------------------------------------
// The run.
// ---------------------------------------------------------------------------

struct Args {
  const WorkloadSpec* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

class Report {
 public:
  void Metric(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
    std::printf("metric %-40s %16.6f %s\n", name.c_str(), value, unit);
  }
  void Size(const std::string& name, int64_t value) {
    sizes_.push_back({name, value});
  }

  std::string Json(const Args& a, bool correct, int64_t attempted,
                   int64_t failed, const std::string& debug) const {
    svx::JsonWriter w(/*pretty=*/false);
    w.BeginObject();
    w.KV("workload", a.workload->name);
    w.KV("seed", a.seed);
    w.KV("seconds", a.seconds);
    w.KV("trace", a.trace);
    w.KV("correct", correct);
    w.KV("attempted", attempted);
    w.KV("failed", failed);
    w.Key("metrics");
    w.BeginObject();
    for (const auto& m : metrics_) {
      w.Key(m.name);
      w.BeginObject();
      w.Key("value");
      w.RawNumber(std::isfinite(m.value) ? svx::StrFormat("%.17g", m.value)
                                         : std::string("0"));
      w.KV("unit", m.unit);
      w.EndObject();
    }
    w.EndObject();
    w.Key("sizes");
    w.BeginObject();
    for (const auto& [name, v] : sizes_) w.KV(name, v);
    w.EndObject();
    w.Key("config");
    w.BeginObject();
    const WorkloadSpec& s = *a.workload;
    w.KV("scale", s.scale);
    w.KV("clients", static_cast<int64_t>(s.clients));
    w.KV("loop", "closed");
    w.KV("fresh_literals", s.fresh_literals);
    w.KV("memory_budget_bytes", s.memory_budget_bytes);
    w.KV("writer_loop", s.writes_per_s > 0 ? "open" : "none");
    w.KV("writes_per_s", s.writes_per_s);
    w.KV("checkpoint_every_writes", static_cast<int64_t>(s.checkpoint_every));
    w.KV("wal", s.delta_log);
    w.KV("flush_policy", "WAL appends fflush per record, never fsync; "
                         "reads served from the page cache");
    w.KV("collections", static_cast<int64_t>(s.collections));
    w.EndObject();
    w.KV("catalog_debug", debug);  // DebugMetrics() JSON, as a string
    w.EndObject();
    return w.str();
  }

 private:
  struct M {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<M> metrics_;
  std::vector<std::pair<std::string, int64_t>> sizes_;
};

/// Runs `step` until `r` is satisfied; `step` returns the milliseconds it
/// measured, or a negative value on failure. Returns the measurements,
/// empty on a failure.
template <typename Step>
std::vector<double> Repeated(const Repeat& r, Step step) {
  std::vector<double> ms;
  Timer total;
  while (static_cast<int>(ms.size()) < r.max &&
         (static_cast<int>(ms.size()) < r.min ||
          total.ElapsedMillis() < r.min_s * 1000.0)) {
    const double m = step();
    if (m < 0) return {};
    ms.push_back(m);
  }
  return ms;
}

int Run(const Args& a) {
  const WorkloadSpec& w = *a.workload;
  svx::metrics::RegisterStandardMetrics();
  std::error_code ec;
  const fs::path store = fs::path(kOutDir) /
      svx::StrFormat("store-%s-%llu", w.name,
                     static_cast<unsigned long long>(a.seed));
  fs::remove_all(store, ec);
  auto store_dir = [&](int c) {
    return (store / svx::StrFormat("c%d", c)).string();
  };
  auto doc_seed = [&](int c) {
    return a.seed * 1000003u + static_cast<uint64_t>(c);
  };

  // ---- Set-up, repeated; the first batch's last set-up is served. ----
  std::vector<World> worlds;
  std::vector<double> setup_ms, generate_ms, summary_ms, materialize_ms;
  Status setup_status;
  auto set_up_once = [&] {
    worlds.clear();  // free the previous set-up before timing the next
    Timer t;
    for (int c = 0; c < w.collections; ++c) {
      Result<World> r = SetUp(w, doc_seed(c), store_dir(c));
      if (!r.ok()) {
        setup_status = r.status();
        return -1.0;
      }
      worlds.push_back(std::move(r).value());
    }
    const double ms = t.ElapsedMillis();
    const World& first = worlds.front();
    generate_ms.push_back(first.generate_ms);
    summary_ms.push_back(first.summary_ms);
    materialize_ms.push_back(first.materialize_ms);
    return ms;
  };
  auto set_up_batch = [&] {
    std::vector<double> ms = Repeated(kSetupBatch, set_up_once);
    if (ms.empty()) {
      std::fprintf(stderr, "set-up: %s\n", setup_status.ToString().c_str());
    }
    setup_ms.insert(setup_ms.end(), ms.begin(), ms.end());
    return !ms.empty();
  };
  if (!set_up_batch()) return 1;
  Timer save_timer;
  for (World& world : worlds) {
    Status s = Persist(&world);
    if (!s.ok()) {
      std::fprintf(stderr, "first save: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  const double save_ms = save_timer.ElapsedMillis();
  std::vector<const ViewCatalog*> catalogs;
  int64_t doc_bytes = 0, doc_nodes = 0, views = 0, decoded_bytes = 0,
          compressed_bytes = 0;
  for (const World& world : worlds) {
    catalogs.push_back(world.catalog.get());
    doc_bytes += static_cast<int64_t>(svx::SerializeXml(*world.doc).size());
    doc_nodes += world.doc->size();
    views += world.catalog->size();
    decoded_bytes += world.catalog->TotalBytes();
    compressed_bytes += world.catalog->TotalCompressedBytes();
  }

  // ---- Warm round: fills the rewrite cache and lazy indexes. ----
  std::atomic<bool> stop{false};
  ClientOut warm;
  if (w.warm_round) {
    ClientLoop(w, catalogs, a.seed + 0x5eed, 0, false, w.collections, stop,
               &warm);
  }
  int64_t attempted = warm.reads, failed = warm.failed;

  // ---- Timed window. ----
  const Counters before = Counters::Read();
  std::vector<ClientOut> clients(static_cast<size_t>(w.clients));
  WriterOut wout;
  std::unique_ptr<Writer> writer;
  World& written = worlds.front();
  if (w.writes_per_s > 0) {
    writer = std::make_unique<Writer>(written.catalog.get(), written.doc,
                                      written.summary, a.seed);
  }
  Timer wall;
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < w.clients; ++c) {
    threads.emplace_back(ClientLoop, std::cref(w), std::cref(catalogs), a.seed,
                         c, a.trace, -1, std::cref(stop),
                         &clients[static_cast<size_t>(c)]);
  }
  if (writer) {
    threads.emplace_back(&Writer::Loop, writer.get(), std::cref(w), a.trace,
                         start, std::cref(stop), &wout);
  }
  std::this_thread::sleep_until(
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(a.seconds)));
  stop.store(true);
  for (std::thread& t : threads) t.join();
  const double wall_s = wall.ElapsedMillis() / 1000.0;
  const Counters window = Counters::Read().Minus(before);
  const int64_t resident_bytes = svx::metrics::ExtentResidentBytes()->Value();
  // The high-water mark of the set-ups, the warm round and the window;
  // sampled result tables (at most kMaxSamples per client) are included.
  const double peak_rss_mb = PeakRssMb();
  const std::string debug = written.catalog->DebugMetrics();

  // ---- Post-window: fixed WAL depth for recovery, then the checks. ----
  if (writer) {
    WriterOut tail;
    bool ok = writer->Checkpoint(nullptr, &tail);
    for (int i = 0; ok && i < kReplayRecords; ++i) {
      // Inserts of the same subtree: the replay work does not depend on
      // which items a delete happened to remove.
      ok = writer->WriteOnce(Clock::now(), nullptr, &tail, /*insert_only=*/true);
    }
    attempted += 1 + kReplayRecords;
    if (!ok) ++failed;
    written.doc = writer->doc();
    written.summary = writer->summary();
  }
  int64_t mismatches = 0, checked = 0;
  auto check_samples = [&](std::vector<Sample>* samples) {
    mismatches += CheckSamples(*samples);
    checked += static_cast<int64_t>(samples->size());
    samples->clear();  // releases the pinned snapshots
  };
  check_samples(&warm.samples);
  for (ClientOut& c : clients) check_samples(&c.samples);
  if (writer) {
    mismatches += CheckExtents(*written.catalog, nullptr, written.doc.get(),
                               "maintained vs rematerialized");
  }
  int64_t store_bytes = 0;
  for (const World& world : worlds) store_bytes += DirBytes(world.options.dir);

  // ---- Recovery: reopen every store (Load + WAL replay), repeated. ----
  Status recovery_status;
  for (const World& world : worlds) {
    ViewCatalog reopened(world.options);
    recovery_status = reopened.Load(world.doc, world.summary);
    if (!recovery_status.ok()) break;
    mismatches += CheckExtents(*world.catalog, &reopened, nullptr,
                               "reopened vs live");
  }
  std::vector<double> load_ms;
  int64_t replayed = 0;
  std::vector<double> recovery_ms = Repeated(kRecoveries, [&] {
    const int64_t replays0 = svx::metrics::WalReplays()->Value();
    Timer t;
    for (const World& world : worlds) {
      ViewCatalog reopened(world.options);
      Timer lt;
      recovery_status = reopened.Load(world.doc, world.summary);
      load_ms.push_back(lt.ElapsedMillis());
      if (!recovery_status.ok()) return -1.0;
    }
    replayed = svx::metrics::WalReplays()->Value() - replays0;
    return t.ElapsedMillis();
  });
  attempted += 1;
  if (!recovery_status.ok() || recovery_ms.empty()) {
    std::fprintf(stderr, "recovery: %s\n", recovery_status.ToString().c_str());
    ++failed;
  }

  // ---- The second set-up batch, once the served worlds are gone. ----
  writer.reset();
  worlds.clear();
  if (!set_up_batch()) return 1;

  // ---- Aggregate. ----
  ClientOut all;
  for (ClientOut& c : clients) {
    all.reads += c.reads;
    all.failed += c.failed;
    all.executed += c.executed;
    all.no_rewriting += c.no_rewriting;
    all.truncated += c.truncated;
    all.cache_hits += c.cache_hits;
    all.misses += c.misses;
    all.miss_ms += c.miss_ms;
    all.hit_us += c.hit_us;
    all.snapshot_us += c.snapshot_us;
    all.execute_ms += c.execute_ms;
    all.plans_generated += c.plans_generated;
    all.plans_dominated += c.plans_dominated;
    all.candidates_pruned += c.candidates_pruned;
    all.memo_hits += c.memo_hits;
    all.memo_misses += c.memo_misses;
    all.epochs_live_max = std::max(all.epochs_live_max, c.epochs_live_max);
    all.untraced_ms.insert(all.untraced_ms.end(), c.untraced_ms.begin(),
                           c.untraced_ms.end());
    all.traced_ms.insert(all.traced_ms.end(), c.traced_ms.begin(),
                         c.traced_ms.end());
    all.layers.Merge(c.layers);
  }
  attempted += all.reads + wout.writes + checked;
  failed += all.failed + wout.failed + mismatches;
  const double reads = static_cast<double>(all.reads);
  const double writes = static_cast<double>(wout.writes);

  Report rep;
  std::printf("workload %s seed %llu: %d nodes, %d views, %lld reads "
              "(%zu untraced, %zu traced), %lld writes, %lld checked samples\n",
              w.name, static_cast<unsigned long long>(a.seed),
              static_cast<int>(doc_nodes), static_cast<int>(views),
              static_cast<long long>(all.reads),
              all.untraced_ms.size(), all.traced_ms.size(),
              static_cast<long long>(wout.writes),
              static_cast<long long>(checked));
  // End-to-end (untraced reads and writes only).
  rep.Metric("setup_s", Median(setup_ms) / 1000.0, "s");
  rep.Metric("read_p50_ms", SmoothedQuantile(all.untraced_ms, 0.50), "ms");
  rep.Metric("read_p90_ms", SmoothedQuantile(all.untraced_ms, 0.90), "ms");
  rep.Metric("read_samples", static_cast<double>(all.untraced_ms.size()), "count");
  rep.Metric("reads_per_s", reads / wall_s, "1/s");
  rep.Metric("write_p50_ms", SmoothedQuantile(wout.untraced_ms, 0.50), "ms");
  rep.Metric("write_p90_ms", SmoothedQuantile(wout.untraced_ms, 0.90), "ms");
  rep.Metric("write_samples", static_cast<double>(wout.untraced_ms.size()), "count");
  rep.Metric("recovery_ms", TrimmedMean(recovery_ms), "ms");
  rep.Metric("store_bytes_per_doc_byte",
             Ratio(static_cast<double>(store_bytes), static_cast<double>(doc_bytes)),
             "B/B");
  rep.Metric("peak_rss_mb", peak_rss_mb, "MB");
  rep.Metric("ops_failed_ratio",
             Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
             "ratio");
  // rewriting / containment
  const double misses = static_cast<double>(all.misses);
  rep.Metric("rewriting.rewrite_miss_ms", Ratio(all.miss_ms, misses), "ms");
  rep.Metric("rewriting.plans_generated_per_miss",
             Ratio(static_cast<double>(all.plans_generated), misses), "count");
  rep.Metric("rewriting.plans_dominated_ratio",
             Ratio(static_cast<double>(all.plans_dominated),
                   static_cast<double>(all.plans_generated)),
             "ratio");
  rep.Metric("rewriting.candidates_pruned_per_miss",
             Ratio(static_cast<double>(all.candidates_pruned), misses), "count");
  rep.Metric("rewriting.truncated_ratio",
             Ratio(static_cast<double>(all.truncated), reads), "ratio");
  rep.Metric("rewriting.no_rewriting_ratio",
             Ratio(static_cast<double>(all.no_rewriting), reads), "ratio");
  rep.Metric("containment.memo_hit_ratio",
             Ratio(static_cast<double>(all.memo_hits),
                   static_cast<double>(all.memo_hits + all.memo_misses)),
             "ratio");
  // algebra
  const double executed = static_cast<double>(all.executed);
  rep.Metric("algebra.execute_ms", Ratio(all.execute_ms, executed), "ms");
  rep.Metric("algebra.rows_scanned_per_read",
             Ratio(static_cast<double>(window.rows_scanned), reads), "count");
  rep.Metric("algebra.rows_out_per_read",
             Ratio(static_cast<double>(window.rows_out), reads), "count");
  // viewstore
  rep.Metric("viewstore.rewrite_cache_hit_ratio",
             Ratio(static_cast<double>(all.cache_hits), reads), "ratio");
  rep.Metric("viewstore.cache_hit_us",
             Ratio(all.hit_us, static_cast<double>(all.cache_hits)), "us");
  rep.Metric("viewstore.snapshot_us", Ratio(all.snapshot_us, reads), "us");
  rep.Metric("viewstore.extent_evictions_per_read",
             Ratio(static_cast<double>(window.evictions), reads), "count");
  rep.Metric("viewstore.extent_reloads_per_read",
             Ratio(static_cast<double>(window.reloads), reads), "count");
  rep.Metric("viewstore.extent_reload_us",
             Ratio(static_cast<double>(window.reload_us),
                   static_cast<double>(window.reload_n)),
             "us");
  rep.Metric("viewstore.apply_update_ms", Ratio(wout.apply_ms, writes), "ms");
  rep.Metric("viewstore.wal_bytes_per_write",
             Ratio(static_cast<double>(window.wal_bytes), writes), "B");
  rep.Metric("viewstore.persist_bytes_per_write",
             Ratio(static_cast<double>(window.persist_bytes), writes), "B");
  rep.Metric("viewstore.save_ms", save_ms, "ms");
  rep.Metric("viewstore.checkpoint_ms",
             Ratio(wout.checkpoint_ms, static_cast<double>(wout.checkpoints)),
             "ms");
  rep.Metric("viewstore.load_ms", Median(load_ms), "ms");
  rep.Metric("viewstore.wal_records_replayed", static_cast<double>(replayed),
             "count");
  rep.Metric("viewstore.resident_bytes", static_cast<double>(resident_bytes), "B");
  rep.Metric("viewstore.compressed_bytes",
             static_cast<double>(compressed_bytes), "B");
  rep.Metric("viewstore.epochs_live_max",
             static_cast<double>(all.epochs_live_max), "count");
  // maintenance / xml / summary / pattern / workload
  rep.Metric("maintenance.views_touched_per_write",
             Ratio(static_cast<double>(wout.views_touched), writes), "count");
  rep.Metric("maintenance.views_rebuilt_ratio",
             Ratio(static_cast<double>(wout.views_rebuilt),
                   static_cast<double>(wout.views_touched)),
             "ratio");
  rep.Metric("maintenance.tuples_changed_per_write",
             Ratio(static_cast<double>(wout.tuples_changed), writes), "count");
  rep.Metric("xml.update_ms", Ratio(wout.xml_ms, writes), "ms");
  rep.Metric("xml.doc_nodes", static_cast<double>(doc_nodes), "count");
  rep.Metric("summary.build_ms", Median(summary_ms), "ms");
  rep.Metric("summary.write_build_ms", Ratio(wout.summary_ms, writes), "ms");
  rep.Metric("pattern.materialize_ms", Median(materialize_ms), "ms");
  rep.Metric("workload.generate_ms", Median(generate_ms), "ms");
  rep.Metric("workload.writer_late_ms", Ratio(wout.late_ms, writes), "ms");
  // Traced self times, per traced read / write.
  const LayerTimes& rl = all.layers;
  const double traced_reads = static_cast<double>(rl.ops());
  auto per_read_ms = [&](const char* bucket) {
    return Ratio(rl.BucketUs(bucket), traced_reads) / 1000.0;
  };
  rep.Metric("rewriting.analyze_ms", per_read_ms("rewriting.analyze"), "ms");
  rep.Metric("rewriting.prune_views_ms", per_read_ms("rewriting.prune_views"), "ms");
  rep.Metric("rewriting.expand_views_ms", per_read_ms("rewriting.expand_views"), "ms");
  rep.Metric("rewriting.plan_enum_ms", per_read_ms("rewriting.plan_enum"), "ms");
  rep.Metric("rewriting.rank_ms", per_read_ms("rewriting.rank"), "ms");
  rep.Metric("rewriting.setup_ms", per_read_ms("rewriting.setup"), "ms");
  rep.Metric("algebra.scan_ms", per_read_ms("algebra.scan"), "ms");
  rep.Metric("algebra.idjoin_ms", per_read_ms("algebra.idjoin"), "ms");
  rep.Metric("algebra.sjoin_ms", per_read_ms("algebra.sjoin"), "ms");
  rep.Metric("algebra.nav_ms", per_read_ms("algebra.nav"), "ms");
  rep.Metric("algebra.other_ms", per_read_ms("algebra.other"), "ms");
  for (const char* layer : {"rewriting", "algebra", "viewstore", "harness"}) {
    rep.Metric(svx::StrFormat("trace.read_share.%s", layer),
               Ratio(rl.LayerUs(layer), rl.total_us()), "ratio");
  }
  const LayerTimes& wl = wout.layers;
  rep.Metric("maintenance.pass_ms",
             Ratio(wl.BucketUs("maintenance.pass"), static_cast<double>(wl.ops())) /
                 1000.0,
             "ms");
  for (const char* layer : {"xml", "summary", "maintenance", "viewstore"}) {
    rep.Metric(svx::StrFormat("trace.write_share.%s", layer),
               Ratio(wl.LayerUs(layer), wl.total_us()), "ratio");
  }
  rep.Metric("trace.read_overhead_ratio",
             Ratio(SmoothedQuantile(all.traced_ms, 0.5),
                   SmoothedQuantile(all.untraced_ms, 0.5)),
             "ratio");
  rep.Metric("trace.write_overhead_ratio",
             Ratio(SmoothedQuantile(wout.traced_ms, 0.5),
                   SmoothedQuantile(wout.untraced_ms, 0.5)),
             "ratio");
  rep.Metric("trace.spans_recorded_ops",
             static_cast<double>(rl.ops() + wl.ops()), "count");

  rep.Size("doc_nodes", doc_nodes);
  rep.Size("doc_bytes", doc_bytes);
  rep.Size("views", views);
  rep.Size("decoded_bytes", decoded_bytes);
  rep.Size("compressed_bytes", compressed_bytes);
  rep.Size("memory_budget_bytes", w.memory_budget_bytes);
  rep.Size("store_bytes", store_bytes);
  rep.Size("samples_checked", checked);
  rep.Size("mismatches", mismatches);

  // ---- Spans, written out at the end. ----
  if (a.trace) {
    const std::string path =
        (fs::path(kOutDir) / svx::StrFormat("trace-%s-%llu.json", w.name,
                                           static_cast<unsigned long long>(a.seed)))
            .string();
    std::ofstream f(path, std::ios::trunc);
    f << "[";
    bool first = true;
    auto dump = [&](std::vector<std::unique_ptr<svx::Trace>>& traces) {
      for (auto& t : traces) {
        f << (first ? "\n" : ",\n") << t->RenderJson();
        first = false;
      }
    };
    for (ClientOut& c : clients) dump(c.traces);
    dump(wout.traces);
    f << "\n]\n";
    std::printf("wrote %s\n", path.c_str());
  }

  fs::remove_all(store, ec);
  const bool correct = mismatches == 0;
  std::printf("%s\n", rep.Json(a, correct, attempted, failed, debug).c_str());
  return failed == 0 ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    std::optional<int64_t> n = svx::ParseInt64(v);
    std::optional<double> d = svx::ParseDouble(v);
    if (flag == "--workload") {
      for (const WorkloadSpec& w : kWorkloads) {
        if (std::strcmp(w.name, v) == 0) a->workload = &w;
      }
      if (a->workload == nullptr) return false;
    } else if (flag == "--seed" && n && *n >= 0) {
      a->seed = static_cast<uint64_t>(*n);
    } else if (flag == "--seconds" && d && *d > 0) {
      a->seconds = *d;
    } else if (flag == "--trace" && n && (*n == 0 || *n == 1)) {
      a->trace = *n == 1;
    } else {
      return false;
    }
  }
  return a->workload != nullptr && argc % 2 == 1;
}

}  // namespace
}  // namespace svxbench

int main(int argc, char** argv) {
  svxbench::Args args;
  if (!svxbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: svxbench --workload cold-rewrite|hot-scan|update-mix "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  return svxbench::Run(args);
}
