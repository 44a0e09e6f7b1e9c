// EXPLAIN / EXPLAIN ANALYZE for inspection jobs: the plan-introspection
// layer (ISSUE: the system picks the plan — cache, shared scan, shards,
// store tiers, cluster placement — and this module makes that plan
// visible before the job runs, and reconciles it against what actually
// happened after).
//
// An InspectionPlan is a tree of PlanNodes rendered from the values
// execution itself consumes: the scheduler's JobPlan (Scheduler::Plan)
// and role decision (Scheduler::Decide, the DecideLocked that Submit
// runs), ResultCache::PeekTier, the engine's PlanDispatch (the dispatch
// ClusterCoordinator::DistributedRun executes) and BehaviorStore::PeekTier.
// A dry-run Explain() executes zero blocks and leaves every cache,
// counter, and LRU byte-identical. ExplainAnalyze() runs the job through
// the normal Submit path and annotates each node with actual phase
// seconds and counters from RuntimeStats + the job's trace spans,
// flagging plan-vs-actual divergences (a predicted cache hit that
// missed, a planned shard count the run did not use, a cluster dispatch
// that degraded to local, reassigned shard ranges).
//
// Rendering is deterministic by contract: the same request against the
// same session state renders byte-identical text (fixed-precision
// floats, no timestamps, no pointers, no per-run ids) — the test suite
// asserts on plans instead of reverse-engineering counters. The only
// build-varying line is the kernel node (SIMD lanes vs scalar).

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/catalog.h"
#include "util/status.h"

namespace deepbase {

class InspectionSession;

/// \brief One node of an inspection plan tree. `fields` are ordered
/// key=value pairs rendered on the node's line (an empty key renders the
/// bare value first — the node's verdict, e.g. "hit (memory)").
/// `actuals` are filled only by ExplainAnalyze; `divergences` are
/// human-readable plan-vs-actual contradictions.
struct PlanNode {
  std::string name;
  std::vector<std::pair<std::string, std::string>> fields;
  std::vector<std::pair<std::string, std::string>> actuals;
  std::vector<std::string> divergences;
  std::vector<PlanNode> children;

  void Add(std::string key, std::string value) {
    fields.emplace_back(std::move(key), std::move(value));
  }
  void AddActual(std::string key, std::string value) {
    actuals.emplace_back(std::move(key), std::move(value));
  }
  /// First direct child with this name; nullptr when absent.
  PlanNode* Child(const std::string& child_name);
};

/// \brief A full inspection plan (dry run) or reconciled plan (analyze).
struct InspectionPlan {
  PlanNode root;
  bool analyzed = false;

  /// \brief Deterministic text tree (two-space indent, one node per
  /// line, `!!` prefix on divergence lines).
  std::string ToText() const;
  /// \brief The same tree as JSON (field order preserved via arrays).
  std::string ToJson() const;
  /// \brief Every divergence in the tree, depth-first.
  std::vector<std::string> AllDivergences() const;
};

/// \brief Strip a leading `EXPLAIN [ANALYZE]` keyword pair (case
/// insensitive) off `statement`. Returns true when EXPLAIN was present;
/// `*analyze` reports the ANALYZE variant.
bool StripExplainInspectPrefix(std::string* statement, bool* analyze);

/// \brief Parse a textual INSPECT statement (core/inspect_parser.h
/// grammar, without the EXPLAIN prefix) and explain it through
/// `session` — the textual-frontend entry shared by SqlSession and the
/// serving layer.
Result<InspectionPlan> ExplainInspectStatement(InspectionSession* session,
                                               const std::string& statement,
                                               bool analyze);

/// \brief Live system introspection (the statusz dump): live jobs with
/// current phase + progress, scheduler counters, result-cache and
/// store occupancy per namespace, cluster worker liveness, and armed
/// failpoints. Text (json=false) or a JSON object.
std::string RenderStatusz(InspectionSession* session, bool json);

/// \brief Push the session store's occupancy gauges and mmap-hit counter
/// into the global MetricsRegistry (deepbase_store_mmap_hits_total,
/// deepbase_store_memory_bytes, per-namespace occupancy gauges). Called
/// at scrape/statusz time; no-op for storeless sessions.
void PublishStoreMetrics(InspectionSession* session);

}  // namespace deepbase
