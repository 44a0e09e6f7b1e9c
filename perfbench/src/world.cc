#include "world.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <numeric>
#include <set>
#include <thread>

#include "core/inspect_parser.h"
#include "grammar/sql_grammar.h"
#include "hypothesis/iterators.h"
#include "service/inspection_session.h"

namespace perfbench {

using deepbase::Catalog;
using deepbase::Dataset;
using deepbase::HypothesisPtr;
using deepbase::InspectOptions;
using deepbase::InspectRequest;
using deepbase::Result;
using deepbase::ResultRow;
using deepbase::ResultTable;
using deepbase::Rng;

namespace {

/// Keyword and character-class hypotheses drawn from the grammar's
/// terminals and the grammar's alphabet; names are unique.
std::vector<HypothesisPtr> MakePool(const deepbase::Cfg& grammar,
                                    const std::string& alphabet, size_t size,
                                    Rng* rng) {
  std::set<std::string> terminals;
  for (const auto& rule : grammar.rules()) {
    for (deepbase::SymbolId id : rule.rhs) {
      if (!grammar.IsTerminal(id)) continue;
      const std::string& text = grammar.Name(id);
      if (!text.empty() && text.find_first_not_of(' ') != std::string::npos) {
        terminals.insert(text);
      }
    }
  }
  std::vector<std::string> keywords(terminals.begin(), terminals.end());
  std::vector<HypothesisPtr> pool;
  std::set<std::string> names;
  while (pool.size() < size) {
    HypothesisPtr h;
    if (rng->Uniform() < 0.5 && !keywords.empty()) {
      h = std::make_shared<deepbase::KeywordHypothesis>(
          keywords[rng->UniformInt(keywords.size())]);
    } else {
      std::string chars;
      const size_t n = 2 + rng->UniformInt(uint64_t{5});
      for (size_t i = 0; i < n; ++i) {
        chars += alphabet[rng->UniformInt(alphabet.size())];
      }
      std::sort(chars.begin(), chars.end());
      chars.erase(std::unique(chars.begin(), chars.end()), chars.end());
      h = std::make_shared<deepbase::CharClassHypothesis>("chars:" + chars,
                                                          chars);
    }
    if (names.insert(h->name()).second) pool.push_back(std::move(h));
  }
  return pool;
}

std::string RowKey(const ResultRow& row) {
  return row.measure + '\x1f' + row.hypothesis + '\x1f' + row.group_id +
         '\x1f' + std::to_string(row.unit);
}

std::string RowBytes(const ResultRow& row) {
  ResultTable one;
  one.Add(row);
  return one.SerializeToString();
}

}  // namespace

std::unique_ptr<World> BuildWorld(const WorldSpec& spec, uint64_t seed) {
  auto world = std::make_unique<World>();
  world->spec = spec;
  Rng rng(seed);
  const deepbase::Cfg grammar = deepbase::MakeSqlGrammar(3);
  deepbase::GrammarSampler sampler(&grammar, seed ^ 0x5eedull);
  // The vocabulary is the grammar's whole alphabet, not the sample's, so
  // the model's shape (and extraction cost) is the same for every seed.
  std::string alphabet;
  for (const auto& rule : grammar.rules()) {
    for (deepbase::SymbolId id : rule.rhs) {
      if (grammar.IsTerminal(id)) alphabet += grammar.Name(id);
    }
  }
  std::sort(alphabet.begin(), alphabet.end());
  alphabet.erase(std::unique(alphabet.begin(), alphabet.end()),
                 alphabet.end());
  world->dataset = Dataset(deepbase::Vocab::FromChars(alphabet), spec.ns);
  while (world->dataset.num_records() < spec.records) {
    const std::string q = sampler.Sample(8);
    if (q.size() <= spec.ns) world->dataset.AddText(q);
  }
  world->model = std::make_unique<deepbase::LstmLm>(
      world->dataset.vocab().size(), spec.hidden, spec.layers, seed + 1);
  world->extractor = std::make_unique<deepbase::LstmLmExtractor>(
      kModelName, world->model.get());
  world->pool = MakePool(grammar, alphabet, spec.pool, &rng);
  return world;
}

Registration::Registration(const World& world, Catalog* catalog, bool traced,
                           const std::vector<std::string>& measures,
                           const deepbase::Extractor* model) {
  extractor_ = model != nullptr ? model : world.extractor.get();
  std::vector<HypothesisPtr> pool = world.pool;
  if (traced) {
    traced_extractor_ = std::make_unique<TracedExtractor>(extractor_);
    extractor_ = traced_extractor_.get();
    for (HypothesisPtr& h : pool) h = std::make_shared<TracedHypothesis>(h);
    for (const std::string& name : measures) {
      catalog->RegisterMeasure(
          name, std::make_shared<TracedMeasureFactory>(
                    deepbase::MeasureByName(name).ValueOrDie(), name));
    }
  }
  catalog->RegisterModel(kModelName, extractor_, world.spec.hidden);
  catalog->RegisterDataset(kDatasetName, &world.dataset);
  catalog->RegisterHypotheses(kPoolName, std::move(pool));
}

std::vector<std::vector<size_t>> DistinctSubsets(Rng* rng, size_t n, size_t k,
                                                 size_t count) {
  std::set<std::vector<size_t>> seen;
  std::vector<std::vector<size_t>> out;
  for (size_t attempt = 0; out.size() < count && attempt < count * 64;
       ++attempt) {
    std::vector<size_t> pick;
    while (pick.size() < k) {
      const size_t i = rng->UniformInt(n);
      if (std::find(pick.begin(), pick.end(), i) == pick.end()) {
        pick.push_back(i);
      }
    }
    std::sort(pick.begin(), pick.end());
    if (seen.insert(pick).second) out.push_back(std::move(pick));
  }
  return out;
}

InspectRequest MakeRequest(const World& world, const std::vector<size_t>& hyps,
                           const std::vector<std::string>& measures,
                           const InspectOptions& options) {
  InspectRequest request;
  InspectRequest::ModelRef model;
  model.name = kModelName;
  model.group_by_layer = world.spec.hidden;
  request.models.push_back(std::move(model));
  request.hypothesis_sets = {kPoolName};
  for (size_t i : hyps) request.hypothesis_filter.push_back(world.pool[i]->name());
  request.dataset_name = kDatasetName;
  request.measure_names = measures;
  request.options = options;
  return request;
}

Oracle::Oracle(const World& world, size_t threads)
    : world_(world), threads_(std::max<size_t>(1, threads)) {
  const size_t n = world.dataset.num_records(), ns = world.spec.ns;
  const size_t units = world.units();
  std::vector<int> all(units);
  std::iota(all.begin(), all.end(), 0);
  auto behaviors = std::make_shared<deepbase::Matrix>(n * ns, units);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads_; ++t) {
    workers.emplace_back([&, t] {
      const size_t lo = n * t / threads_, hi = n * (t + 1) / threads_;
      std::vector<size_t> idx(hi - lo);
      std::iota(idx.begin(), idx.end(), lo);
      const deepbase::Matrix part =
          world.extractor->ExtractBlock(world.dataset, idx, all);
      for (size_t r = 0; r < part.rows(); ++r) {
        std::memcpy(behaviors->row_data(lo * ns + r), part.row_data(r),
                    units * sizeof(float));
      }
    });
  }
  for (auto& w : workers) w.join();
  behaviors_ = std::move(behaviors);
}

Result<ResultTable> Oracle::Sequential(InspectRequest request,
                                       bool live) const {
  deepbase::SessionConfig config;
  config.num_threads = 1;
  deepbase::InspectionSession session(std::move(config));
  deepbase::PrecomputedExtractor stored(kModelName, behaviors_,
                                        world_.spec.ns);
  Registration registration(world_, &session.catalog(), /*traced=*/false, {},
                            live ? nullptr : &stored);
  request.options->num_shards = 1;
  return session.Inspect(request);
}

deepbase::Status Oracle::LoadPool(const std::vector<std::string>& measures,
                                  const InspectOptions& options) {
  const size_t n = world_.pool.size();
  const size_t threads = std::min(threads_, n);
  std::vector<Result<ResultTable>> tables(threads,
                                          deepbase::Status::Invalid("unrun"));
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<size_t> chunk;
      for (size_t i = t; i < n; i += threads) chunk.push_back(i);
      tables[t] = Sequential(MakeRequest(world_, chunk, measures, options));
    });
  }
  for (auto& w : workers) w.join();
  std::map<std::string, std::string> by_key;
  std::map<std::string, size_t> per_hyp;
  for (auto& table : tables) {
    if (!table.ok()) return table.status();
    for (const ResultRow& row : table->rows()) {
      by_key[RowKey(row)] = RowBytes(row);
      ++per_hyp[row.hypothesis];
    }
  }
  rows_.assign(by_key.begin(), by_key.end());
  rows_per_hyp_.clear();
  for (const HypothesisPtr& h : world_.pool) {
    rows_per_hyp_.push_back(per_hyp[h->name()]);
  }
  return deepbase::Status::OK();
}

bool Oracle::Matches(const std::vector<size_t>& hyps,
                     const ResultTable& table) const {
  size_t expected = 0;
  for (size_t i : hyps) expected += rows_per_hyp_[i];
  if (table.size() != expected) return false;
  std::set<std::string> names;
  for (size_t i : hyps) names.insert(world_.pool[i]->name());
  std::set<std::string> seen;
  for (const ResultRow& row : table.rows()) {
    if (names.count(row.hypothesis) == 0) return false;
    const std::string key = RowKey(row);
    auto it = std::lower_bound(
        rows_.begin(), rows_.end(), key,
        [](const auto& entry, const std::string& k) { return entry.first < k; });
    if (it == rows_.end() || it->first != key) return false;
    if (it->second != RowBytes(row)) return false;
    if (!seen.insert(key).second) return false;
  }
  return true;
}

bool SameBytes(const ResultTable& a, const ResultTable& b) {
  return a.SerializeToString() == b.SerializeToString();
}

}  // namespace perfbench
