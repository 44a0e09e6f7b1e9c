// Seeded inputs for every workload: the SQL auto-completion world of the
// paper's §6.2 (a character-level SQL corpus and a 2-layer char-LSTM), a
// pool of keyword / character-class hypotheses, request builders, and the
// output oracle the benchmark checks every table against.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/catalog.h"
#include "core/extractors.h"
#include "core/result_table.h"
#include "data/dataset.h"
#include "nn/lstm_lm.h"
#include "tracing.h"
#include "util/rng.h"

namespace perfbench {

inline constexpr const char* kModelName = "sql_lstm";
inline constexpr const char* kDatasetName = "sql";
inline constexpr const char* kPoolName = "pool";

struct WorldSpec {
  size_t records = 0;      ///< SQL queries, one record each
  size_t ns = 64;          ///< symbols per record (rows = records * ns)
  size_t hidden = 96;      ///< LSTM units per layer
  size_t layers = 2;
  size_t pool = 16;        ///< hypotheses in the pool
};

/// \brief The generated inputs. The LSTM keeps its seeded initial weights:
/// extraction cost does not depend on weight values, and training would
/// only lengthen set-up.
struct World {
  WorldSpec spec;
  deepbase::Dataset dataset;
  std::unique_ptr<deepbase::LstmLm> model;
  std::unique_ptr<deepbase::LstmLmExtractor> extractor;
  std::vector<deepbase::HypothesisPtr> pool;

  size_t rows() const { return dataset.num_symbols(); }
  size_t units() const { return model->num_units(); }
};

std::unique_ptr<World> BuildWorld(const WorldSpec& spec, uint64_t seed);

/// \brief What a catalog needs to serve the world; owns the traced
/// decorators when tracing is on, so keep it alive as long as the catalog.
class Registration {
 public:
  /// Register the model, dataset and hypothesis pool under kModelName,
  /// kDatasetName and kPoolName. With `traced`, the model, every pool
  /// hypothesis and `measures` are registered as forwarding decorators.
  /// `model` replaces the world's extractor (the oracle's stored copy).
  Registration(const World& world, deepbase::Catalog* catalog, bool traced,
               const std::vector<std::string>& measures,
               const deepbase::Extractor* model = nullptr);

  const deepbase::Extractor* extractor() const { return extractor_; }

 private:
  std::unique_ptr<TracedExtractor> traced_extractor_;
  const deepbase::Extractor* extractor_ = nullptr;
};

/// \brief `count` distinct sorted k-subsets of [0, n), in seeded order.
std::vector<std::vector<size_t>> DistinctSubsets(deepbase::Rng* rng, size_t n,
                                                 size_t k, size_t count);

/// \brief A request over the pool hypotheses at `hyps` (pool order).
deepbase::InspectRequest MakeRequest(const World& world,
                                     const std::vector<size_t>& hyps,
                                     const std::vector<std::string>& measures,
                                     const deepbase::InspectOptions& options);

/// \brief Reference tables, computed untimed during set-up: each is a
/// sequential local (num_shards = 1) run with the plain, undecorated
/// hypotheses and measures. The model's behaviors are extracted once, by
/// several threads (records are extracted one by one, so the floats do
/// not depend on how records are grouped), and served to the sequential
/// runs; smoke mode checks that against live extraction.
class Oracle {
 public:
  Oracle(const World& world, size_t threads);

  /// The sequential run of exactly `request`; with `live`, the model is
  /// run instead of served from the extracted behaviors.
  deepbase::Result<deepbase::ResultTable> Sequential(
      deepbase::InspectRequest request, bool live = false) const;

  /// Rows of every pool hypothesis, from sequential runs of the pool split
  /// into hypothesis chunks run side by side. The measures used with it
  /// score each (unit, hypothesis) pair on its own, so a request's
  /// sequential table holds exactly these rows for its hypotheses; smoke
  /// mode checks that against Sequential() of the request itself.
  deepbase::Status LoadPool(const std::vector<std::string>& measures,
                            const deepbase::InspectOptions& options);

  /// True when `table` holds exactly the pool rows for `hyps`, each
  /// byte-identical (float bits included), and nothing else.
  bool Matches(const std::vector<size_t>& hyps,
               const deepbase::ResultTable& table) const;

 private:
  const World& world_;
  size_t threads_;
  std::shared_ptr<const deepbase::Matrix> behaviors_;
  /// Serialized row bytes keyed by (measure, hypothesis, group, unit).
  std::vector<std::pair<std::string, std::string>> rows_;
  std::vector<size_t> rows_per_hyp_;
};

/// \brief Byte-identity of two tables (serialized form).
bool SameBytes(const deepbase::ResultTable& a, const deepbase::ResultTable& b);

}  // namespace perfbench
