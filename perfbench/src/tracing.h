// Span recording for the traced benchmark run, and the forwarding
// decorators that reach layers the benchmark cannot wrap from outside:
// an Extractor (nn), a HypothesisFn (hypothesis) and a MeasureFactory with
// its Measure / MergedMeasure instances (measures). The decorators are
// registered through the catalog under the wrapped object's own name, so
// requests, store keys and fingerprints are unchanged.
//
// Spans live in per-thread buffers owned by one process-wide log and are
// read once the measured phase has ended. Recording is a runtime switch:
// with it off a decorator costs one forwarded virtual call.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/extractor.h"
#include "hypothesis/hypothesis.h"
#include "measures/measure.h"

namespace perfbench {

int64_t NowNs();

/// \brief One recorded interval. `name` points at an interned string that
/// lives for the whole process; `count` is a layer-specific amount of work
/// (rows extracted, bytes scored).
struct Span {
  const char* name = nullptr;
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  uint64_t job = 0;     ///< 0 = not attributable to one job
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t count = 0;
};

class SpanLog {
 public:
  static SpanLog& Get();

  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// The job whose calls are in flight (closed loops run one at a time);
  /// decorator spans hang off its root span. 0/0 when jobs overlap.
  void SetCurrentJob(uint64_t job, uint64_t root_span) {
    current_job_.store(job, std::memory_order_relaxed);
    current_root_.store(root_span, std::memory_order_relaxed);
  }

  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Record a span under the current job (when parent == 0 and job == 0).
  void Record(const char* name, int64_t start_ns, int64_t end_ns,
              uint64_t count = 0);
  /// Record a span with explicit identity.
  void RecordFull(Span span);

  /// All spans recorded so far. Call only while no job is running.
  std::vector<Span> Collect() const;
  void Clear();

  /// Intern a span name (stable pointer for the life of the process).
  static const char* Intern(const std::string& name);

 private:
  struct Buffer {
    std::mutex mu;
    std::vector<Span> spans;
  };
  Buffer* ThreadBuffer();

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> current_job_{0};
  std::atomic<uint64_t> current_root_{0};
  mutable std::mutex buffers_mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// \brief Times one scope into the span log when recording is on.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t count = 0)
      : name_(SpanLog::Get().enabled() ? name : nullptr),
        count_(count),
        start_(name_ != nullptr ? NowNs() : 0) {}
  ~ScopedSpan() {
    if (name_ != nullptr) SpanLog::Get().Record(name_, start_, NowNs(), count_);
  }
  void set_count(uint64_t count) { count_ = count; }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  uint64_t count_;
  int64_t start_;
};

/// \brief nn: forwards to a model's extractor, timing every call and
/// counting behavior rows produced.
class TracedExtractor : public deepbase::Extractor {
 public:
  explicit TracedExtractor(const deepbase::Extractor* inner)
      : Extractor(inner->model_id()), inner_(inner) {}

  size_t num_units() const override { return inner_->num_units(); }
  deepbase::Matrix ExtractRecord(
      const deepbase::Record& rec,
      const std::vector<int>& unit_ids) const override;
  deepbase::Matrix ExtractBlock(
      const deepbase::Dataset& dataset, const std::vector<size_t>& record_idx,
      const std::vector<int>& unit_ids) const override;

 private:
  const deepbase::Extractor* inner_;
};

/// \brief hypothesis: forwards Eval, timing every record.
class TracedHypothesis : public deepbase::HypothesisFn {
 public:
  explicit TracedHypothesis(deepbase::HypothesisPtr inner)
      : HypothesisFn(inner->name()), inner_(std::move(inner)) {}

  std::vector<float> Eval(const deepbase::Record& rec) const override;
  int num_classes() const override { return inner_->num_classes(); }

 private:
  deepbase::HypothesisPtr inner_;
};

/// \brief Span names of one measure ("measures.<name>.process", ...).
struct MeasureSpanNames {
  explicit MeasureSpanNames(const std::string& measure);
  const char* process;
  const char* merge;
  const char* scores;
};

/// \brief measures: a factory whose instances forward to the wrapped
/// factory's, timing ProcessBlock (with computed bytes moved), MergeFrom
/// and Scores. Merge exactness, cloning and state serialization are
/// forwarded unchanged, so shard and cluster merges stay bit-identical.
class TracedMeasureFactory : public deepbase::MeasureFactory {
 public:
  /// `label` names the spans (the registry name, e.g. "pearson"); the
  /// factory keeps the wrapped factory's name, which result rows carry.
  TracedMeasureFactory(deepbase::MeasureFactoryPtr inner,
                       const std::string& label);

  bool is_joint() const override { return inner_->is_joint(); }
  bool mergeable() const override { return inner_->mergeable(); }
  std::unique_ptr<deepbase::Measure> Create(size_t num_units,
                                            int num_classes) const override;
  std::unique_ptr<deepbase::MergedMeasure> CreateMerged(
      size_t num_units, size_t num_hyps) const override;

 private:
  deepbase::MeasureFactoryPtr inner_;
  MeasureSpanNames names_;
};

}  // namespace perfbench
