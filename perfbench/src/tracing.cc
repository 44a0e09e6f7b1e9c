#include "tracing.h"

#include <chrono>
#include <set>

namespace perfbench {

using deepbase::Matrix;
using deepbase::Measure;
using deepbase::MeasureScores;
using deepbase::MergedMeasure;
using deepbase::MergeExactness;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanLog& SpanLog::Get() {
  static SpanLog* log = new SpanLog();  // outlives every pool thread
  return *log;
}

SpanLog::Buffer* SpanLog::ThreadBuffer() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_unique<Buffer>();
    buffer = owned.get();
    std::lock_guard<std::mutex> lock(buffers_mu_);
    buffers_.push_back(std::move(owned));
  }
  return buffer;
}

void SpanLog::Record(const char* name, int64_t start_ns, int64_t end_ns,
                     uint64_t count) {
  Span span;
  span.name = name;
  span.id = NewId();
  span.parent = current_root_.load(std::memory_order_relaxed);
  span.job = current_job_.load(std::memory_order_relaxed);
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.count = count;
  RecordFull(span);
}

void SpanLog::RecordFull(Span span) {
  Buffer* buffer = ThreadBuffer();
  std::lock_guard<std::mutex> lock(buffer->mu);
  buffer->spans.push_back(span);
}

std::vector<Span> SpanLog::Collect() const {
  std::vector<Span> all;
  std::lock_guard<std::mutex> lock(buffers_mu_);
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

void SpanLog::Clear() {
  std::lock_guard<std::mutex> lock(buffers_mu_);
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    buffer->spans.clear();
  }
}

const char* SpanLog::Intern(const std::string& name) {
  static std::mutex mu;
  static std::set<std::string>* names = new std::set<std::string>();
  std::lock_guard<std::mutex> lock(mu);
  return names->insert(name).first->c_str();
}

// ---------------------------------------------------------------------------
// nn / hypothesis decorators.
// ---------------------------------------------------------------------------

namespace {
const char* const kExtractSpan = SpanLog::Intern("nn.extract");
const char* const kEvalSpan = SpanLog::Intern("hypothesis.eval");
}  // namespace

Matrix TracedExtractor::ExtractRecord(const deepbase::Record& rec,
                                      const std::vector<int>& unit_ids) const {
  ScopedSpan span(kExtractSpan);
  Matrix out = inner_->ExtractRecord(rec, unit_ids);
  span.set_count(out.rows());
  return out;
}

Matrix TracedExtractor::ExtractBlock(const deepbase::Dataset& dataset,
                                     const std::vector<size_t>& record_idx,
                                     const std::vector<int>& unit_ids) const {
  ScopedSpan span(kExtractSpan);
  Matrix out = inner_->ExtractBlock(dataset, record_idx, unit_ids);
  span.set_count(out.rows());
  return out;
}

std::vector<float> TracedHypothesis::Eval(const deepbase::Record& rec) const {
  ScopedSpan span(kEvalSpan, rec.size());
  return inner_->Eval(rec);
}

// ---------------------------------------------------------------------------
// measures decorators.
// ---------------------------------------------------------------------------

MeasureSpanNames::MeasureSpanNames(const std::string& measure)
    : process(SpanLog::Intern("measures." + measure + ".process")),
      merge(SpanLog::Intern("measures." + measure + ".merge")),
      scores(SpanLog::Intern("measures." + measure + ".scores")) {}

namespace {

/// Bytes a ProcessBlock call reads: the unit block plus the hypothesis
/// column (the kernel's computed traffic, not cache-level traffic).
uint64_t BlockBytes(const Matrix& units, size_t hyp_values) {
  return (static_cast<uint64_t>(units.rows()) * units.cols() + hyp_values) *
         sizeof(float);
}

class TracedMeasure : public Measure {
 public:
  TracedMeasure(std::unique_ptr<Measure> inner, const MeasureSpanNames* names)
      : inner_(std::move(inner)), names_(names) {}

  void BeginBlock(uint64_t serial) override { inner_->BeginBlock(serial); }

  void ProcessBlock(const Matrix& units,
                    std::span<const float> hyp) override {
    ScopedSpan span(names_->process, BlockBytes(units, hyp.size()));
    inner_->ProcessBlock(units, hyp);
  }

  MeasureScores Scores() const override {
    ScopedSpan span(names_->scores);
    return inner_->Scores();
  }

  double ErrorEstimate() const override { return inner_->ErrorEstimate(); }
  bool SupportsConvergence() const override {
    return inner_->SupportsConvergence();
  }
  MergeExactness merge_exactness() const override {
    return inner_->merge_exactness();
  }

  std::unique_ptr<Measure> CloneState() const override {
    std::unique_ptr<Measure> clone = inner_->CloneState();
    if (clone == nullptr) return nullptr;
    return std::make_unique<TracedMeasure>(std::move(clone), names_);
  }

  void MergeFrom(const Measure& other) override {
    ScopedSpan span(names_->merge);
    inner_->MergeFrom(*deepbase::measure_internal::MergePeer<TracedMeasure>(
                           other)
                           .inner_);
  }

  bool SerializeState(deepbase::codec::Writer* w) const override {
    return inner_->SerializeState(w);
  }
  bool DeserializeState(deepbase::codec::Reader* r) override {
    return inner_->DeserializeState(r);
  }

 private:
  std::unique_ptr<Measure> inner_;
  const MeasureSpanNames* names_;
};

class TracedMergedMeasure : public MergedMeasure {
 public:
  TracedMergedMeasure(std::unique_ptr<MergedMeasure> inner,
                      const MeasureSpanNames* names)
      : inner_(std::move(inner)), names_(names) {}

  void ProcessBlock(const Matrix& units, const Matrix& hyps) override {
    ScopedSpan span(names_->process,
                    BlockBytes(units, hyps.rows() * hyps.cols()));
    inner_->ProcessBlock(units, hyps);
  }
  MeasureScores ScoresFor(size_t hyp_index) const override {
    ScopedSpan span(names_->scores);
    return inner_->ScoresFor(hyp_index);
  }
  double ErrorEstimate(size_t hyp_index) const override {
    return inner_->ErrorEstimate(hyp_index);
  }

 private:
  std::unique_ptr<MergedMeasure> inner_;
  const MeasureSpanNames* names_;
};

}  // namespace

TracedMeasureFactory::TracedMeasureFactory(deepbase::MeasureFactoryPtr inner,
                                           const std::string& label)
    : MeasureFactory(inner->name()), inner_(std::move(inner)), names_(label) {}

std::unique_ptr<Measure> TracedMeasureFactory::Create(size_t num_units,
                                                      int num_classes) const {
  return std::make_unique<TracedMeasure>(inner_->Create(num_units, num_classes),
                                         &names_);
}

std::unique_ptr<MergedMeasure> TracedMeasureFactory::CreateMerged(
    size_t num_units, size_t num_hyps) const {
  std::unique_ptr<MergedMeasure> merged =
      inner_->CreateMerged(num_units, num_hyps);
  if (merged == nullptr) return nullptr;
  return std::make_unique<TracedMergedMeasure>(std::move(merged), &names_);
}

}  // namespace perfbench
