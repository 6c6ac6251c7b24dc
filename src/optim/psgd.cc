#include "optim/psgd.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/trace.h"
#include "random/permutation.h"
#include "util/cancellation.h"
#include "util/failpoint.h"
#include "util/strings.h"

namespace bolton {

namespace {

Status ValidateOptions(size_t m, const PsgdOptions& options) {
  if (m == 0) return Status::InvalidArgument("empty training set");
  if (options.passes < 1) return Status::InvalidArgument("passes must be >= 1");
  if (options.batch_size < 1) {
    return Status::InvalidArgument("batch_size must be >= 1");
  }
  if (options.batch_size > m) {
    return Status::InvalidArgument(
        StrFormat("batch_size %zu exceeds training size %zu",
                  options.batch_size, m));
  }
  if (options.radius <= 0.0) {
    return Status::InvalidArgument("radius must be > 0 (may be +inf)");
  }
  if (options.shards != 1) {
    return Status::InvalidArgument(
        "RunPsgd is the serial black box (shards must be 1); use "
        "RunShardedPsgd for shard-parallel execution");
  }
  return Status::OK();
}

/// One relaxed add per counter per run — never per example.
void FlushStats(const PsgdStats& stats) {
  static obs::Counter* gradient_evaluations =
      obs::MetricsRegistry::Default().GetCounter("gradient_evaluations");
  static obs::Counter* model_updates =
      obs::MetricsRegistry::Default().GetCounter("model_updates");
  static obs::Counter* noise_samples =
      obs::MetricsRegistry::Default().GetCounter("noise_samples");
  gradient_evaluations->Increment(stats.gradient_evaluations);
  model_updates->Increment(stats.updates);
  noise_samples->Increment(stats.noise_samples);
}

/// How many permuted rows ahead of the current one the dense loop
/// prefetches. One row's work depends on the previous row's update, so
/// out-of-order execution cannot start the next row's DRAM miss early;
/// the prefetch does. At d = 50 (~7 cache lines a row) distances of 4, 8
/// and 16 measured alike.
constexpr size_t kPrefetchDistance = 8;

/// Row-access policy of the dense black box: a row's gradient goes through
/// the loss's virtual AddGradient, and the step and the reset each visit
/// all d coordinates. Row k is data[k], or data[rows[k]] when an index
/// list is given (a shard reading its slice of the parent's block).
class DenseRows {
 public:
  DenseRows(const Dataset& data, const LossFunction& loss,
            std::span<const size_t> rows = {})
      : data_(data),
        loss_(loss),
        rows_(rows),
        size_(rows.empty() ? data.size() : rows.size()) {}

  size_t size() const { return size_; }
  size_t dim() const { return data_.dim(); }

  void AddGradient(const Vector& w, size_t row, double scale, Vector* grad) {
    loss_.AddGradient(w, data_[Row(row)], scale, grad);
  }
  void Step(double eta, const Vector& grad, Vector* w) { w->Axpy(-eta, grad); }
  void ResetGradient(Vector* grad) { grad->SetZero(); }

  /// Pulls every cache line of row `row` toward L1 ahead of its use.
  /// Always inlined: GCC deems an out-of-line function whose only effect
  /// is __builtin_prefetch free of side effects and deletes its calls.
  [[gnu::always_inline]] void Prefetch(size_t row) const {
    const VectorView x = data_[Row(row)].x;
    constexpr uintptr_t kLine = 64;
    const uintptr_t last = reinterpret_cast<uintptr_t>(x.end() - 1);
    for (uintptr_t line = reinterpret_cast<uintptr_t>(x.begin()) & ~(kLine - 1);
         line <= last; line += kLine) {
      __builtin_prefetch(reinterpret_cast<const void*>(line));
    }
  }

 private:
  size_t Row(size_t k) const { return rows_.empty() ? k : rows_[k]; }

  const Dataset& data_;
  const LossFunction& loss_;
  std::span<const size_t> rows_;  // empty: storage order
  size_t size_;
};

/// Row-access policy for L2-regularized logistic regression over sparse
/// rows: the dense logistic loss's gradient, computed in O(nnz). When the
/// batch gradient stays sparse (λ = 0 and no noise source), the step and
/// the reset visit only the coordinates the batch touched; every other
/// coordinate would only receive an exact −η·0.
class SparseLogisticRows {
 public:
  SparseLogisticRows(const SparseDataset& data, double lambda,
                     bool sparse_steps)
      : data_(data), lambda_(lambda), sparse_steps_(sparse_steps) {}

  size_t size() const { return data_.size(); }
  size_t dim() const { return data_.dim(); }

  /// A sparse row is a few scattered entries; nothing worth prefetching.
  void Prefetch(size_t) const {}

  void AddGradient(const Vector& w, size_t row, double scale, Vector* grad) {
    const SparseExample& e = data_[row];
    // ∇ℓ = −y·σ(−y⟨w,x⟩)·x (+ λw), exactly as the dense logistic loss.
    double margin = e.label * Dot(e.x, w);
    double coeff = -e.label * Sigmoid(-margin);
    e.x.AxpyInto(scale * coeff, grad);
    if (sparse_steps_) {
      for (const auto& entry : e.x.entries()) touched_.push_back(entry.first);
    }
    if (lambda_ > 0.0) grad->Axpy(scale * lambda_, w);
  }

  void Step(double eta, const Vector& grad, Vector* w) {
    if (!sparse_steps_) {
      w->Axpy(-eta, grad);
      return;
    }
    // Examples in a batch can share coordinates, so dedupe first: each
    // coordinate must be stepped exactly once.
    std::sort(touched_.begin(), touched_.end());
    touched_.erase(std::unique(touched_.begin(), touched_.end()),
                   touched_.end());
    for (size_t index : touched_) (*w)[index] += -eta * grad[index];
  }

  void ResetGradient(Vector* grad) {
    if (!sparse_steps_) {
      grad->SetZero();
      return;
    }
    for (size_t index : touched_) (*grad)[index] = 0.0;
    touched_.clear();
  }

 private:
  const SparseDataset& data_;
  double lambda_;
  bool sparse_steps_;
  std::vector<size_t> touched_;  // grad coordinates the current batch set
};

/// The one PSGD pass/batch loop, over any row-access policy `Rows` that
/// accumulates a row's gradient, applies the step, resets the gradient and
/// may prefetch a row (see DenseRows). The gradient is zero on entry to
/// every batch.
template <typename Rows>
Result<PsgdOutput> RunPsgdLoop(
    Rows& rows, const StepSizeSchedule& schedule, const PsgdOptions& options,
    Rng* rng, GradientNoiseSource* noise,
    const std::function<void(size_t, const Vector&)>& pass_callback,
    const PsgdCheckpointPlan* checkpoint) {
  BOLTON_RETURN_IF_ERROR(ValidateOptions(rows.size(), options));
  const PsgdResumeState* resume =
      checkpoint != nullptr ? checkpoint->resume : nullptr;
  if (checkpoint != nullptr &&
      (checkpoint->every_passes > 0 || resume != nullptr) &&
      options.sampling != SamplingMode::kPermutation) {
    return Status::InvalidArgument(
        "checkpoint/resume requires permutation sampling (the resume "
        "contract replays the permutation stream)");
  }

  obs::ScopedSpan run_span("psgd.run");
  obs::CounterScope run_counters(&run_span);

  const size_t m = rows.size();
  const size_t dim = rows.dim();
  const size_t b = options.batch_size;
  const bool project = std::isfinite(options.radius);

  Vector w(dim);
  Vector grad(dim);
  Vector iterate_sum(dim);

  PsgdStats stats;
  std::vector<size_t> order;
  size_t step = 0;  // 1-based after increment; indexes the schedule
  size_t first_pass = 1;
  if (resume != nullptr) {
    if (resume->w.dim() != dim) {
      return Status::InvalidArgument(
          StrFormat("resume state dim %zu does not match data dim %zu",
                    resume->w.dim(), dim));
    }
    if (resume->completed_passes >= options.passes) {
      return Status::InvalidArgument(
          StrFormat("resume state already holds %zu of %zu passes",
                    resume->completed_passes, options.passes));
    }
    if (resume->order.size() != m) {
      return Status::InvalidArgument(
          StrFormat("resume permutation covers %zu of %zu examples",
                    resume->order.size(), m));
    }
    if (!resume->iterate_sum.empty() && resume->iterate_sum.dim() != dim) {
      return Status::InvalidArgument("resume iterate_sum dim mismatch");
    }
    w = resume->w;
    if (!resume->iterate_sum.empty()) iterate_sum = resume->iterate_sum;
    stats = resume->stats;
    step = resume->step;
    order = resume->order;
    rng->RestoreState(resume->rng);
    first_pass = resume->completed_passes + 1;
  } else if (options.sampling == SamplingMode::kPermutation) {
    obs::ScopedSpan shuffle_span("psgd.shuffle");
    order = RandomPermutation(m, rng);
  } else {
    order.resize(b);  // reused scratch for with-replacement draws
  }

  static obs::Histogram* pass_seconds = obs::MetricsRegistry::Default()
      .GetHistogram("psgd.pass_seconds", obs::LatencySecondsBuckets());

  for (size_t pass = first_pass; pass <= options.passes; ++pass) {
    BOLTON_FAILPOINT("psgd.pass");
    obs::ScopedSpan pass_span("psgd.pass");
    obs::CounterScope pass_counters(&pass_span);
    obs::PhaseAccumulator gradient_phase("psgd.gradient");
    obs::PhaseAccumulator noise_phase("psgd.noise_draw");
    obs::PhaseAccumulator projection_phase("psgd.projection");
    const uint64_t pass_start = obs::MonotonicNanos();
    if (options.sampling == SamplingMode::kPermutation && pass > 1 &&
        options.fresh_permutation_each_pass) {
      obs::ScopedSpan shuffle_span("psgd.shuffle");
      order = RandomPermutation(m, rng);
    }
    for (size_t begin = 0; begin < m; begin += b) {
      // Batch-boundary cancellation poll: a serve request whose deadline
      // passed (or whose daemon is draining) abandons the run here, before
      // any further work — and long before any noise draw.
      if (options.executor.cancel != nullptr &&
          options.executor.cancel->Cancelled()) {
        return options.executor.cancel->Check("psgd run");
      }
      const size_t batch_len =
          options.sampling == SamplingMode::kPermutation
              ? std::min(b, m - begin)
              : b;
      ++step;

      {
        obs::PhaseTimer timer(&gradient_phase);
        const double scale = 1.0 / static_cast<double>(batch_len);
        for (size_t j = 0; j < batch_len; ++j) {
          size_t idx;
          if (options.sampling == SamplingMode::kPermutation) {
            const size_t pos = begin + j;
            idx = order[pos];
            if (pos + kPrefetchDistance < m) {
              rows.Prefetch(order[pos + kPrefetchDistance]);
            }
          } else {
            idx = rng->UniformInt(m);
          }
          rows.AddGradient(w, idx, scale, &grad);
          ++stats.gradient_evaluations;
        }
      }

      if (noise != nullptr) {
        obs::PhaseTimer timer(&noise_phase);
        BOLTON_ASSIGN_OR_RETURN(Vector z, noise->Sample(step, dim, rng));
        grad += z;
        ++stats.noise_samples;
      }

      const double eta = schedule.StepSize(step);
      if (!(eta > 0.0) || !std::isfinite(eta)) {
        return Status::InvalidArgument(
            StrFormat("schedule '%s' produced invalid step size %g at t=%zu",
                      schedule.name().c_str(), eta, step));
      }
      rows.Step(eta, grad, &w);
      if (project) {
        obs::PhaseTimer timer(&projection_phase);
        ProjectToL2BallInPlace(&w, options.radius);
      }
      rows.ResetGradient(&grad);

      ++stats.updates;
      if (options.output == OutputMode::kAverageAll) iterate_sum += w;
    }
    pass_seconds->Observe(
        static_cast<double>(obs::MonotonicNanos() - pass_start) * 1e-9);
    if (pass_callback) pass_callback(pass, w);

    if (checkpoint != nullptr && checkpoint->every_passes > 0 &&
        checkpoint->sink && pass < options.passes &&
        pass % checkpoint->every_passes == 0) {
      obs::ScopedSpan checkpoint_span("psgd.checkpoint");
      PsgdResumeState snapshot;
      snapshot.completed_passes = pass;
      snapshot.step = step;
      snapshot.w = w;
      if (options.output == OutputMode::kAverageAll) {
        snapshot.iterate_sum = iterate_sum;
      }
      snapshot.stats = stats;
      snapshot.rng = rng->SaveState();
      snapshot.order = order;
      Status saved = checkpoint->sink(snapshot);
      if (!saved.ok()) {
        return saved.WithContext(
            StrFormat("checkpoint sink at pass %zu", pass));
      }
    }
  }

  FlushStats(stats);

  PsgdOutput out;
  out.stats = stats;
  if (options.output == OutputMode::kAverageAll && stats.updates > 0) {
    iterate_sum *= 1.0 / static_cast<double>(stats.updates);
    out.model = std::move(iterate_sum);
  } else {
    out.model = std::move(w);
  }
  return out;
}

}  // namespace

Result<PsgdOutput> RunPsgd(
    const Dataset& data, const LossFunction& loss,
    const StepSizeSchedule& schedule, const PsgdOptions& options, Rng* rng,
    GradientNoiseSource* noise,
    const std::function<void(size_t, const Vector&)>& pass_callback,
    const PsgdCheckpointPlan* checkpoint) {
  DenseRows rows(data, loss);
  return RunPsgdLoop(rows, schedule, options, rng, noise, pass_callback,
                     checkpoint);
}

Result<PsgdOutput> RunPsgdOnRows(const Dataset& data,
                                 std::span<const size_t> rows,
                                 const LossFunction& loss,
                                 const StepSizeSchedule& schedule,
                                 const PsgdOptions& options, Rng* rng) {
  if (rows.empty()) return Status::InvalidArgument("empty training set");
  for (size_t row : rows) {
    if (row >= data.size()) {
      return Status::OutOfRange(
          StrFormat("row index %zu exceeds training size %zu", row,
                    data.size()));
    }
  }
  DenseRows dense(data, loss, rows);
  return RunPsgdLoop(dense, schedule, options, rng, /*noise=*/nullptr,
                     /*pass_callback=*/nullptr, /*checkpoint=*/nullptr);
}

Result<PsgdOutput> RunPsgd(
    const SparseDataset& data, double lambda,
    const StepSizeSchedule& schedule, const PsgdOptions& options, Rng* rng,
    GradientNoiseSource* noise,
    const std::function<void(size_t, const Vector&)>& pass_callback,
    const PsgdCheckpointPlan* checkpoint) {
  if (lambda < 0.0) return Status::InvalidArgument("lambda must be >= 0");
  SparseLogisticRows rows(data, lambda,
                          /*sparse_steps=*/lambda == 0.0 && noise == nullptr);
  return RunPsgdLoop(rows, schedule, options, rng, noise, pass_callback,
                     checkpoint);
}

}  // namespace bolton
