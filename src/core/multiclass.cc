#include "core/multiclass.h"

#include <limits>
#include <thread>

#include "util/logging.h"

namespace bolton {

int MulticlassModel::Predict(VectorView x) const {
  BOLTON_CHECK(!weights.empty());
  int best = 0;
  double best_score = -std::numeric_limits<double>::infinity();
  for (size_t c = 0; c < weights.size(); ++c) {
    double score = Dot(weights[c], x);
    if (score > best_score) {
      best_score = score;
      best = static_cast<int>(c);
    }
  }
  return best;
}

Result<MulticlassModel> TrainOneVsAll(const Dataset& data,
                                      const PrivacyParams& total_budget,
                                      const BinaryTrainFn& train, Rng* rng,
                                      size_t threads) {
  BOLTON_RETURN_IF_ERROR(total_budget.Validate());
  if (!train) return Status::InvalidArgument("null train function");
  if (data.num_classes() < 2) {
    return Status::InvalidArgument("need at least 2 classes");
  }
  if (threads < 1) return Status::InvalidArgument("threads must be >= 1");
  const int num_classes = data.num_classes();
  const PrivacyParams per_model = total_budget.SplitEvenly(num_classes);

  // Split every per-class RNG up front from the shared stream so the
  // results are identical regardless of thread count or scheduling.
  std::vector<Rng> class_rngs;
  class_rngs.reserve(num_classes);
  for (int c = 0; c < num_classes; ++c) class_rngs.push_back(rng->Split());

  std::vector<Result<Vector>> results(num_classes,
                                      Result<Vector>(Vector()));
  auto train_class = [&](int c) {
    Dataset binary = data.OneVsAllView(c);
    results[c] = train(binary, per_model, &class_rngs[c]);
  };

  if (threads <= 1 || num_classes == 2) {
    for (int c = 0; c < num_classes; ++c) train_class(c);
  } else {
    // Static round-robin assignment: class c goes to worker c % threads.
    std::vector<std::thread> workers;
    size_t worker_count =
        std::min(threads, static_cast<size_t>(num_classes));
    workers.reserve(worker_count);
    for (size_t w = 0; w < worker_count; ++w) {
      workers.emplace_back([&, w]() {
        for (int c = static_cast<int>(w); c < num_classes;
             c += static_cast<int>(worker_count)) {
          train_class(c);
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
  }

  MulticlassModel model;
  model.weights.reserve(num_classes);
  for (int c = 0; c < num_classes; ++c) {
    if (!results[c].ok()) {
      return results[c].status().WithContext(
          "training one-vs-all class " + std::to_string(c));
    }
    model.weights.push_back(results[c].MoveValue());
  }
  return model;
}

}  // namespace bolton
