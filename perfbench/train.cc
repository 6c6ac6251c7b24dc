// pb_train: the train_serial_large and train_sharded_large workloads.
//
// Bolt-on Algorithm 2 through PrivatePsgd at paper scale: logistic loss,
// λ = 1e-4, R = 1/λ, (ε, δ) = (0.1, 1/m²), b = 1, k = 2 passes, on one
// GenerateTwoGaussians draw of m = 500k training rows plus 20k held out
// (d = 50). The sharded workload runs the same spec with shards = nproc on
// GlobalThreadPool(). Every number comes from timing calls into the
// library's public functions from here; nothing inside src/ is changed.
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics (see README.md for the definitions and what each should move).
#include <time.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/private_sgd.h"
#include "core/sensitivity.h"
#include "data/synthetic.h"
#include "ml/metrics.h"
#include "obs/ledger.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "optim/loss.h"
#include "optim/parallel_executor.h"
#include "optim/schedule.h"
#include "optim/thread_pool.h"
#include "random/dp_noise.h"
#include "random/permutation.h"
#include "report.h"

namespace {

using namespace bolton;
using perfbench::Clock;
using perfbench::Median;
using perfbench::SecondsSince;
using perfbench::Summarize;

constexpr size_t kTrainRows = 500000;
constexpr size_t kTestRows = 20000;
constexpr size_t kDim = 50;
constexpr double kMargin = 1.5;
constexpr double kLambda = 1e-4;
constexpr double kEpsilon = 0.1;
constexpr size_t kPasses = 2;
constexpr size_t kBatch = 1;
constexpr int kSetupReps = 5;
// Each traced training run is followed by this many held-out scoring passes.
constexpr int kPredictRepsPerRun = 40;
// test_accuracy is the mean held-out accuracy over this many releases of
// the run's noiseless model. At ε = 0.1 the output noise outweighs the
// model, so one release's accuracy is a lottery over the noise draw
// (0.40 to 0.68 across seeds); the mean over draws is what a seed-to-seed
// comparison can resolve.
constexpr int kAccuracyDraws = 200;
constexpr int kMinRuns = 3;

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

bool BitIdentical(const Vector& a, const Vector& b) {
  return a.dim() == b.dim() &&
         std::memcmp(a.data(), b.data(), a.dim() * sizeof(double)) == 0;
}

int Fail(const std::string& why) {
  std::fprintf(stderr, "pb_train: correctness gate failed: %s\n", why.c_str());
  return 1;
}

struct Workload {
  Dataset train;
  Dataset test;
  size_t shards = 1;
  std::unique_ptr<LossFunction> loss;
  BoltOnOptions options;
  std::vector<double> generate_s;
  std::vector<double> setup_s;
};

// Set-up is data generation plus pool warm-up, repeated kSetupReps times
// (each from scratch) so setup_s is a median, not one sample.
Status SetUp(const perfbench::Args& args, Workload* w) {
  w->shards = args.workload == "train_sharded_large"
                  ? std::max(1u, std::thread::hardware_concurrency())
                  : 1;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    w->train = Dataset();
    w->test = Dataset();
    const auto start = Clock::now();
    BOLTON_ASSIGN_OR_RETURN(
        Dataset full, GenerateTwoGaussians(kTrainRows + kTestRows, kDim,
                                           kMargin, args.seed));
    w->generate_s.push_back(SecondsSince(start));
    auto split = full.SplitAt(kTrainRows);
    full = Dataset();
    w->train = std::move(split.first);
    w->test = std::move(split.second);
    if (w->shards > 1) {
      GlobalThreadPool().ParallelRun(w->shards, [](size_t) {});
    }
    w->setup_s.push_back(SecondsSince(start));
  }
  BOLTON_ASSIGN_OR_RETURN(w->loss, MakeLogisticLoss(kLambda, 1.0 / kLambda));
  w->options.passes = kPasses;
  w->options.batch_size = kBatch;
  w->options.shards = w->shards;
  const double m = static_cast<double>(kTrainRows);
  w->options.privacy = PrivacyParams{kEpsilon, 1.0 / (m * m)};
  return Status::OK();
}

// The gates every released model must pass: finite and d-dimensional,
// calibrated to the closed-form Lemma 8 bound 2L/(γ·⌊m/s⌋·b), and
// bit-identical to the first model of the run (same seed).
Status CheckRelease(const Workload& w, const PrivateSgdOutput& out,
                    const Vector* first) {
  if (out.model.dim() != kDim) {
    return Status::Internal("released model is not d-dimensional");
  }
  for (size_t i = 0; i < out.model.dim(); ++i) {
    if (!std::isfinite(out.model[i])) {
      return Status::Internal("released model is not finite");
    }
  }
  const double want = 2.0 * w.loss->lipschitz() /
                      (w.loss->strong_convexity() *
                       static_cast<double>(kTrainRows / w.shards) * kBatch);
  if (std::fabs(out.sensitivity - want) > 1e-12 * want) {
    return Status::Internal("sensitivity does not match Lemma 8");
  }
  if (first != nullptr && !BitIdentical(*first, out.model)) {
    return Status::Internal("model differs between samples at one seed");
  }
  return Status::OK();
}

Rng RunRng(uint64_t seed) { return Rng(seed * 0x9E3779B97F4A7C15ull + 7); }

int EndToEnd(const perfbench::Args& args, Workload& w) {
  std::vector<double> train_ms;
  Vector first, noiseless;
  double sensitivity = 0.0, release_accuracy = 0.0;
  uint64_t attempted = 0;
  const auto window = Clock::now();
  while (SecondsSince(window) < args.seconds ||
         static_cast<int>(train_ms.size()) < kMinRuns) {
    Rng rng = RunRng(args.seed);
    ++attempted;
    const auto start = Clock::now();
    auto out = PrivatePsgd(w.train, *w.loss, w.options, &rng);
    const double ms = SecondsSince(start) * 1e3;
    if (!out.ok()) return Fail("PrivatePsgd: " + out.status().ToString());
    Status gate = CheckRelease(w, out.value(), train_ms.empty() ? nullptr : &first);
    if (!gate.ok()) return Fail(gate.message());
    if (train_ms.empty()) {
      first = out.value().model;
      noiseless = out.value().noiseless_model;
      sensitivity = out.value().sensitivity;
    }
    train_ms.push_back(ms);
    release_accuracy = BinaryAccuracy(out.value().model, w.test);
  }
  const double window_s = SecondsSince(window);
  double accuracy = 0.0;
  for (int k = 0; k < kAccuracyDraws; ++k) {
    Rng noise_rng((args.seed << 20) + 1 + k);
    auto release = BoltOnPerturb(noiseless, sensitivity, w.options.privacy,
                                 &noise_rng);
    if (!release.ok()) return Fail("BoltOnPerturb: " + release.status().ToString());
    accuracy += BinaryAccuracy(release.value().model, w.test) / kAccuracyDraws;
  }
  std::printf("accuracy of this seed's release %.6g; mean over %d releases "
              "%.6g\n", release_accuracy, kAccuracyDraws, accuracy);
  const auto train = Summarize(train_ms);

  perfbench::Report report;
  report.AddMedian("setup_s", "s", Summarize(w.setup_s));
  report.Add("train_rows_per_s", "rows/s",
             kTrainRows * kPasses / (train.median * 1e-3));
  report.Add("test_accuracy", "fraction", accuracy);
  report.Add("peak_rss_mb", "MB", perfbench::ProcStatusKb(0, "VmHWM") / 1024.0);
  report.AddMedian("train_p50_ms", "ms", train);
  report.Add("max_train_rps_under_slo", "req/s", train_ms.size() / window_s);
  report.PrintJson(true, attempted, 0);  // a failed run aborts above
  return 0;
}

// Sum of span durations by name.
std::map<std::string, double> SpanSeconds() {
  std::map<std::string, double> total;
  for (const auto& span : obs::TraceRecorder::Default().Snapshot()) {
    total[span.name] += span.duration_ns * 1e-9;
  }
  return total;
}

int Traced(const perfbench::Args& args, Workload& w) {
  perfbench::Report report;
  const size_t m = w.train.size();
  Rng rng = RunRng(args.seed);

  // data: one row visit, Dot(x_i, w), in storage order and permuted order.
  Vector probe(kDim);
  for (size_t j = 0; j < kDim; ++j) probe[j] = 1.0 / (1.0 + j);
  const std::vector<size_t> perm = RandomPermutation(m, &rng);
  std::vector<double> seq_ns, perm_ns;
  volatile double sink = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    double acc = 0.0;
    auto start = Clock::now();
    for (size_t i = 0; i < m; ++i) acc += Dot(w.train[i].x, probe);
    seq_ns.push_back(SecondsSince(start) * 1e9 / m);
    start = Clock::now();
    for (size_t i = 0; i < m; ++i) acc += Dot(w.train[perm[i]].x, probe);
    perm_ns.push_back(SecondsSince(start) * 1e9 / m);
    sink = sink + acc;
  }

  // random: a full permutation of [m], and one output-noise draw at d.
  std::vector<double> permutation_ms;
  for (int rep = 0; rep < 5; ++rep) {
    const auto start = Clock::now();
    auto p = RandomPermutation(m, &rng);
    permutation_ms.push_back(SecondsSince(start) * 1e3);
    sink = sink + p[0];
  }
  SensitivitySetup setup;
  setup.passes = kPasses;
  setup.batch_size = kBatch;
  setup.num_examples = m;
  std::vector<double> noise_us, sensitivity_us;
  double delta2 = 0.0;
  for (int rep = 0; rep < 2000; ++rep) {
    auto start = Clock::now();
    auto s = BoltOnSensitivity(*w.loss, 0.0, setup, w.shards, false,
                               w.options.privacy);
    sensitivity_us.push_back(SecondsSince(start) * 1e6);
    if (!s.ok()) return Fail("BoltOnSensitivity: " + s.status().ToString());
    delta2 = s.value();
    start = Clock::now();
    auto noise = SampleDpNoise(NoiseMechanism::kGaussian, kDim, delta2,
                               kEpsilon, w.options.privacy.delta, &rng);
    noise_us.push_back(SecondsSince(start) * 1e6);
    if (!noise.ok()) return Fail("SampleDpNoise: " + noise.status().ToString());
  }

  // core/optim: PrivatePsgd against the black box it wraps (the same
  // RunShardedPsgd call with the same spec), interleaved; then telemetry
  // off against all pillars on.
  auto schedule = MakeInverseTimeStep(w.loss->strong_convexity(),
                                      w.loss->smoothness());
  if (!schedule.ok()) return Fail(schedule.status().ToString());
  PsgdOptions psgd;
  psgd.run() = w.options.run();
  psgd.radius = w.loss->radius();
  std::vector<double> private_s, box_s, cpu_s, sharded_s, partition_ms,
      dispatch_us, average_ms, busy, idle_ms, queue_ms;
  std::vector<double> off_s, on_s, gradient, projection, shuffle, draws;
  std::vector<double> private_ms, predict_ms;
  for (int rep = 0; rep < 3; ++rep) {
    Rng run_rng = RunRng(args.seed);
    const double cpu0 = CpuSeconds();
    auto start = Clock::now();
    auto out = PrivatePsgd(w.train, *w.loss, w.options, &run_rng);
    private_s.push_back(SecondsSince(start));
    cpu_s.push_back(CpuSeconds() - cpu0);
    if (!out.ok()) return Fail(out.status().ToString());
    private_ms.push_back(private_s.back() * 1e3);
    for (int r = 0; r < kPredictRepsPerRun; ++r) {
      const auto p = Clock::now();
      (void)BinaryAccuracy(out.value().model, w.test);
      predict_ms.push_back(SecondsSince(p) * 1e3);
    }
    Rng box_rng = RunRng(args.seed);
    start = Clock::now();
    auto box = RunShardedPsgd(w.train, *w.loss, *schedule.value(), psgd,
                              &box_rng);
    box_s.push_back(SecondsSince(start));
    if (!box.ok()) return Fail(box.status().ToString());
    const WorkerUtilization& u = box.value().utilization;
    if (w.shards > 1) {
      sharded_s.push_back(box_s.back());
      partition_ms.push_back(u.partition_ns * 1e-6);
      average_ms.push_back(u.average_ns * 1e-6);
      busy.push_back(u.busy_fraction);
      std::vector<double> spawn;
      double idle_max = 0.0, queue = 0.0;
      for (const WorkerStats& ws : u.workers) {
        spawn.push_back(ws.spawn_ns * 1e-3);
        idle_max = std::max(idle_max, ws.idle_ns * 1e-6);
        queue += ws.queue_wait_ns * 1e-6;
      }
      dispatch_us.push_back(Median(spawn));
      idle_ms.push_back(idle_max);
      queue_ms.push_back(queue);
    }

    for (bool on : {false, true}) {
      obs::SetAllEnabled(on);
      obs::TraceRecorder::Default().Clear();
      obs::PrivacyLedger::Default().Clear();
      Rng obs_rng = RunRng(args.seed);
      start = Clock::now();
      auto run = PrivatePsgd(w.train, *w.loss, w.options, &obs_rng);
      (on ? on_s : off_s).push_back(SecondsSince(start));
      obs::SetAllEnabled(false);
      if (!run.ok()) return Fail(run.status().ToString());
      if (!on) continue;
      auto spans = SpanSeconds();
      const double run_total = spans["psgd.run"];
      gradient.push_back(spans["psgd.gradient"] / run_total);
      projection.push_back(spans["psgd.projection"] / run_total);
      shuffle.push_back((spans["psgd.shuffle"] + spans["psgd.shard_partition"]) /
                        run_total);
      double n = 0;
      for (const auto& e : obs::PrivacyLedger::Default().Snapshot()) {
        if (e.kind == "noise_draw") ++n;
      }
      draws.push_back(n);
    }
  }
  obs::TraceRecorder::Default().Clear();
  obs::PrivacyLedger::Default().Clear();
  for (double n : draws) {
    if (n != 1.0) return Fail("a PrivatePsgd run drew output noise != 1 time");
  }

  auto zero_if_empty = [](const std::vector<double>& v) {
    return v.empty() ? 0.0 : Median(v);
  };
  report.AddMedian("data.generate_s", "s", Summarize(w.generate_s));
  report.AddMedian("data.row_read_ns_permuted", "ns", Summarize(perm_ns));
  report.AddMedian("data.row_read_ns_sequential", "ns", Summarize(seq_ns));
  report.AddMedian("random.permutation_ms", "ms", Summarize(permutation_ms));
  report.AddMedian("random.noise_draw_us", "us", Summarize(noise_us));
  report.AddMedian("core.sensitivity_us", "us", Summarize(sensitivity_us));
  report.Add("core.perturb_share", "fraction",
             1.0 - Median(box_s) / Median(private_s));
  report.Add("core.noise_draws_per_run", "count", Median(draws));
  report.Add("optim.psgd_rows_per_s", "rows/s",
             m * kPasses / Median(box_s));
  report.Add("optim.gradient_share", "fraction", Median(gradient));
  report.Add("optim.projection_share", "fraction", Median(projection));
  report.Add("optim.shuffle_share", "fraction", Median(shuffle));
  report.Add("optim.sharded_psgd_s", "s", zero_if_empty(sharded_s));
  report.Add("optim.partition_ms", "ms", zero_if_empty(partition_ms));
  report.Add("optim.dispatch_us", "us", zero_if_empty(dispatch_us));
  report.Add("optim.average_ms", "ms", zero_if_empty(average_ms));
  report.Add("optim.worker_busy_fraction", "fraction", zero_if_empty(busy));
  report.Add("optim.worker_idle_ms_max", "ms", zero_if_empty(idle_ms));
  report.Add("optim.queue_wait_ms", "ms", zero_if_empty(queue_ms));
  report.AddMedian("optim.cpu_s_per_run", "s", Summarize(cpu_s));
  // Serve-path layers are not on this workload's path; they read 0.
  for (const auto& [name, unit] : perfbench::kServeOnlyLayers) {
    report.Add(name, unit, 0.0);
  }
  report.Add("obs.overhead_share", "fraction", Median(on_s) / Median(off_s) - 1.0);
  report.Add("error_share", "fraction", 0.0);
  report.AddTail("train_tail_ms", "ms", Summarize(private_ms));
  report.AddMedian("predict_p50_ms", "ms", Summarize(predict_ms));
  report.AddTail("predict_tail_ms", "ms", Summarize(predict_ms));
  report.PrintJson(true, private_s.size() + box_s.size() + on_s.size() + off_s.size(),
                   0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) return 2;
  if (args.workload != "train_serial_large" &&
      args.workload != "train_sharded_large") {
    std::fprintf(stderr, "pb_train: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  obs::SetAllEnabled(false);
  Workload w;
  Status set_up = SetUp(args, &w);
  if (!set_up.ok()) return Fail("set-up: " + set_up.ToString());
  return args.trace ? Traced(args, w) : EndToEnd(args, w);
}
