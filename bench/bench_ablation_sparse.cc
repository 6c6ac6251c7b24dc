// Ablation — sparse vs dense PSGD throughput (google-benchmark).
//
// RunPsgd's sparse-logistic row policy (optim/psgd.h) runs the same loop as
// the dense one and produces bit-identical models, so this is purely a
// systems ablation: on ~1%-density data the O(nnz) gradient kernel should
// beat the O(d) dense kernel by roughly the inverse density, while on fully
// dense data the two are comparable.
#include <benchmark/benchmark.h>

#include <map>

#include "bench/bench_common.h"
#include "data/sparse_dataset.h"
#include "data/synthetic.h"
#include "optim/loss.h"
#include "optim/psgd.h"
#include "optim/schedule.h"
#include "random/rng.h"

namespace bolton {
namespace {

// ~1%-density binary data in `dim` dimensions: each example activates a
// handful of class-correlated coordinates.
SparseDataset MakeSparseData(size_t m, size_t dim, uint64_t seed) {
  SparseDataset ds(dim, 2);
  Rng gen(seed);
  const size_t active = dim / 100 + 3;
  for (size_t i = 0; i < m; ++i) {
    bool positive = (i % 2 == 0);
    std::vector<SparseVector::Entry> entries;
    for (size_t f = 0; f < active; ++f) {
      size_t index = gen.UniformInt(dim / 2) + (positive ? 0 : dim / 2);
      bool duplicate = false;
      for (const auto& e : entries) duplicate |= (e.first == index);
      if (!duplicate) entries.emplace_back(index, 0.3);
    }
    ds.Add(SparseExample{
        SparseVector::FromEntries(dim, std::move(entries)).MoveValue(),
        positive ? +1 : -1});
  }
  ds.NormalizeToUnitBall();
  return ds;
}

void BM_DensePsgd(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  static std::map<size_t, Dataset>* cache = new std::map<size_t, Dataset>();
  auto it = cache->find(dim);
  if (it == cache->end()) {
    it = cache->emplace(dim, MakeSparseData(2000, dim, 31).ToDense()).first;
  }
  auto loss = MakeLogisticLoss(0.0, 1e300).MoveValue();
  auto schedule = MakeConstantStep(0.1).MoveValue();
  PsgdOptions options;
  options.passes = 1;
  uint64_t seed = 1;
  for (auto _ : state) {
    Rng rng(seed++);
    auto run = RunPsgd(it->second, *loss, *schedule, options, &rng);
    run.status().CheckOK();
    benchmark::DoNotOptimize(run.value().model);
  }
}

void BM_SparsePsgd(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  static std::map<size_t, SparseDataset>* cache =
      new std::map<size_t, SparseDataset>();
  auto it = cache->find(dim);
  if (it == cache->end()) {
    it = cache->emplace(dim, MakeSparseData(2000, dim, 31)).first;
  }
  auto schedule = MakeConstantStep(0.1).MoveValue();
  PsgdOptions options;
  options.passes = 1;
  uint64_t seed = 1;
  for (auto _ : state) {
    Rng rng(seed++);
    auto run = RunPsgd(it->second, 0.0, *schedule, options, &rng);
    run.status().CheckOK();
    benchmark::DoNotOptimize(run.value().model);
  }
}

BENCHMARK(BM_DensePsgd)->Arg(100)->Arg(1000)->Arg(10000)->MinTime(0.1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SparsePsgd)->Arg(100)->Arg(1000)->Arg(10000)->MinTime(0.1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bolton

// Expanded BENCHMARK_MAIN so BOLTON_PROFILE=HZ can sample the run (the
// collapsed profile lands in BOLTON_PROFILE_OUT, default
// bench_profile.collapsed).
int main(int argc, char** argv) {
  bolton::bench::EnableTelemetryFromEnv();
  bolton::bench::EnableProfilerFromEnv();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  bolton::bench::FinishProfilerFromEnv();
  return 0;
}
