// Shared pieces of the perfbench binaries: the reporting rule for timings,
// the open-loop arrival schedule, the budget reconciliation behind the
// exactly-once check, /proc memory readings, and the result printer whose
// last line is the one-object JSON summary run.py forwards.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <sys/types.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Reporting rule: a timing is its median plus the highest candidate
// percentile that still has at least kTailBeyond samples beyond it, with
// the sample count. Percentiles are nearest-rank.
// ---------------------------------------------------------------------------

inline constexpr size_t kTailBeyond = 10;
inline constexpr double kTailCandidates[] = {99.9, 99.0, 95.0, 90.0, 75.0};

// Samples strictly beyond the nearest-rank p-th percentile of n samples.
inline size_t SamplesBeyond(size_t n, double p) {
  const auto rank = static_cast<size_t>(std::ceil(p / 100.0 * n - 1e-9));
  return n - std::min(n, std::max<size_t>(rank, 1));
}

// The percentile the tail of n samples is reported at; 50 (the median)
// when even p75 has fewer than kTailBeyond samples beyond it.
inline double TailPercentileFor(size_t n) {
  for (double p : kTailCandidates) {
    if (SamplesBeyond(n, p) >= kTailBeyond) return p;
  }
  return 50.0;
}

// Nearest-rank percentile of `values`; NaN for an empty set.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  auto rank = static_cast<size_t>(std::ceil(p / 100.0 * values.size() - 1e-9));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

struct Summary {
  double median = std::nan("");
  double tail_percentile = 50.0;
  double tail = std::nan("");
  size_t count = 0;
};

inline Summary Summarize(const std::vector<double>& values) {
  Summary s;
  s.count = values.size();
  s.median = Percentile(values, 50.0);
  s.tail_percentile = TailPercentileFor(values.size());
  s.tail = Percentile(values, s.tail_percentile);
  return s;
}

inline double Median(const std::vector<double>& values) {
  return Percentile(values, 50.0);
}

// ---------------------------------------------------------------------------
// Open-loop arrival schedule. Arrivals are a Poisson process at `rate`
// per second; the request mix is drawn in groups of kMixGroup where
// exactly one slot (chosen by the seed) is a train and the rest predicts,
// so every step of `count` arrivals (a multiple of kMixGroup) carries
// exactly count / kMixGroup trains whatever the seed. The generator is
// the benchmark's own (std::mt19937_64), so the inputs do not move when
// the library's Rng changes.
// ---------------------------------------------------------------------------

inline constexpr size_t kMixGroup = 4;

struct Arrival {
  double due_s = 0.0;  // offset from the step start
  bool is_train = false;
  uint64_t pick = 0;   // seeded choice of tenant / feature row
};

inline std::vector<Arrival> MakeArrivals(uint64_t seed, double rate,
                                         size_t count) {
  std::mt19937_64 gen(seed);
  auto uniform = [&gen] {
    return static_cast<double>(gen() >> 11) * 0x1.0p-53;  // [0, 1)
  };
  std::vector<Arrival> arrivals(count);
  double t = 0.0;
  size_t train_slot = 0;
  for (size_t i = 0; i < count; ++i) {
    if (i % kMixGroup == 0) train_slot = gen() % kMixGroup;
    t += -std::log1p(-uniform()) / rate;
    arrivals[i].due_s = t;
    arrivals[i].is_train = (i % kMixGroup) == train_slot;
    arrivals[i].pick = gen();
  }
  return arrivals;
}

// ---------------------------------------------------------------------------
// Exactly-once reconciliation: after the run every tenant's spent ε must
// equal (its 200 trains) × ε per train and nothing may stay reserved.
// ---------------------------------------------------------------------------

struct TenantSpend {
  double spent_epsilon = 0.0;
  double reserved_epsilon = 0.0;
};

// Returns one line per violated tenant; empty means reconciled.
inline std::vector<std::string> ReconcileBudget(
    const std::map<std::string, size_t>& trains_ok, double epsilon_per_train,
    const std::map<std::string, TenantSpend>& accounts) {
  std::vector<std::string> problems;
  char line[256];
  for (const auto& [tenant, trains] : trains_ok) {
    auto it = accounts.find(tenant);
    if (it == accounts.end()) {
      problems.push_back("tenant " + tenant + ": no budget account");
      continue;
    }
    const double want = static_cast<double>(trains) * epsilon_per_train;
    const double got = it->second.spent_epsilon;
    if (std::fabs(got - want) > 1e-9 * std::max(1.0, want)) {
      std::snprintf(line, sizeof(line),
                    "tenant %s: spent epsilon %.12g != %zu trains x %g",
                    tenant.c_str(), got, trains, epsilon_per_train);
      problems.push_back(line);
    }
    if (it->second.reserved_epsilon != 0.0) {
      std::snprintf(line, sizeof(line), "tenant %s: %.12g epsilon still reserved",
                    tenant.c_str(), it->second.reserved_epsilon);
      problems.push_back(line);
    }
  }
  for (const auto& [tenant, spend] : accounts) {
    if (trains_ok.count(tenant) == 0 && spend.spent_epsilon != 0.0) {
      problems.push_back("tenant " + tenant + ": spend without any 200 train");
    }
  }
  return problems;
}

// ---------------------------------------------------------------------------
// /proc/<pid>/status readings ("VmRSS", "VmHWM"), in kB; -1 if unreadable.
// ---------------------------------------------------------------------------

inline long ProcStatusKb(pid_t pid, const std::string& field) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::strtol(line.c_str() + field.size() + 1, nullptr, 10);
    }
  }
  return -1;
}

// Least-squares slope of y over x; 0 with fewer than two distinct x.
inline double Slope(const std::vector<double>& x, const std::vector<double>& y) {
  const size_t n = std::min(x.size(), y.size());
  if (n < 2) return 0.0;
  double mx = 0, my = 0;
  for (size_t i = 0; i < n; ++i) mx += x[i], my += y[i];
  mx /= n;
  my /= n;
  double sxy = 0, sxx = 0;
  for (size_t i = 0; i < n; ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
  }
  return sxx > 0 ? sxy / sxx : 0.0;
}

// ---------------------------------------------------------------------------
// Per-layer metrics that only some workloads exercise. Every traced run
// prints every per-layer metric; a layer off the workload's path reads 0.
// ---------------------------------------------------------------------------

struct LayerUnit {
  const char* name;
  const char* unit;
};

inline constexpr LayerUnit kServeOnlyLayers[] = {
    {"core.solver_ms", "ms"},
    {"util.json_parse_us_train", "us"},
    {"util.json_parse_us_predict", "us"},
    {"serve.admission_us", "us"},
    {"serve.budget_reserve_us", "us"},
    {"serve.budget_commit_us", "us"},
    {"serve.queue_wait_ms", "ms"},
    {"serve.queue_wait_ms_at_max", "ms"},
    {"serve.refused_share", "fraction"},
    {"serve.timeouts", "count"},
    {"serve.transport_failures", "count"},
    {"serve.rss_growth_kb_per_req", "kB/req"},
    {"obs.http_roundtrip_us", "us"},
    {"loadgen.lag_tail_ms", "ms"},
};

inline constexpr LayerUnit kShardedOnlyLayers[] = {
    {"optim.sharded_psgd_s", "s"},
    {"optim.partition_ms", "ms"},
    {"optim.dispatch_us", "us"},
    {"optim.average_ms", "ms"},
    {"optim.worker_busy_fraction", "fraction"},
    {"optim.worker_idle_ms_max", "ms"},
    {"optim.queue_wait_ms", "ms"},
};

// ---------------------------------------------------------------------------
// Command line shared by the workload binaries:
//   --workload NAME --seed N --seconds S --trace 0|1 [--work-dir DIR]
//   [--boltondp PATH]
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
  std::string boltondp;
};

inline bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else if (key == "--boltondp") {
      args->boltondp = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", key.c_str());
      return false;
    }
  }
  if (argc % 2 != 1 || args->workload.empty() || !(args->seconds > 0)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1\n",
                 argv[0]);
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Result printer. Every metric is printed by its BENCHMARK.json name with
// its unit; timings also show median, tail percentile and sample count.
// The last stdout line is the JSON object run.py forwards.
// ---------------------------------------------------------------------------

class Report {
 public:
  void Add(const std::string& name, const std::string& unit, double value) {
    std::printf("%-32s %.6g %s\n", name.c_str(), value, unit.c_str());
    metrics_.push_back({name, unit, value});
  }

  // A timing metric reported by its median.
  void AddMedian(const std::string& name, const std::string& unit,
                 const Summary& s) {
    PrintTiming(name, unit, s);
    metrics_.push_back({name, unit, s.median});
  }

  // A timing metric reported by its tail percentile.
  void AddTail(const std::string& name, const std::string& unit,
               const Summary& s) {
    PrintTiming(name, unit, s);
    metrics_.push_back({name, unit, s.tail});
  }

  // A tail metric read per block: the median over blocks of each block's
  // tail, so one stall in one block does not decide it.
  void AddBlockTail(const std::string& name, const std::string& unit,
                    const std::vector<Summary>& blocks) {
    std::vector<double> tails;
    std::string detail;
    char buf[96];
    for (const Summary& b : blocks) {
      tails.push_back(b.tail);
      std::snprintf(buf, sizeof(buf), "%s p%g %.6g (n=%zu)",
                    detail.empty() ? "" : ",", b.tail_percentile, b.tail,
                    b.count);
      detail += buf;
    }
    const double value = Percentile(tails, 50.0);
    std::printf("%-32s %.6g %s = median over %zu blocks of%s\n", name.c_str(),
                value, unit.c_str(), blocks.size(), detail.c_str());
    metrics_.push_back({name, unit, value});
  }

  void PrintJson(bool correct, uint64_t attempted, uint64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char buf[96];
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0;
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      if (i > 0) out += ", ";
      out += "\"" + metrics_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    std::string unit;
    double value;
  };

  static void PrintTiming(const std::string& name, const std::string& unit,
                          const Summary& s) {
    std::printf("%-32s median %.6g %s, p%g %.6g %s, n=%zu\n", name.c_str(),
                s.median, unit.c_str(), s.tail_percentile, s.tail,
                unit.c_str(), s.count);
  }

  std::vector<Metric> metrics_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
