#include "engine/bolt_on_driver.h"

#include <utility>

#include "core/sensitivity.h"
#include "obs/trace.h"
#include "optim/parallel_executor.h"

namespace bolton {

namespace {

/// Shard-parallel variant of the driver run: materializes the table into a
/// Dataset and hands it to RunShardedPsgd, so each shard runs the identical
/// serial black box over its slice. Epoch-level instrumentation
/// (epoch_seconds, convergence testing) is per-shard here and not surfaced,
/// so the driver reports exactly options.passes epochs.
Result<DriverOutput> RunShardedDriver(Table* table, const LossFunction& loss,
                                      const BlackBoxPlan& plan, Rng* rng) {
  BOLTON_ASSIGN_OR_RETURN(Dataset data, table->ToDataset());
  BOLTON_ASSIGN_OR_RETURN(
      ShardedPsgdOutput run,
      RunShardedPsgd(data, loss, *plan.schedule, plan.psgd, rng));
  DriverOutput out;
  out.model = std::move(run.model);
  out.epochs_run = plan.psgd.passes;
  out.stats = run.stats;
  return out;
}

}  // namespace

Result<BoltOnDriverOutput> RunBoltOnPrivateDriver(Table* table,
                                                  const LossFunction& loss,
                                                  const BoltOnOptions& options,
                                                  double tolerance, Rng* rng) {
  if (table == nullptr) return Status::InvalidArgument("null table");
  const size_t m = table->num_rows();
  BOLTON_ASSIGN_OR_RETURN(
      BlackBoxPlan plan,
      PlanBlackBox(loss, m, options, /*private_run=*/true));

  obs::ScopedSpan train_span("bolton.train");

  DriverOptions driver_options;
  driver_options.max_epochs = options.passes;
  driver_options.batch_size = options.batch_size;
  driver_options.radius = loss.radius();
  if (loss.IsStronglyConvex()) {
    // Algorithm 2 on the engine: k-oblivious sensitivity allows the
    // convergence test (serial path only — shards run fixed epochs).
    if (tolerance > 0.0 && options.shards > 1) {
      return Status::FailedPrecondition(
          "sharded bolt-on training runs a fixed number of epochs per "
          "shard; convergence-based stopping is serial-only (shards=1)");
    }
    driver_options.tolerance = tolerance;
  } else if (tolerance > 0.0) {
    // Algorithm 1 on the engine: the epoch count enters the sensitivity, so
    // it must be fixed up front.
    return Status::FailedPrecondition(
        "convex bolt-on training must run a fixed number of epochs; "
        "convergence-based stopping would leak the realized pass count "
        "into the sensitivity (see Lemma 6)");
  }

  // --- The unmodified black box: the serial engine driver, or s parallel
  // copies of it over disjoint shards (Lemma 10). ---
  DriverOutput run;
  if (options.shards > 1) {
    BOLTON_ASSIGN_OR_RETURN(run, RunShardedDriver(table, loss, plan, rng));
  } else {
    BOLTON_ASSIGN_OR_RETURN(
        run, RunSgdDriver(table, loss, *plan.schedule, driver_options, rng));
  }

  // --- The bolt-on: compute Δ₂ for the run that actually happened, draw
  // one noise vector, add it in the front end. ---
  SensitivitySetup setup;
  setup.passes = run.epochs_run;
  setup.batch_size = options.batch_size;
  setup.num_examples = m;
  BOLTON_ASSIGN_OR_RETURN(
      double sensitivity,
      BoltOnSensitivity(loss, plan.eta, setup, options.shards,
                        options.use_corrected_minibatch_sensitivity,
                        options.privacy));

  BoltOnDriverOutput out;
  {
    obs::ScopedSpan perturb_span("bolton.perturb");
    BOLTON_ASSIGN_OR_RETURN(
        out.private_output,
        BoltOnPerturb(run.model, sensitivity, options.privacy, rng));
  }
  out.private_output.stats = run.stats;
  out.private_output.shards = options.shards;
  out.driver = std::move(run);
  return out;
}

}  // namespace bolton
