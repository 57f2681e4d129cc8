//===- tests/robustness_test.cpp - Self-healing trainer + serving tests ----===//
//
// The supervisor contract: a training run whose gradients are poisoned with
// NaN by the fault injector completes without aborting, logs every recovery
// action, and produces weights bit-identical to a run where the poisoned
// batch was skipped by hand — at any thread count. The serving contract:
// every admitted request is answered, tagged with the degradation-ladder
// tier that produced it, even when the model itself is failing.
//
//===----------------------------------------------------------------------===//

#include "model/serving.h"
#include "model/task.h"
#include "model/trainer.h"
#include "support/fault.h"
#include "support/io.h"
#include "support/telemetry.h"
#include "support/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

namespace snowwhite {
namespace model {
namespace {

using dataset::Dataset;

/// One shared small corpus/dataset for every fixture in this file.
const Dataset &sharedDataset() {
  static Dataset Data = [] {
    frontend::CorpusSpec Spec;
    Spec.NumPackages = 8;
    Spec.Seed = 77;
    frontend::Corpus Corpus = frontend::buildCorpus(Spec);
    return dataset::buildDataset(Corpus);
  }();
  return Data;
}

const Task &sharedTask() {
  static Task T = [] {
    TaskOptions Options;
    Options.MaxTrainSamples = 96; // 6 batches of 16 per epoch.
    return Task(sharedDataset(), Options);
  }();
  return T;
}

/// Training configuration small enough that this file can afford several
/// full runs.
TrainOptions tinyTrainOptions() {
  TrainOptions Options;
  Options.MaxEpochs = 1;
  Options.BatchSize = 16;
  Options.EmbedDim = 12;
  Options.HiddenDim = 16;
  Options.MaxValidSamples = 32;
  Options.Seed = 99;
  return Options;
}

/// One trained model shared by the serving tests (training is the slow part).
struct ServingFixture {
  TrainResult Trained;
  ServingFixture() { Trained = trainModel(sharedTask(), tinyTrainOptions()); }
};

ServingFixture &servingFixture() {
  static ServingFixture Fixture;
  return Fixture;
}

// --- Supervisor: NaN detection and skip ---------------------------------------

TEST(Supervisor, NanGradSkipMatchesHandSkip) {
  // Run A: the injector poisons batch 3's gradients with NaN; the supervisor
  // must detect it and skip the batch.
  fault::FaultConfig Config;
  Config.PoisonGradBatches = {3};
  fault::FaultInjector Injector(Config);
  TrainOptions Poisoned = tinyTrainOptions();
  Poisoned.Faults = &Injector;
  TrainResult A = trainModel(sharedTask(), Poisoned);

  EXPECT_EQ(A.Recovery.BatchesSkipped, 1u);
  EXPECT_EQ(A.Recovery.Rollbacks, 0u);
  EXPECT_FALSE(A.Recovery.Diverged);
  ASSERT_FALSE(A.Recovery.Log.empty());
  EXPECT_NE(A.Recovery.Log[0].find("batch 3"), std::string::npos);
  EXPECT_NE(A.Recovery.Log[0].find("non-finite"), std::string::npos);

  // Run B: no fault at all, but batch 3 is skipped by hand. Bit-identical
  // weights prove the detector fired exactly on the poisoned batch and that
  // skipping has no side effects beyond not stepping.
  TrainOptions HandSkip = tinyTrainOptions();
  HandSkip.ForceSkipBatches = {3};
  TrainResult B = trainModel(sharedTask(), HandSkip);
  EXPECT_EQ(B.Recovery.BatchesSkipped, 1u);

  EXPECT_EQ(A.Model->serialize(), B.Model->serialize());

  // And both must differ from the clean run — the skip actually did
  // something.
  TrainResult Clean = trainModel(sharedTask(), tinyTrainOptions());
  EXPECT_NE(A.Model->serialize(), Clean.Model->serialize());
}

TEST(Supervisor, DisabledSupervisorPreservesLegacyBehaviour) {
  // With the supervisor off and no faults, results match the default run:
  // detection never fires on a healthy run, so enabling it is free.
  TrainOptions WithSupervisor = tinyTrainOptions();
  TrainOptions Without = tinyTrainOptions();
  Without.Recovery.Enabled = false;
  TrainResult A = trainModel(sharedTask(), WithSupervisor);
  TrainResult B = trainModel(sharedTask(), Without);
  EXPECT_EQ(A.Model->serialize(), B.Model->serialize());
  EXPECT_TRUE(A.Recovery.Log.empty());
}

// --- Supervisor: rollback + LR backoff ----------------------------------------

TEST(Supervisor, RollbackIsDeterministicAcrossThreadCounts) {
  // Three consecutive poisoned batches with a rollback threshold of 2:
  // skip, then rollback + LR backoff, then skip again.
  auto Run = [&] {
    fault::FaultConfig Config;
    Config.PoisonGradBatches = {3, 4, 5};
    fault::FaultInjector Injector(Config);
    TrainOptions Options = tinyTrainOptions();
    Options.Faults = &Injector;
    Options.Recovery.RollbackAfterConsecutive = 2;
    Options.Recovery.SnapshotEveryBatches = 2;
    return trainModel(sharedTask(), Options);
  };

  ThreadPool::resetGlobal(1);
  TrainResult SingleThread = Run();
  ThreadPool::resetGlobal(4);
  TrainResult FourThreads = Run();
  ThreadPool::resetGlobal(0); // Back to the environment-sized pool.

  EXPECT_GE(SingleThread.Recovery.Rollbacks, 1u);
  EXPECT_GE(SingleThread.Recovery.LrBackoffs, 1u);
  EXPECT_GE(SingleThread.Recovery.BatchesSkipped, 1u);
  EXPECT_FALSE(SingleThread.Recovery.Diverged);
  EXPECT_EQ(SingleThread.Recovery.Rollbacks, FourThreads.Recovery.Rollbacks);
  EXPECT_EQ(SingleThread.Recovery.BatchesSkipped,
            FourThreads.Recovery.BatchesSkipped);
  EXPECT_EQ(SingleThread.Recovery.Log, FourThreads.Recovery.Log);
  EXPECT_EQ(SingleThread.Model->serialize(), FourThreads.Model->serialize());
}

TEST(Supervisor, SpikeDetectorExhaustsBudgetAndStopsCleanly) {
  // A spike factor below 1 flags every post-warmup batch as divergence, so
  // the recovery budget must run out and training must stop with the
  // Diverged flag — no abort, no infinite loop, model still returned.
  TrainOptions Options = tinyTrainOptions();
  Options.MaxEpochs = 4;
  Options.Recovery.LossSpikeFactor = 0.5f;
  Options.Recovery.EmaWarmupBatches = 2;
  Options.Recovery.MaxRecoveries = 4;
  Options.Recovery.RollbackAfterConsecutive = 2;
  TrainResult Run = trainModel(sharedTask(), Options);

  ASSERT_NE(Run.Model, nullptr);
  EXPECT_TRUE(Run.Recovery.Diverged);
  EXPECT_EQ(Run.Recovery.BatchesSkipped + Run.Recovery.Rollbacks, 4u);
  ASSERT_FALSE(Run.Recovery.Log.empty());
  EXPECT_NE(Run.Recovery.Log.back().find("budget exhausted"),
            std::string::npos);
}

// --- Serving: degradation ladder ----------------------------------------------

TEST(Serving, EveryRequestAnsweredUnderInjectedModelFailure) {
  ServingFixture &Fixture = servingFixture();
  fault::FaultConfig Config;
  Config.Seed = 5;
  Config.ModelFailureRate = 0.6;
  fault::FaultInjector Injector(Config);

  ServingOptions Options;
  Options.TopK = 3;
  Options.DefaultStepBudget = 128;
  Options.QueueCapacity = 64;
  Options.Faults = &Injector;
  ServingEngine Engine(*Fixture.Trained.Model, sharedTask(), Options);

  const Dataset &Data = sharedDataset();
  size_t Requests = 0;
  for (uint32_t Index : Data.Test) {
    if (Requests >= 40)
      break;
    ServeRequest Request;
    Request.Id = Requests++;
    Request.InputTokens = Data.Samples[Index].Input;
    ASSERT_TRUE(Engine.submit(std::move(Request)));
  }
  ASSERT_GE(Requests, 10u);

  std::vector<ServeResponse> Responses = Engine.drain();
  ASSERT_EQ(Responses.size(), Requests);
  for (const ServeResponse &Response : Responses) {
    EXPECT_FALSE(Response.Predictions.empty())
        << "request " << Response.Id << " got no prediction";
    EXPECT_LE(Response.DecodeStepsUsed, Options.DefaultStepBudget);
  }
  // At a 60% per-call failure rate all three tiers must appear: the ladder's
  // bottom rung is exercised for real, not just reachable in theory.
  const ServingStats &Stats = Engine.stats();
  EXPECT_EQ(Stats.Answered, Requests);
  EXPECT_GT(Stats.BeamAnswers, 0u);
  EXPECT_GT(Stats.GreedyAnswers, 0u);
  EXPECT_GT(Stats.BaselineAnswers, 0u);
  EXPECT_EQ(Stats.Rejected, 0u);
}

TEST(Serving, NonFiniteWeightsDegradeToBaseline) {
  // Poison the model's weights directly: every decode step yields non-finite
  // logits, so both model tiers fail and the baseline answers everything.
  ServingFixture &Fixture = servingFixture();
  std::vector<std::vector<float>> Saved;
  for (nn::Parameter *P : Fixture.Trained.Model->parameters()) {
    Saved.push_back(P->Value);
    for (float &V : P->Value)
      V = std::numeric_limits<float>::quiet_NaN();
  }

  ServingOptions Options;
  ServingEngine Engine(*Fixture.Trained.Model, sharedTask(), Options);
  const Dataset &Data = sharedDataset();
  ServeRequest Request;
  Request.Id = 1;
  Request.InputTokens = Data.Samples[Data.Test[0]].Input;
  ServeResponse Response = Engine.processOne(Request);
  EXPECT_EQ(Response.Tier, PredictionTier::Baseline);
  EXPECT_EQ(Response.Outcome, ServeOutcome::OkBaseline);
  EXPECT_FALSE(Response.Predictions.empty());
  EXPECT_NE(Response.Detail.find("non-finite"), std::string::npos);

  // Restore the fixture for any test running after this one.
  std::vector<nn::Parameter *> Params = Fixture.Trained.Model->parameters();
  for (size_t I = 0; I < Params.size(); ++I)
    Params[I]->Value = Saved[I];
}

TEST(Serving, StepBudgetDrivesTheLadder) {
  ServingFixture &Fixture = servingFixture();
  ServingOptions Options;
  ServingEngine Engine(*Fixture.Trained.Model, sharedTask(), Options);
  const Dataset &Data = sharedDataset();
  uint64_t MaxTgtLen = Fixture.Trained.Model->config().MaxTgtLen;

  ServeRequest Request;
  Request.InputTokens = Data.Samples[Data.Test[0]].Input;

  // A budget below one greedy pass cannot touch the model: straight to the
  // baseline, zero decode steps spent.
  Request.Id = 1;
  Request.StepBudget = MaxTgtLen - 1;
  ServeResponse Tiny = Engine.processOne(Request);
  EXPECT_EQ(Tiny.Tier, PredictionTier::Baseline);
  EXPECT_EQ(Tiny.DecodeStepsUsed, 0u);
  EXPECT_FALSE(Tiny.Predictions.empty());

  // A budget with room for greedy but not beam+greedy skips the beam tier.
  Request.Id = 2;
  Request.StepBudget = MaxTgtLen;
  ServeResponse Mid = Engine.processOne(Request);
  EXPECT_EQ(Mid.Tier, PredictionTier::Greedy);
  EXPECT_EQ(Mid.Outcome, ServeOutcome::OkGreedy);
  EXPECT_LE(Mid.DecodeStepsUsed, Request.StepBudget);
  EXPECT_FALSE(Mid.Predictions.empty());

  // A generous budget answers from the top tier.
  Request.Id = 3;
  Request.StepBudget = 0; // Default (256).
  ServeResponse Full = Engine.processOne(Request);
  EXPECT_EQ(Full.Tier, PredictionTier::Beam);
  EXPECT_EQ(Full.Outcome, ServeOutcome::OkBeam);
  EXPECT_FALSE(Full.Predictions.empty());
}

TEST(Serving, AdmissionQueueIsBounded) {
  ServingFixture &Fixture = servingFixture();
  ServingOptions Options;
  Options.QueueCapacity = 4;
  ServingEngine Engine(*Fixture.Trained.Model, sharedTask(), Options);
  const Dataset &Data = sharedDataset();

  size_t Accepted = 0, Rejected = 0;
  for (uint64_t I = 0; I < 10; ++I) {
    ServeRequest Request;
    Request.Id = I;
    Request.InputTokens = Data.Samples[Data.Test[0]].Input;
    (Engine.submit(std::move(Request)) ? Accepted : Rejected) += 1;
  }
  EXPECT_EQ(Accepted, 4u);
  EXPECT_EQ(Rejected, 6u);
  EXPECT_EQ(Engine.stats().Rejected, 6u);
  EXPECT_EQ(Engine.drain().size(), 4u);
  EXPECT_EQ(Engine.stats().Answered, 4u);
}

// --- Serving: stats invariant on every exit path --------------------------------

// Regression for the stats-consistency bug: some exit paths (notably the
// direct processOne() entry and budget-exhausted ladder rungs) used to leave
// Submitted and the terminal outcome counters out of sync. The invariant is
// checked after every externally observable state change, under injected
// model failures so all three tiers and both entry points are exercised.
TEST(Serving, StatsInvariantHoldsOnEveryExitPath) {
  ServingFixture &Fixture = servingFixture();
  fault::FaultConfig Config;
  Config.Seed = 11;
  Config.ModelFailureRate = 0.5;
  fault::FaultInjector Injector(Config);

  ServingOptions Options;
  Options.TopK = 3;
  Options.QueueCapacity = 6;
  Options.Faults = &Injector;
  ServingEngine Engine(*Fixture.Trained.Model, sharedTask(), Options);
  const Dataset &Data = sharedDataset();
  const std::vector<std::string> &Input = Data.Samples[Data.Test[0]].Input;

  // Overfill the bounded queue: 6 admissions, 4 rejections.
  for (uint64_t I = 0; I < 10; ++I) {
    ServeRequest Request;
    Request.Id = I;
    Request.InputTokens = Input;
    Engine.submit(std::move(Request));
    ASSERT_TRUE(Engine.checkStats()) << "after submit " << I;
  }

  // Direct entries bypassing the queue, including a budget too small for any
  // model tier (the baseline exit path).
  ServeRequest Direct;
  Direct.Id = 100;
  Direct.InputTokens = Input;
  Engine.processOne(Direct);
  ASSERT_TRUE(Engine.checkStats()) << "after processOne";
  Direct.Id = 101;
  Direct.StepBudget = 1;
  Engine.processOne(Direct);
  ASSERT_TRUE(Engine.checkStats()) << "after budget-starved processOne";

  Engine.drain();
  ASSERT_TRUE(Engine.checkStats()) << "after drain";

  const ServingStats &Stats = Engine.stats();
  EXPECT_EQ(Stats.Submitted, 12u);
  EXPECT_EQ(Stats.Rejected, 4u);
  EXPECT_EQ(Stats.Answered, 8u);
  EXPECT_EQ(Engine.queued(), 0u);
}

// The registry mirrors are views over the same events the per-engine struct
// counts: after a run against a fresh registry, both must agree exactly.
// Registry inspection needs the live telemetry build.
#if SNOWWHITE_TELEMETRY_ENABLED
TEST(Serving, RegistryCountersMirrorEngineStats) {
  ServingFixture &Fixture = servingFixture();
  telemetry::Registry::global().reset();

  ServingOptions Options;
  Options.QueueCapacity = 4;
  ServingEngine Engine(*Fixture.Trained.Model, sharedTask(), Options);
  const Dataset &Data = sharedDataset();
  for (uint64_t I = 0; I < 7; ++I) {
    ServeRequest Request;
    Request.Id = I;
    Request.InputTokens = Data.Samples[Data.Test[0]].Input;
    Engine.submit(std::move(Request));
  }
  Engine.drain();
  ServeRequest Direct;
  Direct.Id = 50;
  Direct.InputTokens = Data.Samples[Data.Test[0]].Input;
  Engine.processOne(Direct);
  // A budget just wide enough to admit the beam tier but far too small for
  // width x length decoding: the beam burns its allowance and the
  // exhaustion is tallied (in both the struct and its registry mirror).
  Direct.Id = 51;
  Direct.StepBudget = 2 * Fixture.Trained.Model->config().MaxTgtLen;
  Engine.processOne(Direct);

  const ServingStats &Stats = Engine.stats();
  EXPECT_GT(Stats.BudgetExhaustions, 0u)
      << "the starved beam must be tallied, not silently degraded";
  EXPECT_EQ(telemetry::counter("serving.submitted").value(), Stats.Submitted);
  EXPECT_EQ(telemetry::counter("serving.rejected").value(), Stats.Rejected);
  EXPECT_EQ(telemetry::counter("serving.answered").value(), Stats.Answered);
  EXPECT_EQ(telemetry::counter("serving.answers.beam").value(),
            Stats.BeamAnswers);
  EXPECT_EQ(telemetry::counter("serving.answers.greedy").value(),
            Stats.GreedyAnswers);
  EXPECT_EQ(telemetry::counter("serving.answers.baseline").value(),
            Stats.BaselineAnswers);
  EXPECT_EQ(telemetry::counter("serving.budget_exhaustions").value(),
            Stats.BudgetExhaustions);
  EXPECT_EQ(telemetry::gauge("serving.queue_depth").value(),
            static_cast<int64_t>(Engine.queued()));
  EXPECT_EQ(telemetry::histogram("serving.request_ns").count(),
            Stats.Answered);
}
#endif // SNOWWHITE_TELEMETRY_ENABLED

// --- Trainer: accumulated time survives kill-and-resume -------------------------

// Regression for the TrainSeconds reset bug: each resumed process used to
// report only its own wall time, so a kill-and-resume cycle made the
// reported training time go *down*. The checkpoint now carries the
// accumulated seconds, so time is monotone across any number of resumes.
TEST(TrainerTime, AccumulatedSecondsAreMonotoneAcrossResumes) {
  std::string Ckpt = ::testing::TempDir() + "/robustness_time.ckpt";
  std::remove(Ckpt.c_str());

  auto RunSegment = [&](uint64_t CrashAtTick, bool Resume) {
    TrainOptions Options = tinyTrainOptions();
    Options.MaxEpochs = 2; // 12 batches total; segments crash mid-run.
    Options.CheckpointPath = Ckpt;
    Options.CheckpointEveryBatches = 1;
    Options.Resume = Resume;
    fault::FaultConfig Config;
    Config.CrashAtTick = CrashAtTick;
    fault::FaultInjector Injector(Config);
    Options.Faults = CrashAtTick ? &Injector : nullptr;
    return trainModel(sharedTask(), Options);
  };

  // Segment 1 runs nine batches before the kill; segment 2 only two. Without
  // the accumulated-seconds fix, segment 2 would report just its own short
  // elapsed time — strictly less than segment 1's — and this test fails.
  TrainResult First = RunSegment(10, false);
  ASSERT_TRUE(First.Interrupted);
  EXPECT_GT(First.TrainSeconds, 0.0);

  TrainResult Second = RunSegment(3, true);
  ASSERT_TRUE(Second.Interrupted);
  EXPECT_GT(Second.TrainSeconds, First.TrainSeconds)
      << "resume must add to the accumulated time, not restart the clock";

  TrainResult Final = RunSegment(0, true);
  EXPECT_FALSE(Final.Interrupted);
  EXPECT_GT(Final.TrainSeconds, Second.TrainSeconds);
  std::remove(Ckpt.c_str());
}

// --- Checkpoint integrity -----------------------------------------------------

TEST(CheckpointIntegrity, CorruptedModelFileIsRejectedWithTaxonomyCode) {
  ServingFixture &Fixture = servingFixture();
  std::string Path = ::testing::TempDir() + "/robustness_model.bin";
  ASSERT_TRUE(Fixture.Trained.Model->save(Path).isOk());

  Result<std::vector<uint8_t>> Bytes = io::readFileBytes(Path);
  ASSERT_TRUE(Bytes.isOk());
  std::vector<uint8_t> Corrupt = *Bytes;
  Corrupt[Corrupt.size() / 2] ^= 0x40;
  ASSERT_TRUE(io::writeFileAtomic(Path, Corrupt).isOk());

  Result<nn::Seq2SeqModel> Loaded = nn::Seq2SeqModel::load(Path);
  ASSERT_TRUE(Loaded.isErr());
  EXPECT_EQ(Loaded.error().code(), ErrorCode::ChecksumMismatch);
  std::remove(Path.c_str());
}

/// Writes a mid-run checkpoint of the tiny fixture to Path (the run is
/// killed after four batches), then re-wraps its payload after Edit under a
/// recomputed checksum, so the edit reaches the deserializer's structural
/// checks instead of the checksum layer.
void writeEditedCheckpoint(const std::string &Path,
                           void (*Edit)(std::vector<uint8_t> &)) {
  std::remove(Path.c_str());
  TrainOptions Options = tinyTrainOptions();
  Options.CheckpointPath = Path;
  Options.CheckpointEveryBatches = 2;
  fault::FaultConfig Config;
  Config.CrashAtTick = 5;
  fault::FaultInjector Injector(Config);
  Options.Faults = &Injector;
  ASSERT_TRUE(trainModel(sharedTask(), Options).Interrupted);
  Result<std::vector<uint8_t>> Payload = io::readFileChecksummed(Path);
  ASSERT_TRUE(Payload.isOk());
  Edit(*Payload);
  ASSERT_TRUE(io::writeFileChecksummed(Path, *Payload).isOk());
}

/// Resumes the tiny fixture from Path and expects the checkpoint to be
/// rejected with Message: nothing resumed, weights byte-equal to a run that
/// never had a checkpoint.
void expectFreshStart(const std::string &Path, const std::string &Message) {
  TrainOptions Options = tinyTrainOptions();
  Options.CheckpointPath = Path;
  Options.Resume = true;
  Options.Verbose = true;
  ::testing::internal::CaptureStderr();
  TrainResult Resumed = trainModel(sharedTask(), Options);
  std::string Log = ::testing::internal::GetCapturedStderr();
  TrainResult Fresh = trainModel(sharedTask(), tinyTrainOptions());
  EXPECT_FALSE(Resumed.Resumed);
  EXPECT_NE(Log.find("[resume] ignoring checkpoint: " + Message),
            std::string::npos)
      << Log;
  EXPECT_EQ(Resumed.BatchesRun, Fresh.BatchesRun);
  EXPECT_TRUE(Resumed.Model->serialize() == Fresh.Model->serialize())
      << "a rejected checkpoint leaked state into the fresh start";
  std::remove(Path.c_str());
}

// Regression: the checkpoint reader used to decode straight into the live
// loop state, RNGs, shuffle order and weights and only then find the
// trailing byte, so the "fresh start" trained on from the clobbered model.
TEST(CheckpointIntegrity, RejectedCheckpointLeavesAFreshStart) {
  std::string Path = ::testing::TempDir() + "/robustness_trailing.ckpt";
  writeEditedCheckpoint(
      Path, [](std::vector<uint8_t> &Bytes) { Bytes.push_back(0); });
  expectFreshStart(Path, "trailing bytes after checkpoint data");
}

// Regression: each shuffle-order index was only range-checked, so an order
// that repeats an index resumed silently, training one sample twice per
// epoch and another never.
TEST(CheckpointIntegrity, NonPermutationOrderIsRejected) {
  std::string Path = ::testing::TempDir() + "/robustness_order.ckpt";
  // Payload layout: 16 u64 header fields, two 4-word RNG states, the order
  // length at byte 192, then Order[0] at 200 and Order[1] at 208.
  writeEditedCheckpoint(Path, [](std::vector<uint8_t> &Bytes) {
    std::copy(Bytes.begin() + 200, Bytes.begin() + 208, Bytes.begin() + 208);
  });
  expectFreshStart(Path, "checkpoint shuffle order is not a permutation");
}

} // namespace
} // namespace model
} // namespace snowwhite
