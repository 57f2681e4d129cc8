//===- perfbench/perfbench.cpp - End-to-end and per-layer benchmark -------===//
//
// One closed-loop, single-process workload per invocation, driving the
// libraries from outside through their public APIs:
//
//   ingest         item = one input .wasm file. A sample is one
//                  dataset::streamIngest over a fixed shard of a seeded
//                  corpus written to the work directory (journal on,
//                  evidence + path tokens on).
//   train          item = one training sample. A sample is one
//                  Seq2SeqModel::trainBatch step at the bench model size.
//   type-binaries  item = one answered query. A sample is one held-out
//                  stripped binary: read, validate, analyze, extract its
//                  parameter/return queries, submit them to a ServeDaemon and
//                  pump until the last one is answered. Every pass starts
//                  from an empty cache.
//
// Steadiness rules (see NOTES.md): the pool size and daemon workers are
// fixed per workload and never exceed the CPUs available; a run always
// finishes the pass it is in, so every run times the same input mix; the
// first pass is a discarded warm-up; set-up is repeated and its median
// reported.
//
// With --trace 1 the program alternates untraced and traced passes. Traced
// samples record spans (name, start, end, parent, sample id) around
// every layer call this program makes. Layers that run inside one top-level
// library call are timed by replaying their public call on the same inputs
// right after the sample. Every per-layer metric is printed on every
// workload; a layer the workload never calls reads 0.
//
// The last line of standard output is the result object; the line before it
// records the host and configuration.
//
//===----------------------------------------------------------------------===//

#include "analysis/analyzer.h"
#include "analysis/cfg.h"
#include "analysis/gate.h"
#include "analysis/paths.h"
#include "dataset/extract.h"
#include "dataset/pipeline.h"
#include "dwarf/io.h"
#include "frontend/corpus.h"
#include "model/predictor.h"
#include "model/serve_daemon.h"
#include "model/task.h"
#include "model/trainer.h"
#include "nn/kernels.h"
#include "nn/seq2seq.h"
#include "support/hash.h"
#include "support/io.h"
#include "support/rng.h"
#include "support/telemetry.h"
#include "support/thread_pool.h"
#include "typelang/type.h"
#include "wasm/reader.h"
#include "wasm/validate.h"
#include "wasm/writer.h"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

using namespace snowwhite;
namespace fs = std::filesystem;

namespace {

uint64_t wallNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

[[noreturn]] void die(const std::string &Message) {
  std::fprintf(stderr, "perfbench: %s\n", Message.c_str());
  std::exit(2);
}

// --- Tracing -----------------------------------------------------------------

/// One span: a layer call (or a sample / replay root) on the calling thread.
struct SpanRecord {
  const char *Name;
  uint64_t Id;
  uint64_t Parent; ///< 0 = root.
  uint64_t SampleId; ///< The timed sample the span belongs to (>= 1).
  uint64_t StartNs;
  uint64_t EndNs;
  double Units; ///< Work units the call covered (modules, queries, ...).
  const char *Root; ///< Name of the root span: sample or replay.
  /// The one library call a sample consists of; the layers under it are
  /// replayed, so it is left out of trace.coverage.
  bool TopLevel;
};

/// Spans are held in memory and written out at exit.
struct Tracer {
  bool Enabled = false;
  uint64_t SampleId = 0;
  std::vector<SpanRecord> Spans;
  std::vector<size_t> Open;
};
Tracer Trace;

/// RAII span; free when tracing is off.
class Span {
public:
  explicit Span(const char *Name, double Units = 1, bool TopLevel = false) {
    if (!Trace.Enabled)
      return;
    const SpanRecord *Parent =
        Trace.Open.empty() ? nullptr : &Trace.Spans[Trace.Open.back()];
    Index = Trace.Spans.size();
    Trace.Spans.push_back({Name, Index + 1, Parent ? Parent->Id : 0,
                           Trace.SampleId, wallNs(), 0, Units,
                           Parent ? Parent->Root : Name, TopLevel});
    Trace.Open.push_back(Index);
  }
  ~Span() {
    if (Index == NoSpan)
      return;
    Trace.Spans[Index].EndNs = wallNs();
    Trace.Open.pop_back();
  }
  void setUnits(double Units) {
    if (Index != NoSpan)
      Trace.Spans[Index].Units = Units;
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  static constexpr size_t NoSpan = SIZE_MAX;
  size_t Index = NoSpan;
};

/// Count-style per-layer values summed over traced samples.
std::map<std::string, double> Counts;
void addCount(const std::string &Name, double Value) {
  Counts[Name] += Value;
}

// --- Shared configuration ----------------------------------------------------

/// The served model is system state, not benchmark input: it is always
/// trained on the same corpus, so per-query cost does not depend on --seed.
constexpr uint64_t ServingModelSeed = 20220613;

dataset::ExtractOptions extractOptions() {
  // Evidence plus paths is the best ablation arm (EXPERIMENTS.md).
  dataset::ExtractOptions Options;
  Options.EvidenceTokens = true;
  Options.PathTokens = true;
  return Options;
}

dataset::DatasetOptions datasetOptions() {
  dataset::DatasetOptions Options;
  Options.Extract = extractOptions();
  Options.NameVocabThreshold = 0.02;
  Options.TrainFraction = 0.86;
  Options.ValidFraction = 0.05;
  return Options;
}

/// bench/bench_common.h's benchTrainOptions model size.
model::TrainOptions benchTrainOptions() {
  model::TrainOptions Train;
  Train.BatchSize = 24;
  Train.EmbedDim = 32;
  Train.HiddenDim = 48;
  Train.MaxSrcLen = 96;
  return Train;
}

nn::Seq2SeqConfig modelConfig(const model::Task &Task,
                              const model::TrainOptions &Train) {
  nn::Seq2SeqConfig Config;
  Config.SrcVocabSize = Task.sourceVocab().size();
  Config.TgtVocabSize = Task.targetVocab().size();
  Config.EmbedDim = Train.EmbedDim;
  Config.HiddenDim = Train.HiddenDim;
  Config.DropoutRate = Train.Dropout;
  Config.MaxSrcLen = Train.MaxSrcLen;
  Config.MaxTgtLen = Train.MaxTgtLen;
  Config.Seed = Train.Seed;
  return Config;
}

/// latency_tail_us is this percentile of every workload's samples.
constexpr double TailPercentile = 0.90;
/// Prediction-cache budget of every daemon.
constexpr uint64_t CacheBytes = 8ull << 20;

model::DaemonOptions daemonOptions(size_t Workers) {
  model::DaemonOptions Options;
  Options.NumWorkers = Workers;
  Options.Serving.TopK = 3;
  Options.Serving.DefaultStepBudget = 128;
  Options.Serving.QueueCapacity = 4096;
  Options.Cache.ByteBudget = CacheBytes;
  return Options;
}

/// Fixed per-workload run shape. Pool threads and daemon workers are
/// clamped to the CPUs available, never inherited from the host. On a shared
/// 4-vCPU host whose other tenants came and went, interleaved runs of ingest
/// and type-binaries varied less than half as much at 2 threads as at 4,
/// while train varied least at 4 (NOTES.md).
struct RunShape {
  unsigned PoolThreads;
  size_t DaemonWorkers; ///< 0 = no daemon.
  int SetupRepeats; ///< Set-ups per run; setup_s is their median.
};

RunShape runShapeFor(const std::string &Workload) {
  if (Workload == "ingest")
    return {2, 0, 7};
  if (Workload == "train")
    return {4, 0, 5};
  return {2, 2, 3}; // type-binaries
}

unsigned cpusAvailable() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return static_cast<unsigned>(CPU_COUNT(&Set));
  return std::max(1u, std::thread::hardware_concurrency());
}

// --- Query extraction (the client side of typing a binary) -------------------

struct Query {
  std::vector<std::string> Tokens;
  analysis::QueryEvidence Evidence;
};

/// Every parameter and return query of M with evidence and path tokens, the
/// way the dataset pipeline renders them. False (with Why) when analysis
/// rejects the module.
bool extractQueries(const wasm::Module &M, std::vector<Query> &Out,
                    std::string &Why) {
  Result<analysis::ModuleSummary> Summary = [&] {
    Span S("analysis.analyze");
    return analysis::analyzeModule(M);
  }();
  if (Summary.isErr()) {
    Why = "analyze: " + Summary.error().message();
    return false;
  }
  uint32_t NumFunctions = static_cast<uint32_t>(M.Functions.size());
  std::vector<analysis::ControlFlowGraph> Cfgs;
  Cfgs.reserve(NumFunctions);
  {
    Span S("analysis.cfg", NumFunctions);
    for (uint32_t F = 0; F < NumFunctions; ++F) {
      Result<analysis::ControlFlowGraph> Cfg = analysis::buildCfg(M, F);
      if (Cfg.isErr()) {
        Why = "cfg: " + Cfg.error().message();
        return false;
      }
      Cfgs.push_back(Cfg.take());
    }
  }
  if (Trace.Enabled) {
    double Blocks = 0;
    for (const analysis::ControlFlowGraph &Cfg : Cfgs)
      Blocks += static_cast<double>(Cfg.Blocks.size());
    addCount("cfg.blocks", Blocks);
    addCount("cfg.functions", NumFunctions);
  }
  std::vector<std::vector<std::string>> Paths(NumFunctions);
  {
    Span S("analysis.paths", NumFunctions);
    for (uint32_t F = 0; F < NumFunctions; ++F)
      Paths[F] = analysis::extractPathTokens(Cfgs[F]);
  }
  Span S("dataset.extract");
  size_t Before = Out.size();
  dataset::ExtractOptions Options = extractOptions();
  for (uint32_t F = 0; F < NumFunctions; ++F) {
    const wasm::FuncType &Type = M.functionType(F);
    for (uint32_t P = 0; P < Type.Params.size(); ++P) {
      Query Q;
      Q.Evidence = analysis::queryEvidence(*Summary, F, static_cast<int>(P));
      Q.Tokens = dataset::extractParamInput(
          M, F, P, Options, Q.Evidence.Param ? &*Q.Evidence.Param : nullptr,
          &Paths[F]);
      Out.push_back(std::move(Q));
    }
    if (!Type.Results.empty()) {
      Query Q;
      Q.Evidence = analysis::queryEvidence(*Summary, F, -1);
      Q.Tokens = dataset::extractReturnInput(
          M, F, Options, Q.Evidence.Ret ? &*Q.Evidence.Ret : nullptr,
          &Paths[F]);
      Out.push_back(std::move(Q));
    }
  }
  S.setUnits(static_cast<double>(Out.size() - Before));
  return true;
}

model::ServeRequest makeRequest(const Query &Q, uint64_t Id) {
  model::ServeRequest Request;
  Request.Id = Id;
  Request.InputTokens = Q.Tokens;
  Request.Evidence = Q.Evidence;
  return Request;
}

/// The prediction cache's key for a query under the bench serving options.
std::string cacheKey(const model::ServeRequest &Request,
                     const model::DaemonOptions &Options) {
  unsigned K = std::max(1u, Options.Serving.TopK);
  unsigned Width = Options.Serving.BeamWidth ? Options.Serving.BeamWidth : K;
  return model::PredictionCache::requestKey(
      Request, Options.Serving.DefaultStepBudget, K, Width);
}

/// Byte-level identity of an answer: tier-independent tokens and the exact
/// bits of every log-probability.
std::string answerBytes(const std::vector<model::TypePrediction> &Predictions) {
  std::string Out;
  for (const model::TypePrediction &P : Predictions) {
    for (const std::string &Token : P.Tokens)
      Out += Token + ' ';
    uint32_t Bits = 0;
    std::memcpy(&Bits, &P.LogProb, sizeof(Bits));
    Out += std::to_string(Bits) + '\n';
  }
  return Out;
}

bool isComputedAnswer(model::ServeOutcome Outcome) {
  return Outcome == model::ServeOutcome::OkBeam ||
         Outcome == model::ServeOutcome::OkGreedy ||
         Outcome == model::ServeOutcome::OkBaseline;
}

// --- Corpus and model set-up -------------------------------------------------

std::vector<uint8_t> readBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(In), {});
}

void writeBytes(const std::string &Path, const std::vector<uint8_t> &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            static_cast<std::streamsize>(Bytes.size()));
  if (!Out)
    die("cannot write " + Path);
}

/// A seeded corpus cut to exactly Objects objects, so the amount of work a
/// seed produces does not depend on how many objects its packages drew.
frontend::Corpus seededCorpus(uint64_t Seed, size_t Objects,
                              bool Duplicates = true) {
  frontend::CorpusSpec Spec;
  Spec.Seed = Seed;
  // 2.5 objects per package on average; generous so the cut always fills.
  Spec.NumPackages = static_cast<uint32_t>(Objects / 2 + 8);
  if (!Duplicates) {
    Spec.ExactDupRate = 0;
    Spec.NearDupRate = 0;
  }
  frontend::Corpus Corpus = frontend::buildCorpus(Spec);
  size_t Kept = 0;
  for (size_t P = 0; P < Corpus.Packages.size(); ++P) {
    std::vector<frontend::CompiledObject> &Objs = Corpus.Packages[P].Objects;
    if (Kept + Objs.size() >= Objects) {
      Objs.resize(Objects - Kept);
      Corpus.Packages.resize(P + 1);
      Corpus.TotalObjects = Objects;
      return Corpus;
    }
    Kept += Objs.size();
  }
  die("seeded corpus has fewer than " + std::to_string(Objects) + " objects");
}

/// Removes a directory tree this program created; never throws.
void removeTree(const std::string &Dir) {
  std::error_code Ignored;
  fs::remove_all(Dir, Ignored);
}

/// Writes every object of the corpus into the flat directory Dir and returns
/// the discovered, path-sorted file list. Repeated set-ups rewrite the same
/// files in place: creating files on the container's filesystem took 0.04 to
/// 0.36 s for the same 576 files from one run to the next, which would
/// otherwise dominate setup_s (NOTES.md).
std::vector<dataset::IngestFile> writeCorpus(const frontend::Corpus &Corpus,
                                             const std::string &Dir) {
  fs::create_directories(Dir);
  for (const frontend::Package &Pkg : Corpus.Packages)
    for (size_t I = 0; I < Pkg.Objects.size(); ++I)
      writeBytes(Dir + "/" + Pkg.Name + "-obj" + std::to_string(I) + ".wasm",
                 Pkg.Objects[I].Bytes);
  Result<std::vector<dataset::IngestFile>> Files =
      dataset::discoverWasmFiles(Dir);
  if (Files.isErr())
    die("discover: " + Files.error().message());
  return Files.take();
}

/// The served model: trained in set-up on a fixed corpus.
struct ServingStack {
  dataset::Dataset Data;
  std::unique_ptr<model::Task> Task;
  std::unique_ptr<nn::Seq2SeqModel> Model;
};

std::unique_ptr<ServingStack> buildServingStack() {
  auto Stack = std::make_unique<ServingStack>();
  frontend::CorpusSpec Spec;
  Spec.Seed = ServingModelSeed;
  Spec.NumPackages = 24;
  Stack->Data = dataset::buildDataset(frontend::buildCorpus(Spec),
                                      datasetOptions());
  model::TaskOptions TaskOpts;
  TaskOpts.MaxTrainSamples = 256;
  Stack->Task = std::make_unique<model::Task>(Stack->Data, TaskOpts);
  model::TrainOptions Train = benchTrainOptions();
  Train.MaxEpochs = 1;
  Train.MaxValidSamples = 64;
  Train.Seed = ServingModelSeed;
  Stack->Model = model::trainModel(*Stack->Task, Train).Model;
  if (!Stack->Model)
    die("serving model failed to train");
  return Stack;
}

// --- GEMM replay -------------------------------------------------------------

/// GEMM throughput at a model's shapes: the products one decoder/encoder
/// step issues, replayed through the threaded kernel entry points. FLOPs are
/// 2*M*K*N per product. Returns GFLOP/s (median of repeats).
double gemmGflops(size_t Rows, const nn::Seq2SeqConfig &C, size_t SrcLen) {
  size_t E = C.EmbedDim, H = C.HiddenDim, V = C.TgtVocabSize;
  struct Shape {
    char Kind; // 'N' gemm, 'B' gemmTB, 'A' gemmTA
    size_t M, K, N;
  };
  std::vector<Shape> Shapes = {
      {'N', Rows, E, 4 * H},     {'N', Rows, H, 4 * H},
      {'N', Rows, H, 2 * H},     {'B', 1, 2 * H, SrcLen},
      {'N', Rows, 3 * H, H},     {'N', Rows, H, V},
      {'B', Rows, 4 * H, H},     {'A', Rows, H, 4 * H}};
  Rng R(99);
  size_t Largest = 0;
  for (const Shape &S : Shapes)
    Largest = std::max({Largest, S.M * S.K, S.K * S.N, S.M * S.N});
  std::vector<float> A(Largest), B(Largest), Cm(Largest);
  for (float &X : A)
    X = R.nextUniformFloat(1.0f);
  for (float &X : B)
    X = R.nextUniformFloat(1.0f);
  double Flops = 0;
  for (const Shape &S : Shapes)
    Flops += 2.0 * static_cast<double>(S.M * S.K * S.N);
  std::vector<double> Rates;
  for (int Rep = 0; Rep < 9; ++Rep) {
    uint64_t Start = wallNs();
    int Inner = 0;
    do {
      for (const Shape &S : Shapes) {
        if (S.Kind == 'N')
          nn::kernels::gemm(S.M, S.K, S.N, A.data(), B.data(), Cm.data());
        else if (S.Kind == 'B')
          nn::kernels::gemmTB(S.M, S.K, S.N, A.data(), B.data(), Cm.data());
        else
          nn::kernels::gemmTA(S.M, S.K, S.N, S.K, A.data(), B.data(),
                              Cm.data());
      }
      ++Inner;
    } while (wallNs() - Start < 20'000'000);
    Rates.push_back(Flops * Inner / static_cast<double>(wallNs() - Start));
  }
  std::sort(Rates.begin(), Rates.end());
  return Rates[Rates.size() / 2];
}

// --- Samples and results -----------------------------------------------------

struct SampleResult {
  uint64_t Ns = 0;
  uint64_t Items = 0;
  uint64_t ItemsOk = 0;
};

/// A workload: set-up in the constructor, then whole passes over a fixed,
/// seeded input list. A pass returns one result per sample.
class Workload {
public:
  virtual ~Workload() = default;
  virtual std::vector<SampleResult> pass() = 0;
  /// End-of-run output checks; false with a reason fails the run.
  virtual bool finalChecks(std::string &Why) = 0;
  /// GEMM rate (GFLOP/s) at the shapes of the model this workload trains,
  /// and of the one it serves; 0 when it has no such model.
  virtual double trainGemmGflops() const { return 0; }
  virtual double decodeGemmGflops() const { return 0; }
  /// Workload-specific facts for the configuration record, as JSON members.
  virtual std::string describe() const { return ""; }
};

uint64_t NextSampleId = 1;

/// Times one sample: a root "sample" span around Body when tracing.
template <typename Fn> uint64_t timeSample(Fn &&Body) {
  Trace.SampleId = NextSampleId++;
  uint64_t Start = wallNs();
  {
    Span S("sample");
    Body();
  }
  return wallNs() - Start;
}

// --- ingest ------------------------------------------------------------------

/// Canonical text of a dataset, for sample-by-sample comparison.
std::string sampleText(const dataset::TypeSample &S) {
  std::string Out;
  for (const std::string &T : S.Input)
    Out += T + ' ';
  Out += '|' + S.RichType.toString() + '|' + wasm::valTypeName(S.LowLevel) +
         (S.IsReturn ? "|ret|" : "|param|") + std::to_string(S.PackageId) +
         '|';
  for (const std::string &T : S.FieldTokens)
    Out += T + ' ';
  if (S.Evidence.Param)
    Out += analysis::toJson(*S.Evidence.Param);
  if (S.Evidence.Ret)
    Out += analysis::toJson(*S.Evidence.Ret);
  return Out;
}

uint64_t datasetDigest(const dataset::Dataset &Data) {
  std::string Text;
  for (const dataset::TypeSample &S : Data.Samples)
    Text += sampleText(S) + '\n';
  for (const std::vector<uint32_t> *Split : {&Data.Train, &Data.Valid,
                                             &Data.Test}) {
    for (uint32_t I : *Split)
      Text += std::to_string(I) + ',';
    Text += ';';
  }
  return hashString(Text);
}

class IngestWorkload : public Workload {
public:
  // Large shards keep the per-shard cost close to the corpus mean, so the
  // median sample does not depend on the seed's mix of files.
  static constexpr size_t ShardFiles = 48;
  static constexpr size_t NumShards = 12;

  IngestWorkload(uint64_t Seed, const std::string &WorkDir) {
    std::vector<dataset::IngestFile> Files = writeCorpus(
        seededCorpus(Seed, ShardFiles * NumShards), WorkDir + "/corpus");
    if (Files.size() != ShardFiles * NumShards)
      die("ingest corpus has the wrong size");
    for (size_t S = 0; S < NumShards; ++S)
      Shards.emplace_back(Files.begin() + static_cast<long>(S * ShardFiles),
                          Files.begin() +
                              static_cast<long>((S + 1) * ShardFiles));
    Options.Dataset = datasetOptions();
    Options.JournalPath = WorkDir + "/ingest.swjl";
    Digests.resize(NumShards);
    FirstData.resize(NumShards);
  }

  std::vector<SampleResult> pass() override {
    std::vector<SampleResult> Out;
    for (size_t S = 0; S < Shards.size(); ++S) {
      fs::remove(Options.JournalPath);
      std::optional<Result<dataset::StreamIngestResult>> Ingested;
      telemetry::PhaseStat Before[std::size(PhaseNames)];
      if (Trace.Enabled)
        for (size_t P = 0; P < std::size(PhaseNames); ++P)
          Before[P] = telemetry::Registry::global().phase(PhaseNames[P]);
      SampleResult R;
      R.Items = Shards[S].size();
      R.Ns = timeSample([&] {
        Span Call("dataset.stream_ingest", static_cast<double>(R.Items),
                  /*TopLevel=*/true);
        Ingested.emplace(dataset::streamIngest(Shards[S], Options));
      });
      std::string Why;
      if (Ingested->isErr())
        Why = "streamIngest: " + Ingested->error().message();
      else if ((*Ingested)->Crashed ||
               (*Ingested)->FilesProcessed != Shards[S].size())
        Why = "streamIngest stopped early";
      else if (!(*Ingested)->Data.Quarantine.empty())
        Why = "quarantined: " + (*Ingested)->Data.Quarantine.summary();
      if (Why.empty()) {
        const dataset::Dataset &Data = (*Ingested)->Data;
        uint64_t Digest = datasetDigest(Data);
        if (!FirstData[S]) {
          FirstData[S] = Data;
          Digests[S] = Digest;
        }
        if (Digest != Digests[S])
          Why = "shard " + std::to_string(S) + " changed between passes";
        if (Trace.Enabled) {
          for (size_t P = 0; P < std::size(PhaseNames); ++P) {
            double Ns = static_cast<double>(
                telemetry::Registry::global().phase(PhaseNames[P]).WallNs -
                Before[P].WallNs);
            addCount(std::string("phase.") + PhaseNames[P], Ns);
            // The phases run one after another inside the sample, so their
            // sum is the layer time that explains it (trace.coverage).
            addCount("coverage.in_sample_ns", Ns);
          }
          addCount("phase.samples", 1);
          addCount("kept.objects",
                   static_cast<double>(Data.Dedup.ObjectsAfter));
          addCount("kept.files", static_cast<double>(R.Items));
          replayModuleLayers(Shards[S]);
        }
      }
      if (!Why.empty() && Failure.empty())
        Failure = Why;
      R.ItemsOk = Why.empty() ? R.Items : 0;
      Out.push_back(R);
    }
    return Out;
  }

  bool finalChecks(std::string &Why) override {
    if (!Failure.empty()) {
      Why = Failure;
      return false;
    }
    // The streamed dataset must equal the buffered pipeline's on the same
    // files, sample by sample (one package per file, as streamIngest does).
    for (size_t S = 0; S < Shards.size(); ++S) {
      frontend::Corpus Corpus;
      for (size_t I = 0; I < Shards[S].size(); ++I) {
        frontend::Package Pkg;
        Pkg.Id = static_cast<uint32_t>(I);
        Pkg.Name = fs::path(Shards[S][I].Path).stem().string();
        frontend::CompiledObject Object;
        Object.FileName = Shards[S][I].Path;
        Object.Bytes = readBytes(Shards[S][I].Path);
        Pkg.Objects.push_back(std::move(Object));
        Corpus.Packages.push_back(std::move(Pkg));
        ++Corpus.TotalObjects;
      }
      dataset::Dataset Expected =
          dataset::buildDataset(Corpus, Options.Dataset);
      const dataset::Dataset &Got = *FirstData[S];
      if (!Expected.Quarantine.empty() ||
          Expected.Samples.size() != Got.Samples.size() ||
          Expected.Train != Got.Train || Expected.Valid != Got.Valid ||
          Expected.Test != Got.Test) {
        Why = "shard " + std::to_string(S) +
              ": streamed dataset differs from buildDataset";
        return false;
      }
      for (size_t I = 0; I < Got.Samples.size(); ++I)
        if (sampleText(Got.Samples[I]) != sampleText(Expected.Samples[I])) {
          Why = "shard " + std::to_string(S) + " sample " + std::to_string(I) +
                " differs from buildDataset";
          return false;
        }
    }
    return true;
  }

  std::string describe() const override {
    return "\"files_per_sample\": " + std::to_string(ShardFiles) +
           ", \"samples_per_pass\": " + std::to_string(NumShards);
  }

  /// Public layer calls under streamIngest, replayed on the shard's files.
  void replayModuleLayers(const std::vector<dataset::IngestFile> &Files);

  static constexpr const char *PhaseNames[] = {
      "ingest.stream_parse", "ingest.debug_extract", "ingest.analysis",
      "ingest.match",        "ingest.names",         "ingest.materialize",
      "ingest.cap_and_split"};

private:
  std::vector<std::vector<dataset::IngestFile>> Shards;
  dataset::StreamIngestOptions Options;
  std::vector<uint64_t> Digests;
  std::vector<std::optional<dataset::Dataset>> FirstData;
  std::string Failure;
};

/// Module-level layers of one file: read, validate, DWARF (when WithDebug),
/// analysis, CFG, paths and query extraction.
bool moduleLayers(const std::string &Path, bool WithDebug,
                  std::vector<Query> *QueriesOut, std::string &Why) {
  Result<wasm::Module> Parsed = [&] {
    Span S("wasm.read");
    io::FileByteSource Source(Path);
    return wasm::readModuleStreamed(Source);
  }();
  if (Parsed.isErr()) {
    Why = "read " + Path + ": " + Parsed.error().message();
    return false;
  }
  Result<void> Valid = [&] {
    Span S("wasm.validate");
    return wasm::validateModule(*Parsed);
  }();
  if (Valid.isErr()) {
    Why = "validate " + Path + ": " + Valid.error().message();
    return false;
  }
  if (WithDebug) {
    Span S("dwarf.extract");
    Result<dwarf::DebugInfo> Debug = dwarf::extractDebugInfo(*Parsed);
    if (Debug.isErr()) {
      Why = "dwarf " + Path + ": " + Debug.error().message();
      return false;
    }
  }
  std::vector<Query> Local;
  return extractQueries(*Parsed, QueriesOut ? *QueriesOut : Local, Why);
}

void IngestWorkload::replayModuleLayers(
    const std::vector<dataset::IngestFile> &Files) {
  Span Root("replay");
  for (const dataset::IngestFile &File : Files) {
    std::string Why;
    if (!moduleLayers(File.Path, true, nullptr, Why) &&
        Failure.empty())
      Failure = "replay: " + Why;
  }
}

// --- train -------------------------------------------------------------------

class TrainWorkload : public Workload {
public:
  static constexpr size_t NumBatches = 16;
  static constexpr size_t CheckSteps = 3;

  explicit TrainWorkload(uint64_t Seed) {
    Train = benchTrainOptions();
    Train.Seed = Seed;
    Data = dataset::buildDataset(seededCorpus(Seed, 100), datasetOptions());
    // The task (BPE, vocabularies) is built from exactly the samples the
    // workload trains on, so set-up work does not grow with the size of the
    // train split a seed happens to draw.
    model::TaskOptions TaskOpts;
    TaskOpts.MaxTrainSamples = Train.BatchSize * NumBatches;
    Task = std::make_unique<model::Task>(Data, TaskOpts);
    const std::vector<model::EncodedSample> &Samples = Task->train();
    if (Samples.size() != Train.BatchSize * NumBatches)
      die("train split too small: " + std::to_string(Samples.size()));
    std::vector<size_t> Order(Samples.size());
    for (size_t I = 0; I < Order.size(); ++I)
      Order[I] = I;
    Rng R(Seed);
    R.shuffle(Order);
    for (size_t B = 0; B < NumBatches; ++B) {
      Batch Next;
      for (size_t I = 0; I < Train.BatchSize; ++I) {
        const model::EncodedSample &S = Samples[Order[B * Train.BatchSize + I]];
        Next.Sources.push_back(S.Source);
        Next.Targets.push_back(S.Target);
      }
      Batches.push_back(std::move(Next));
    }
    Model = std::make_unique<nn::Seq2SeqModel>(modelConfig(*Task, Train));
    Optimizer = std::make_unique<nn::AdamOptimizer>(Model->parameters(),
                                                   Train.LearningRate);
  }

  std::vector<SampleResult> pass() override {
    std::vector<SampleResult> Out;
    for (const Batch &B : Batches) {
      float Loss = 0;
      SampleResult R;
      R.Items = B.Sources.size();
      uint64_t Dispatches = nn::kernels::poolDispatchCount();
      R.Ns = timeSample([&] {
        Span Call("nn.train_batch", 1, /*TopLevel=*/true);
        Loss = Model->trainBatch(B.Sources, B.Targets, *Optimizer);
      });
      if (Trace.Enabled) {
        addCount("pool.dispatches",
                 static_cast<double>(nn::kernels::poolDispatchCount() -
                                     Dispatches));
        addCount("pool.samples", 1);
        replayGradAdam(B);
      }
      ++Steps;
      if (Steps <= CheckSteps) {
        FirstLosses.push_back(Loss);
        if (Steps == CheckSteps)
          WeightsAfterCheck = Model->serialize();
      }
      bool Ok = std::isfinite(Loss);
      if (!Ok && Failure.empty())
        Failure = "non-finite loss at step " + std::to_string(Steps);
      R.ItemsOk = Ok ? R.Items : 0;
      Out.push_back(R);
    }
    return Out;
  }

  bool finalChecks(std::string &Why) override {
    if (!Failure.empty()) {
      Why = Failure;
      return false;
    }
    // The first steps re-run on the reference kernels from the same initial
    // state must reproduce the losses and the weights byte for byte.
    std::string Previous = nn::kernels::activeName();
    if (!nn::kernels::setActive("reference"))
      die("no reference kernel backend");
    nn::Seq2SeqModel Fresh(modelConfig(*Task, Train));
    nn::AdamOptimizer FreshOptimizer(Fresh.parameters(), Train.LearningRate);
    bool Same = true;
    for (size_t I = 0; I < CheckSteps; ++I) {
      float Loss = Fresh.trainBatch(Batches[I].Sources, Batches[I].Targets,
                                    FreshOptimizer);
      Same = Same && std::memcmp(&Loss, &FirstLosses[I], sizeof(Loss)) == 0;
    }
    Same = Same && Fresh.serialize() == WeightsAfterCheck;
    nn::kernels::setActive(Previous);
    if (!Same)
      Why = "reference-kernel re-run does not reproduce the first steps";
    return Same;
  }

  std::string describe() const override {
    return "\"batch_size\": " + std::to_string(Train.BatchSize) +
           ", \"samples_per_pass\": " + std::to_string(NumBatches);
  }

  double trainGemmGflops() const override {
    return gemmGflops(nn::Seq2SeqModel::TrainShardSize, Model->config(),
                      Train.MaxSrcLen);
  }

private:
  struct Batch {
    std::vector<std::vector<uint32_t>> Sources, Targets;
  };

  /// trainBatch's two halves, replayed on a same-shaped scratch model so the
  /// timed model's trajectory is untouched.
  void replayGradAdam(const Batch &B) {
    if (!Scratch) {
      Scratch = std::make_unique<nn::Seq2SeqModel>(modelConfig(*Task, Train));
      ScratchOptimizer = std::make_unique<nn::AdamOptimizer>(
          Scratch->parameters(), Train.LearningRate);
    }
    Span Root("replay");
    {
      Span S("nn.grad");
      Scratch->computeBatchGradients(B.Sources, B.Targets);
    }
    Span S("nn.adam");
    ScratchOptimizer->step();
  }

  dataset::Dataset Data;
  std::unique_ptr<model::Task> Task;
  model::TrainOptions Train;
  std::vector<Batch> Batches;
  std::unique_ptr<nn::Seq2SeqModel> Model, Scratch;
  std::unique_ptr<nn::AdamOptimizer> Optimizer, ScratchOptimizer;
  size_t Steps = 0;
  std::vector<float> FirstLosses;
  std::vector<uint8_t> WeightsAfterCheck;
  std::string Failure;
};

// --- Serving helpers ---------------------------------------------------------

/// Serving-layer counters over a window of daemon activity.
struct ServingWindow {
  model::ServingStats Before;
  model::CacheStats CacheBefore;
  std::vector<uint64_t> ShardBefore;
  uint64_t ServiceNsBefore = 0;

  static uint64_t serviceNs() {
    return telemetry::histogram("serving.request_ns").sum() +
           telemetry::histogram("serving.cache_hit_ns").sum();
  }

  void open(model::ServeDaemon &Daemon) {
    Before = Daemon.engineTotals();
    CacheBefore = Daemon.cache()->totals();
    ShardBefore.clear();
    for (size_t I = 0; I < Daemon.numWorkers(); ++I)
      ShardBefore.push_back(Daemon.engineStats(I).Answered);
    ServiceNsBefore = serviceNs();
  }

  /// Folds the window into the per-layer counts. SojournNs is the summed
  /// submit-to-answer time of the window's requests.
  void close(model::ServeDaemon &Daemon, double SojournNs) {
    model::ServingStats After = Daemon.engineTotals();
    model::CacheStats Cache = Daemon.cache()->totals();
    double Answered = static_cast<double>(After.Answered - Before.Answered);
    addCount("serve.answered", Answered);
    addCount("serve.beam", static_cast<double>(After.BeamAnswers -
                                               Before.BeamAnswers));
    addCount("serve.greedy", static_cast<double>(After.GreedyAnswers -
                                                 Before.GreedyAnswers));
    addCount("serve.baseline", static_cast<double>(After.BaselineAnswers -
                                                   Before.BaselineAnswers));
    addCount("serve.cached", static_cast<double>(After.CachedAnswers -
                                                 Before.CachedAnswers));
    addCount("serve.decode_steps",
             static_cast<double>(After.DecodeSteps - Before.DecodeSteps));
    double Gated =
        static_cast<double>(After.GatedCandidates - Before.GatedCandidates);
    addCount("serve.gated", Gated);
    // Candidates the gate checked: the rejected ones here, the survivors in
    // replayServing.
    addCount("serve.gate_checked", Gated);
    addCount("cache.hits", static_cast<double>(Cache.Hits -
                                               CacheBefore.Hits));
    addCount("cache.lookups",
             static_cast<double>(Cache.Hits + Cache.Misses -
                                 CacheBefore.Hits - CacheBefore.Misses));
    addCount("cache.evictions", static_cast<double>(Cache.Evictions -
                                                    CacheBefore.Evictions));
    addCount("cache.windows", 1);
    double Max = 0, Sum = 0;
    for (size_t I = 0; I < Daemon.numWorkers(); ++I) {
      double N = static_cast<double>(Daemon.engineStats(I).Answered -
                                     ShardBefore[I]);
      Max = std::max(Max, N);
      Sum += N;
    }
    if (Sum > 0) {
      addCount("shard.max", Max);
      addCount("shard.mean", Sum / static_cast<double>(Daemon.numWorkers()));
    }
    // Time from submit to answer that the ladder did not spend serving.
    addCount("queue.wait_ns",
             SojournNs - static_cast<double>(serviceNs() - ServiceNsBefore));
  }
};

/// Submits Requests and pumps until each has an answer. Returns the answers
/// in request order; SojournNs accumulates submit-to-answer times.
bool submitAndPump(model::ServeDaemon &Daemon,
                   const std::vector<model::ServeRequest> &Requests,
                   std::vector<model::ServeResponse> &Answers,
                   double &SojournNs, std::string &Why) {
  std::vector<uint64_t> SubmittedAt(Requests.size());
  {
    Span S("model.submit", static_cast<double>(Requests.size()));
    for (size_t I = 0; I < Requests.size(); ++I) {
      model::DaemonRequest Request;
      Request.Request = Requests[I];
      SubmittedAt[I] = Trace.Enabled ? wallNs() : 0;
      model::AdmitResult Admit = Daemon.submit(std::move(Request));
      if (Admit.Outcome != model::AdmitOutcome::Admitted) {
        Why = std::string("submit rejected: ") +
              model::admitOutcomeCode(Admit.Outcome);
        return false;
      }
    }
  }
  Answers.assign(Requests.size(), {});
  uint64_t FirstId = Requests.empty() ? 0 : Requests.front().Id;
  size_t Got = 0;
  for (int Round = 0; Got < Requests.size(); ++Round) {
    if (Round > 8) {
      Why = "pump left requests unanswered";
      return false;
    }
    std::vector<model::ServeResponse> Responses;
    {
      Span S("model.pump");
      Responses = Daemon.pump();
    }
    uint64_t Now = Trace.Enabled ? wallNs() : 0;
    for (model::ServeResponse &Response : Responses) {
      uint64_t Index = Response.Id - FirstId;
      if (Index >= Requests.size()) {
        Why = "answer for an unknown request";
        return false;
      }
      SojournNs += static_cast<double>(Now - SubmittedAt[Index]);
      Answers[Index] = std::move(Response);
      ++Got;
    }
  }
  return true;
}

/// Layer calls the daemon makes internally for a computed answer, replayed
/// on the same request: BPE encoding, the cache's key, find (a miss), insert
/// and find again (a hit) on Scratch so the daemon's cache is untouched, then
/// the budgeted beam, the evidence gate and type parsing. Beam and gate
/// replays run only for model-tier answers.
void replayServing(const model::ServeRequest &Request,
                   const model::ServeResponse &Answer,
                   const ServingStack &Stack,
                   const model::DaemonOptions &Options,
                   model::PredictionCache &Scratch) {
  bool ModelTier = Answer.Tier == model::PredictionTier::Beam ||
                   Answer.Tier == model::PredictionTier::Greedy;
  {
    Span S("dataset.bpe_encode");
    (void)Stack.Task->bpe().encodeSequence(Request.InputTokens);
  }
  std::string Key;
  {
    Span S("model.cache_key");
    Key = cacheKey(Request, Options);
  }
  uint64_t Hash = hashString(Key);
  {
    Span S("model.cache_find");
    (void)Scratch.find(Hash, Key);
  }
  {
    model::CachedPrediction Value;
    Value.ComputedBy = Answer.Tier;
    Value.Predictions = Answer.Predictions;
    Span S("model.cache_insert");
    Scratch.insert(Hash, Key, std::move(Value));
  }
  {
    Span S("model.cache_hit_find");
    if (!Scratch.find(Hash, Key))
      die("replayed cache insert is not found");
  }
  if (ModelTier) {
    std::vector<uint32_t> Source = Stack.Task->encodeSource(Request.InputTokens);
    unsigned K = std::max(1u, Options.Serving.TopK);
    unsigned Width = Options.Serving.BeamWidth ? Options.Serving.BeamWidth : K;
    Span S("nn.beam");
    (void)Stack.Model->predictTopKBudgeted(
        Source, Width,
        Options.Serving.DefaultStepBudget - Stack.Model->config().MaxTgtLen);
  }
  if (ModelTier) {
    // The ladder gates each model candidate with the path-sensitive gate
    // (model::gatePrediction: parse, then analysis::checkConsistency).
    analysis::GateOptions Gate;
    Gate.PathSensitive = true;
    Span S("analysis.gate", static_cast<double>(Answer.Predictions.size()));
    for (const model::TypePrediction &P : Answer.Predictions)
      (void)model::gatePrediction(P, Request.Evidence, Gate);
    addCount("serve.gate_checked",
             static_cast<double>(Answer.Predictions.size()));
  }
  bool WellFormed = !Answer.Predictions.empty() &&
                    typelang::parseType(Answer.Predictions[0].Tokens).isOk();
  addCount("typelang.well_formed", WellFormed ? 1 : 0);
  addCount("typelang.answers", 1);
}

// --- type-binaries -----------------------------------------------------------

class TypeBinariesWorkload : public Workload {
public:
  static constexpr size_t NumBinaries = 192;
  static constexpr size_t CheckBinaries = 4;

  TypeBinariesWorkload(uint64_t Seed, const std::string &WorkDir, size_t Workers)
      : Stack(buildServingStack()), Options(daemonOptions(Workers)) {
    // Held-out binaries: a corpus the model never saw, without the
    // deliberate duplicate objects, stripped of DWARF.
    frontend::Corpus Corpus =
        seededCorpus(Seed, NumBinaries * 5 / 4, /*Duplicates=*/false);
    // Every pass must compute every query, so a binary is kept only when
    // none of its queries repeats one already kept.
    std::set<std::string> Keys;
    fs::create_directories(WorkDir + "/binaries");
    for (frontend::Package &Pkg : Corpus.Packages)
      for (frontend::CompiledObject &Object : Pkg.Objects) {
        if (Paths.size() == NumBinaries)
          break;
        dwarf::stripDebugInfo(Object.Mod);
        std::vector<Query> Queries;
        std::string Why;
        if (!extractQueries(Object.Mod, Queries, Why) || Queries.empty())
          continue;
        std::vector<std::string> New;
        for (const Query &Q : Queries)
          New.push_back(cacheKey(makeRequest(Q, 0), Options));
        std::set<std::string> Unique(New.begin(), New.end());
        if (Unique.size() != New.size() ||
            std::any_of(New.begin(), New.end(),
                        [&](const std::string &K) { return Keys.count(K); }))
          continue;
        Keys.insert(New.begin(), New.end());
        std::string Path =
            WorkDir + "/binaries/" + std::to_string(Paths.size()) + ".wasm";
        writeBytes(Path, wasm::writeModule(Object.Mod));
        Paths.push_back(Path);
      }
    if (Paths.size() != NumBinaries)
      die("too few held-out binaries with unique queries");
    Rng R(Seed ^ 0x7e57);
    while (CheckSet.size() < CheckBinaries)
      CheckSet.insert(R.nextBelow(Paths.size()));
  }

  std::vector<SampleResult> pass() override {
    // A fresh daemon per pass: every query of the pass is computed and
    // inserted (the cache's write path); none can hit.
    model::ServeDaemon Daemon(*Stack->Model, *Stack->Task, Options);
    uint64_t HitsBefore = Daemon.cache()->totals().Hits;
    model::PredictionCache Scratch(Options.Cache);
    std::vector<SampleResult> Out;
    for (size_t B = 0; B < Paths.size(); ++B) {
      std::vector<model::ServeRequest> Requests;
      std::vector<model::ServeResponse> Answers;
      std::string Why;
      bool Ok = true;
      double SojournNs = 0;
      ServingWindow Window;
      if (Trace.Enabled)
        Window.open(Daemon);
      uint64_t Dispatches = nn::kernels::poolDispatchCount();
      SampleResult R;
      R.Ns = timeSample([&] {
        std::vector<Query> Queries;
        Ok = moduleLayers(Paths[B], false, &Queries, Why);
        for (size_t I = 0; Ok && I < Queries.size(); ++I)
          Requests.push_back(makeRequest(Queries[I], NextId++));
        Ok = Ok && submitAndPump(Daemon, Requests, Answers, SojournNs, Why);
      });
      R.Items = std::max<size_t>(Requests.size(), 1);
      size_t Good = 0;
      for (const model::ServeResponse &Answer : Answers)
        Good += isComputedAnswer(Answer.Outcome) && !Answer.Predictions.empty();
      if (Ok && Good != Requests.size())
        Why = "a query was not computed (" + std::to_string(Good) + "/" +
              std::to_string(Requests.size()) + ")";
      Ok = Ok && Good == Requests.size();
      if (!Ok && Failure.empty())
        Failure = "binary " + std::to_string(B) + ": " + Why;
      R.ItemsOk = Ok ? Good : 0;
      if (Trace.Enabled) {
        addCount("pool.dispatches",
                 static_cast<double>(nn::kernels::poolDispatchCount() -
                                     Dispatches));
        addCount("pool.samples", 1);
        Window.close(Daemon, SojournNs);
        Span Root("replay");
        for (size_t I = 0; I < Answers.size(); ++I)
          replayServing(Requests[I], Answers[I], *Stack, Options, Scratch);
      }
      if (CheckSet.count(B)) {
        CheckRequests[B] = Requests;
        CheckAnswers[B] = Answers;
      }
      Out.push_back(R);
    }
    if (Daemon.cache()->totals().Hits != HitsBefore && Failure.empty())
      Failure = "a timed query hit the cache";
    Daemon.shutdown();
    if (!Daemon.checkStats() && Failure.empty())
      Failure = "ServeDaemon::checkStats failed";
    return Out;
  }

  bool finalChecks(std::string &Why) override {
    if (!Failure.empty()) {
      Why = Failure;
      return false;
    }
    // A seeded subset recomputed on the reference kernels, uncached, must
    // match the timed answers byte for byte.
    std::string Previous = nn::kernels::activeName();
    nn::kernels::setActive("reference");
    model::DaemonOptions Reference = Options;
    Reference.UseCache = false;
    model::ServeDaemon Daemon(*Stack->Model, *Stack->Task, Reference);
    bool Same = true;
    for (const auto &[B, Requests] : CheckRequests) {
      std::vector<model::ServeResponse> Answers;
      double Unused = 0;
      if (!submitAndPump(Daemon, Requests, Answers, Unused, Why))
        Same = false;
      for (size_t I = 0; Same && I < Answers.size(); ++I)
        Same = Answers[I].Tier == CheckAnswers[B][I].Tier &&
               answerBytes(Answers[I].Predictions) ==
                   answerBytes(CheckAnswers[B][I].Predictions);
    }
    Daemon.shutdown();
    nn::kernels::setActive(Previous);
    if (!Same && Why.empty())
      Why = "reference-kernel recompute differs from the served answers";
    return Same;
  }

  double decodeGemmGflops() const override {
    const nn::Seq2SeqConfig &Config = Stack->Model->config();
    return gemmGflops(Options.Serving.TopK, Config, Config.MaxSrcLen);
  }

  std::string describe() const override {
    return "\"binaries_per_pass\": " + std::to_string(Paths.size());
  }

private:
  std::unique_ptr<ServingStack> Stack;
  model::DaemonOptions Options;
  std::vector<std::string> Paths;
  std::set<size_t> CheckSet;
  std::map<size_t, std::vector<model::ServeRequest>> CheckRequests;
  std::map<size_t, std::vector<model::ServeResponse>> CheckAnswers;
  uint64_t NextId = 1;
  std::string Failure;
};

// --- Statistics and output ---------------------------------------------------

double percentile(std::vector<double> Values, double P) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  // Nearest rank: the smallest value with at least P of the samples at or
  // below it.
  size_t Rank = static_cast<size_t>(std::ceil(P * static_cast<double>(Values.size())));
  return Values[std::min(Values.size(), std::max<size_t>(Rank, 1)) - 1];
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "0";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      continue;
    Out += C;
  }
  return Out + "\"";
}

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

std::string metricsJson(const std::vector<Metric> &Metrics) {
  std::string Out = "{";
  for (size_t I = 0; I < Metrics.size(); ++I)
    Out += (I ? ", " : "") + jsonString(Metrics[I].Name) + ": {\"value\": " +
           jsonNumber(Metrics[I].Value) +
           ", \"unit\": " + jsonString(Metrics[I].Unit) + "}";
  return Out + "}";
}

double peakRssMib() {
  struct rusage Usage;
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

/// The passes of a measured window. Throughput is a median over passes:
/// every pass times the same input mix, and on a shared host a few passes
/// hit by scheduling stalls would otherwise move a run's mean far more than
/// they move a typical pass (NOTES.md).
struct Window {
  std::vector<std::vector<SampleResult>> Passes;
  uint64_t WallNs = 0;

  void add(std::vector<SampleResult> Pass) { Passes.push_back(std::move(Pass)); }
  size_t samples() const {
    size_t N = 0;
    for (const std::vector<SampleResult> &Pass : Passes)
      N += Pass.size();
    return N;
  }
  uint64_t items() const {
    uint64_t N = 0;
    for (const std::vector<SampleResult> &Pass : Passes)
      for (const SampleResult &S : Pass)
        N += S.Items;
    return N;
  }
  uint64_t itemsOk() const {
    uint64_t N = 0;
    for (const std::vector<SampleResult> &Pass : Passes)
      for (const SampleResult &S : Pass)
        N += S.ItemsOk;
    return N;
  }
  /// Median over passes of items per second of time inside timed samples.
  double throughput() const {
    std::vector<double> Rates;
    for (const std::vector<SampleResult> &Pass : Passes) {
      double Items = 0, Ns = 0;
      for (const SampleResult &S : Pass) {
        Items += static_cast<double>(S.Items);
        Ns += static_cast<double>(S.Ns);
      }
      if (Ns > 0)
        Rates.push_back(Items * 1e9 / Ns);
    }
    return percentile(Rates, 0.5);
  }
  /// Sample latency at percentile P over all samples, in microseconds.
  double latencyUs(double P) const {
    std::vector<double> Us;
    for (const std::vector<SampleResult> &Pass : Passes)
      for (const SampleResult &S : Pass)
        Us.push_back(static_cast<double>(S.Ns) / 1e3);
    return percentile(Us, P);
  }
};

/// Whole passes until Seconds of wall time have gone and the tail has at
/// least ten samples beyond it.
Window measure(Workload &W, double Seconds) {
  Window Out;
  size_t MinSamples =
      static_cast<size_t>(std::ceil(10.0 / (1.0 - TailPercentile))) + 1;
  uint64_t Start = wallNs();
  uint64_t Budget = static_cast<uint64_t>(Seconds * 1e9);
  while (wallNs() - Start < Budget || Out.samples() < MinSamples) {
    Out.add(W.pass());
    if (wallNs() - Start > 150'000'000'000ull)
      break;
  }
  Out.WallNs = wallNs() - Start;
  return Out;
}

struct LayerStat {
  double TotalNs = 0;
  double Units = 0;
};

struct TraceSummary {
  std::map<std::string, LayerStat> Layers;
  std::map<std::string, double> SelfNs; ///< Layer self time.
  double SampleNs = 0;
  /// Layer self time that explains the samples: spans nested in a sample,
  /// or, for a sample that is one top-level call, that call's replays.
  double LayerSelfNs = 0;
};

TraceSummary summarizeTrace() {
  TraceSummary Out;
  std::map<uint64_t, double> InSample, InReplay;
  std::vector<double> ChildNs(Trace.Spans.size() + 1, 0);
  for (const SpanRecord &S : Trace.Spans)
    if (S.Parent)
      ChildNs[S.Parent] += static_cast<double>(S.EndNs - S.StartNs);
  for (const SpanRecord &S : Trace.Spans) {
    double Dur = static_cast<double>(S.EndNs - S.StartNs);
    std::string Name = S.Name;
    if (Name == "sample")
      Out.SampleNs += Dur;
    if (Name == "sample" || Name == "replay")
      continue;
    LayerStat &L = Out.Layers[Name];
    L.TotalNs += Dur;
    L.Units += S.Units;
    double Self = Dur - ChildNs[S.Id];
    Out.SelfNs[Name] += Self;
    if (!S.TopLevel)
      (std::strcmp(S.Root, "sample") == 0 ? InSample : InReplay)[S.SampleId] +=
          Self;
  }
  for (const auto &[Sample, Ns] : InReplay)
    if (!InSample.count(Sample))
      InSample[Sample] = Ns;
  for (const auto &[Sample, Ns] : InSample)
    Out.LayerSelfNs += Ns;
  return Out;
}

void writeSpans(const std::string &Path) {
  std::ofstream Out(Path, std::ios::trunc);
  for (const SpanRecord &S : Trace.Spans)
    Out << "{\"name\":" << jsonString(S.Name) << ",\"id\":" << S.Id
        << ",\"parent\":" << S.Parent << ",\"sample\":" << S.SampleId
        << ",\"start_ns\":" << S.StartNs << ",\"end_ns\":" << S.EndNs
        << ",\"units\":" << jsonNumber(S.Units) << "}\n";
}

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Traced = false;
  std::string WorkDir;
  std::string Commit = "unknown";
  std::string BuildType = "unknown";
};

Args parseArgs(int argc, char **argv) {
  Args A;
  for (int I = 1; I < argc; ++I) {
    std::string Flag = argv[I];
    if (I + 1 >= argc)
      die("missing value for " + Flag);
    std::string Value = argv[++I];
    if (Flag == "--workload")
      A.Workload = Value;
    else if (Flag == "--seed")
      A.Seed = std::strtoull(Value.c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      A.Seconds = std::atof(Value.c_str());
    else if (Flag == "--trace")
      A.Traced = Value == "1";
    else if (Flag == "--workdir")
      A.WorkDir = Value;
    else if (Flag == "--commit")
      A.Commit = Value;
    else if (Flag == "--build-type")
      A.BuildType = Value;
    else
      die("unknown flag " + Flag);
  }
  static const std::set<std::string> Known = {"ingest", "train",
                                              "type-binaries"};
  if (!Known.count(A.Workload))
    die("unknown workload '" + A.Workload + "'");
  if (A.WorkDir.empty())
    die("--workdir is required");
  if (!(A.Seconds > 0))
    die("--seconds must be positive");
  return A;
}

std::unique_ptr<Workload> makeWorkload(const Args &A, const RunShape &C) {
  if (A.Workload == "ingest")
    return std::make_unique<IngestWorkload>(A.Seed, A.WorkDir);
  if (A.Workload == "train")
    return std::make_unique<TrainWorkload>(A.Seed);
  return std::make_unique<TypeBinariesWorkload>(A.Seed, A.WorkDir,
                                                C.DaemonWorkers);
}

} // namespace

int main(int argc, char **argv) {
  uint64_t ProcessStart = wallNs();
  Args A = parseArgs(argc, argv);
  fs::create_directories(A.WorkDir);
  unsigned Cpus = cpusAvailable();
  RunShape C = runShapeFor(A.Workload);
  C.PoolThreads = std::min(C.PoolThreads, Cpus);
  C.DaemonWorkers = std::min<size_t>(C.DaemonWorkers, Cpus);
  ThreadPool::resetGlobal(C.PoolThreads);

  // Set-up is repeated; the median is reported and the last one is kept.
  std::vector<double> SetupSeconds;
  std::unique_ptr<Workload> W;
  for (int I = 0; I < C.SetupRepeats; ++I) {
    W.reset();
    // Hand the previous repetition's freed memory back, so peak_rss_mib
    // measures one set-up rather than how the allocator's arenas happened
    // to fragment across several.
    malloc_trim(0);
    uint64_t Start = wallNs();
    W = makeWorkload(A, C);
    SetupSeconds.push_back(static_cast<double>(wallNs() - Start) / 1e9);
  }
  double FirstOpAfterS = static_cast<double>(wallNs() - ProcessStart) / 1e9;

  // Warm-up pass, discarded.
  (void)W->pass();

  Window Main;
  Window Traced;
  if (!A.Traced) {
    Main = measure(*W, A.Seconds);
  } else {
    // Untraced and traced passes alternate, so both see the same host
    // conditions and their throughput ratio is the tracing overhead.
    uint64_t Start = wallNs();
    while (wallNs() - Start < static_cast<uint64_t>(A.Seconds * 1e9)) {
      for (Window *Into : {&Main, &Traced}) {
        Trace.Enabled = Into == &Traced;
        Into->add(W->pass());
      }
    }
    Trace.Enabled = false;
    Main.WallNs = wallNs() - Start;
  }

  std::string Why;
  bool ChecksPassed = W->finalChecks(Why);
  if (!ChecksPassed)
    std::fprintf(stderr, "perfbench: output check failed: %s\n", Why.c_str());
  // Generated inputs go; the trace files stay.
  for (const char *Input : {"corpus", "binaries", "ingest.swjl"})
    removeTree(A.WorkDir + "/" + Input);

  uint64_t Attempted = Main.items() + Traced.items();
  uint64_t Ok = Main.itemsOk() + Traced.itemsOk();

  std::vector<Metric> Metrics;
  if (!A.Traced) {
    Metrics = {
        {"throughput", Main.throughput(), "items/s"},
        {"latency_p50_us", Main.latencyUs(0.5), "us"},
        {"latency_tail_us", Main.latencyUs(TailPercentile), "us"},
        {"setup_s", percentile(SetupSeconds, 0.5), "s"},
        {"peak_rss_mib", peakRssMib(), "MiB"},
        {"success_rate",
         ChecksPassed && Attempted
             ? static_cast<double>(Ok) / static_cast<double>(Attempted)
             : 0.0,
         "ratio"},
    };
  } else {
    TraceSummary T = summarizeTrace();
    // Mean time per unit of a layer; 0 when the workload never calls it.
    auto Time = [&](const std::string &Metric, const std::string &Span,
                    double Scale, const std::string &Unit) {
      const LayerStat &L = T.Layers[Span];
      Metrics.push_back(
          {Metric, L.Units > 0 ? L.TotalNs / L.Units / Scale : 0.0, Unit});
    };
    // Ratio of two counts; 0 when the denominator never occurred.
    auto Ratio = [&](const std::string &Metric, const std::string &Num,
                     const std::string &Den, double Scale,
                     const std::string &Unit) {
      double D = Counts[Den];
      Metrics.push_back({Metric, D > 0 ? Counts[Num] / D * Scale : 0.0, Unit});
    };
    Time("wasm.read_us", "wasm.read", 1e3, "us");
    Time("wasm.validate_us", "wasm.validate", 1e3, "us");
    Time("dwarf.extract_us", "dwarf.extract", 1e3, "us");
    Time("analysis.analyze_us", "analysis.analyze", 1e3, "us");
    Time("analysis.cfg_us", "analysis.cfg", 1e3, "us");
    Time("analysis.paths_us", "analysis.paths", 1e3, "us");
    Ratio("analysis.cfg_blocks", "cfg.blocks", "cfg.functions", 1, "count");
    Time("analysis.gate_us", "analysis.gate", 1e3, "us");
    Time("dataset.extract_us", "dataset.extract", 1e3, "us");
    Time("dataset.bpe_encode_us", "dataset.bpe_encode", 1e3, "us");
    for (const char *Phase : IngestWorkload::PhaseNames) {
      std::string Short = std::string(Phase).substr(std::strlen("ingest."));
      Ratio("dataset.phase." + Short + "_ms", std::string("phase.") + Phase,
            "phase.samples", 1e-6, "ms");
    }
    Ratio("dataset.kept_ratio", "kept.objects", "kept.files", 1, "ratio");
    Time("nn.train_batch_ms", "nn.train_batch", 1e6, "ms");
    Time("nn.grad_ms", "nn.grad", 1e6, "ms");
    Time("nn.adam_ms", "nn.adam", 1e6, "ms");
    Metrics.push_back(
        {"nn.gemm_gflops.train", W->trainGemmGflops(), "GFLOP/s"});
    Metrics.push_back(
        {"nn.gemm_gflops.decode", W->decodeGemmGflops(), "GFLOP/s"});
    Ratio("nn.pool_dispatches", "pool.dispatches", "pool.samples", 1,
          "count");
    Time("nn.beam_us", "nn.beam", 1e3, "us");
    Ratio("model.decode_steps_per_query", "serve.decode_steps",
          "serve.answered", 1, "count");
    for (const char *Tier : {"beam", "greedy", "baseline", "cached"})
      Ratio(std::string("model.tier_share.") + Tier,
            std::string("serve.") + Tier, "serve.answered", 1, "ratio");
    Ratio("model.gate_reject_ratio", "serve.gated", "serve.gate_checked", 1,
          "ratio");
    Time("model.cache_find_us", "model.cache_find", 1e3, "us");
    Time("model.cache_hit_find_us", "model.cache_hit_find", 1e3, "us");
    Time("model.cache_insert_us", "model.cache_insert", 1e3, "us");
    Time("model.cache_key_us", "model.cache_key", 1e3, "us");
    Ratio("model.cache_hit_ratio", "cache.hits", "cache.lookups", 1, "ratio");
    Ratio("model.cache_evictions", "cache.evictions", "cache.windows", 1,
          "count");
    Time("model.submit_us", "model.submit", 1e3, "us");
    Time("model.pump_ms", "model.pump", 1e6, "ms");
    Ratio("model.queue_wait_us", "queue.wait_ns", "serve.answered", 1e-3,
          "us");
    Ratio("model.shard_imbalance", "shard.max", "shard.mean", 1, "ratio");
    Ratio("typelang.well_formed_rate", "typelang.well_formed",
          "typelang.answers", 1, "ratio");
    double Untraced = Main.throughput();
    double TracedRate = Traced.throughput();
    Metrics.push_back({"trace.overhead_pct",
                       Untraced > 0 ? (Untraced - TracedRate) / Untraced * 100
                                    : 0.0,
                       "%"});
    // On ingest the telemetry phases measured inside each sample explain
    // it; elsewhere the spans do.
    double LayerNs = Counts.count("coverage.in_sample_ns")
                         ? Counts["coverage.in_sample_ns"]
                         : T.LayerSelfNs;
    Metrics.push_back({"trace.coverage",
                       T.SampleNs > 0 ? LayerNs / T.SampleNs : 0.0, "ratio"});

    writeSpans(A.WorkDir + "/trace_spans.jsonl");
    std::ofstream Layers(A.WorkDir + "/trace_layers.json", std::ios::trunc);
    Layers << "{\"workload\": " << jsonString(A.Workload)
           << ", \"self_time_ms\": {";
    bool First = true;
    for (const auto &[Name, Ns] : T.SelfNs) {
      Layers << (First ? "" : ", ") << jsonString(Name) << ": "
             << jsonNumber(Ns / 1e6);
      First = false;
    }
    Layers << "}, \"sample_ms\": " << jsonNumber(T.SampleNs / 1e6) << "}\n";
    std::fprintf(stderr, "perfbench: layer self time (ms) over %.1f ms of "
                         "samples:\n", T.SampleNs / 1e6);
    for (const auto &[Name, Ns] : T.SelfNs)
      std::fprintf(stderr, "  %-24s %10.2f\n", Name.c_str(), Ns / 1e6);
  }

  // Host and configuration record.
  size_t BeyondTail =
      Main.samples() - static_cast<size_t>(std::ceil(
                           TailPercentile * static_cast<double>(Main.samples())));
  std::string SetupList;
  for (size_t I = 0; I < SetupSeconds.size(); ++I)
    SetupList += (I ? ", " : "") + jsonNumber(SetupSeconds[I]);
  std::string Config =
      "{\"config\": {\"workload\": " + jsonString(A.Workload) +
      ", \"seed\": " + std::to_string(A.Seed) +
      ", \"seconds\": " + jsonNumber(A.Seconds) +
      ", \"trace\": " + (A.Traced ? "true" : "false") +
      ", \"nproc\": " + std::to_string(Cpus) +
      ", \"pool_threads\": " + std::to_string(ThreadPool::global().numThreads()) +
      ", \"daemon_workers\": " + std::to_string(C.DaemonWorkers) +
      ", \"kernel_backend\": " + jsonString(nn::kernels::activeName()) +
      ", \"tuned_vectorized\": " +
      (nn::kernels::tunedIsVectorized() ? "true" : "false") +
      ", \"build_type\": " + jsonString(A.BuildType) +
      ", \"telemetry\": " + (SNOWWHITE_TELEMETRY_ENABLED ? "\"on\"" : "\"off\"") +
      ", \"commit\": " + jsonString(A.Commit) +
      ", \"tail_percentile\": " + jsonNumber(TailPercentile) +
      ", \"samples\": " + std::to_string(Main.samples()) +
      ", \"samples_beyond_tail\": " + std::to_string(BeyondTail) +
      ", \"passes\": " + std::to_string(Main.Passes.size()) +
      ", \"traced_samples\": " + std::to_string(Traced.samples()) +
      ", \"measured_s\": " + jsonNumber(static_cast<double>(Main.WallNs) / 1e9) +
      ", \"setup_runs_s\": [" + SetupList +
      "], \"process_start_to_first_op_s\": " + jsonNumber(FirstOpAfterS) +
      (W->describe().empty() ? "" : ", " + W->describe()) + "}}";
  std::printf("%s\n", Config.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              ChecksPassed ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(
                  ChecksPassed ? Attempted - Ok : Attempted),
              metricsJson(Metrics).c_str());
  std::fflush(stdout);
  return ChecksPassed ? 0 : 1;
}
