//===- perfbench/src/main.cpp - Benchmark entry point --------------------===//
//
//   perfbench --workload <rl_flappy|rl_fleet_cnn|serve_tenants> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>] [--root <dir>]
//
// Runs generations of one workload (Workload.h) for --seconds and prints,
// as the last line of standard output, one JSON object with the keys
// correct, attempted, failed and metrics. Information lines before it carry
// the machine fingerprint, sample counts, the highest percentile each
// sample supports and the greedy progress.
//
// --trace 0 reports the end-to-end metrics of an untraced run. --trace 1
// runs untraced generations for half the time, then traced ones, and
// reports the per-layer metrics derived from the traced spans, the tracing
// overhead against the untraced half, and whether each phase's layer self
// times add up to within 10% of its wall time. The spans are written to
// <out-dir>/trace-<workload>.tsv.
//
//===----------------------------------------------------------------------===//

#include "Fingerprint.h"
#include "Stats.h"
#include "Trace.h"
#include "Workload.h"

#include "support/ThreadPool.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <sys/resource.h>
#include <unistd.h>
#include <vector>

using namespace perfbench;
namespace fs = std::filesystem;

namespace {

struct WorkloadEntry {
  const char *Name;
  GenerationFactory Make;
  /// Whether its steps fan out over the thread pool and join. Such a
  /// generation is either clean or hit by stalls of preempted vCPUs, and
  /// its values are read by fastPercentile; a single-threaded generation
  /// mixes the host's modes, and its values are read by interquartileMean
  /// (Workload.h, noise facts N1, N2 and N5).
  bool ForkJoin;
};

const WorkloadEntry Workloads[] = {
    {"rl_flappy", makeRlFlappy, false},
    {"rl_fleet_cnn", makeRlFleetCnn, true},
    {"serve_tenants", makeServeTenants, true},
};

/// Generations a run completes at least, so setup_s is a median.
constexpr int MinGenerations = 3;
/// Span buffer of the traced half. The traced half stops at the first
/// generation boundary past half of it, so no generation overflows it.
constexpr size_t TraceCapacity = size_t(1) << 20;
/// Largest |layer self-time sum - wall time| / wall time accepted per phase.
constexpr double MaxBreakdownError = 0.10;

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0.0;
  int Trace = -1;
  std::string OutDir = ".bench_build";
  std::string Root = ".";
};

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<rl_flappy|rl_fleet_cnn|serve_tenants> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>] "
               "[--root <dir>]\n",
               Why);
  std::exit(2);
}

Options parseArgs(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + A).c_str());
    std::string V = Argv[++I];
    char *End = nullptr;
    if (A == "--workload") {
      O.Workload = V;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V.c_str(), &End, 10);
      if (V.empty() || *End)
        usage("--seed must be a non-negative integer");
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(V.c_str(), &End);
      if (V.empty() || *End || !(O.Seconds > 0.0) || O.Seconds > 3600.0)
        usage("--seconds must be in (0, 3600]");
    } else if (A == "--trace") {
      if (V != "0" && V != "1")
        usage("--trace must be 0 or 1");
      O.Trace = V == "1";
    } else if (A == "--out-dir") {
      O.OutDir = V;
    } else if (A == "--root") {
      O.Root = V;
    } else {
      usage(("unknown option " + A).c_str());
    }
  }
  if (O.Workload.empty() || O.Seconds <= 0.0 || O.Trace < 0)
    usage("--workload, --seed, --seconds and --trace are required");
  return O;
}

/// splitmix64: independent generation seeds from the run seed.
uint64_t mixSeed(uint64_t Seed, uint64_t Gen) {
  uint64_t Z = Seed * 0x9e3779b97f4a7c15ull + Gen + 1;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return (Z ^ (Z >> 31)) & 0xffffffffull;
}

/// Runs generations until \p Seconds have passed (at least MinGenerations),
/// or, when tracing, until the span buffer is half full. Returns the set-up
/// time of each generation; each generation's rates and latencies land in
/// St.LearnGens and St.DeployGens.
std::vector<double> runGenerations(GenerationFactory Make, RunState &St,
                                   double Seconds, uint64_t &NextGen) {
  std::vector<double> SetupS;
  const int64_t Deadline = nowNs() + static_cast<int64_t>(Seconds * 1e9);
  do {
    if (St.Tr)
      St.Tr->setPhase(PSetup);
    int64_t T0 = nowNs();
    std::unique_ptr<Generation> G = Make(St, mixSeed(St.Seed, NextGen++));
    SetupS.push_back(static_cast<double>(nowNs() - T0) * 1e-9);
    const uint64_t LearnOps = St.Learn.Ops, DeployOps = St.Deploy.Ops;
    const int64_t LearnWall = St.Learn.WallNs, DeployWall = St.Deploy.WallNs;
    G->run();
    St.LearnGens.addSample(St.Learn, LearnOps, LearnWall);
    St.DeployGens.addSample(St.Deploy, DeployOps, DeployWall);
    St.Learn.StepNs.clear();
    St.Deploy.StepNs.clear();
    if (St.Tr && St.Tr->size() > St.Tr->capacity() / 2)
      break;
  } while (nowNs() < Deadline ||
           SetupS.size() < static_cast<size_t>(MinGenerations));
  return SetupS;
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

std::string number(double V) {
  char Buf[64];
  auto R = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return std::string(Buf, R.ptr);
}

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

void printResult(bool Correct, const Checks &Chk,
                 const std::vector<Metric> &Ms) {
  std::string J = std::string("{\"correct\": ") + (Correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(Chk.attempted()) +
                  ", \"failed\": " + std::to_string(Chk.failed()) +
                  ", \"metrics\": {";
  for (size_t I = 0; I != Ms.size(); ++I) {
    if (!std::isfinite(Ms[I].Value))
      throw std::runtime_error("metric " + Ms[I].Name + " is not finite");
    J += (I ? ", \"" : "\"") + Ms[I].Name + "\": {\"value\": " +
         number(Ms[I].Value) + ", \"unit\": \"" + Ms[I].Unit + "\"}";
  }
  J += "}}";
  std::printf("%s\n", J.c_str());
}

void printInfo(const std::string &Key, const std::string &Json) {
  std::printf("{\"info\": \"%s\", \"value\": %s}\n", Key.c_str(),
              Json.c_str());
}

std::string list(const std::vector<double> &Xs) {
  std::string J = "[";
  for (size_t I = 0; I != Xs.size(); ++I)
    J += (I ? ", " : "") + number(Xs[I]);
  return J + "]";
}

/// The end-to-end timing values of a run (noise facts N1, N2 and N5 in
/// Workload.h).
struct TimingValues {
  double LearnRate, LearnP50, LearnP99, DeployRate, DeployP50, DeployP99;
};

TimingValues timingValues(const RunState &St, bool ForkJoin) {
  auto gens = [&](const std::vector<double> &Xs, bool HigherIsBetter) {
    return ForkJoin ? fastPercentile(Xs, HigherIsBetter)
                    : interquartileMean(Xs);
  };
  const PhaseSeries &L = St.LearnGens, &D = St.DeployGens,
                    &W = St.DeployWindows;
  // Deployment windows that each ran in one host mode give the deployment
  // rate and p50 where a workload has them. Their p99 stays per generation:
  // a 2000-step window's p99 turns on a handful of slow steps.
  const bool Windows = !W.Rate.empty();
  return {gens(L.Rate, true),
          gens(L.P50Us, false),
          gens(L.P99Us, false),
          Windows ? fastPercentile(W.Rate, true) : gens(D.Rate, true),
          Windows ? fastPercentile(W.P50Us, false) : gens(D.P50Us, false),
          gens(D.P99Us, false)};
}

void printPhaseInfo(const char *Name, const Phase &P, const PhaseSeries &G) {
  printInfo(Name, std::string("{\"ops\": ") + std::to_string(P.Ops) +
                      ", \"wall_s\": " +
                      number(static_cast<double>(P.WallNs) * 1e-9) +
                      ", \"samples\": " + std::to_string(G.Rate.size()) +
                      ", \"min_steps_per_sample\": " +
                      std::to_string(G.MinSteps) + ", \"tail\": \"" +
                      ninesLabel(G.TailNines) + "\", \"tail_us\": " +
                      number(interquartileMean(G.TailUs)) +
                      ", \"sample_rates\": " + list(G.Rate) +
                      ", \"sample_p50_us\": " + list(G.P50Us) +
                      ", \"sample_p99_us\": " + list(G.P99Us) + "}");
}

void printCommonInfo(const RunState &St, size_t Gens) {
  printInfo("generations", std::to_string(Gens));
  double Progress = St.ProgressEpisodes
                        ? St.ProgressSum /
                              static_cast<double>(St.ProgressEpisodes)
                        : 0.0;
  printInfo("greedy_progress",
            "{\"mean\": " + number(Progress) + ", \"episodes\": " +
                std::to_string(St.ProgressEpisodes) + "}");
  printPhaseInfo("learn", St.Learn, St.LearnGens);
  printPhaseInfo("deploy", St.Deploy, St.DeployGens);
  if (!St.DeployWindows.Rate.empty())
    printPhaseInfo("deploy_windows", St.Deploy, St.DeployWindows);
  for (const std::string &M : St.Chk.messages())
    std::fprintf(stderr, "perfbench: check failed: %s\n", M.c_str());
}

int runUntraced(const Options &O, const WorkloadEntry &W) {
  RunState St;
  St.Seed = O.Seed;
  St.WorkDir = O.OutDir + "/work-" + std::to_string(getpid());
  fs::create_directories(St.WorkDir);
  uint64_t NextGen = 0;
  std::vector<double> SetupS = runGenerations(W.Make, St, O.Seconds, NextGen);
  // Before the summaries below allocate: the peak is the program's.
  const double RssMb = peakRssMb();
  fs::remove_all(St.WorkDir);

  printCommonInfo(St, SetupS.size());
  const TimingValues V = timingValues(St, W.ForkJoin);
  printResult(St.Chk.failed() == 0, St.Chk,
              {{"setup_s", median(SetupS), "s"},
               {"learn_steps_per_s", V.LearnRate, "1/s"},
               {"learn_step_p50_us", V.LearnP50, "us"},
               {"learn_step_p99_us", V.LearnP99, "us"},
               {"deploy_steps_per_s", V.DeployRate, "1/s"},
               {"deploy_step_p50_us", V.DeployP50, "us"},
               {"deploy_step_p99_us", V.DeployP99, "us"},
               {"peak_rss_mb", RssMb, "MB"}});
  return 0;
}

int runTraced(const Options &O, const WorkloadEntry &W) {
  const std::string WorkDir = O.OutDir + "/work-" + std::to_string(getpid());
  fs::create_directories(WorkDir);
  uint64_t NextGen = 0;

  // Untraced half: the reference rates for the tracing overhead.
  RunState Base;
  Base.Seed = O.Seed;
  Base.WorkDir = WorkDir;
  runGenerations(W.Make, Base, O.Seconds / 2, NextGen);

  RunState St;
  St.Seed = O.Seed;
  St.WorkDir = WorkDir;
  Tracer Tr(TraceCapacity);
  St.Tr = &Tr;
  std::vector<double> SetupS =
      runGenerations(W.Make, St, O.Seconds / 2, NextGen);
  St.Tr = nullptr;
  fs::remove_all(WorkDir);

  const std::vector<Span> Spans = Tr.spans();
  const TraceAnalysis A = analyzeSpans(Spans);
  const double Gens = static_cast<double>(SetupS.size());
  const uint64_t Steps = St.Learn.Ops + St.Deploy.Ops;

  auto meanSelf = [&](Layer L, std::initializer_list<PhaseKind> Ps,
                      double Scale) {
    LayerTotals T = A.total(L, Ps);
    return T.Calls ? T.SelfNs / static_cast<double>(T.Calls) * Scale : 0.0;
  };
  auto run = [&](Layer L, double Scale) {
    return meanSelf(L, {PLearn, PDeploy}, Scale);
  };
  auto perGen = [&](const char *Name) {
    auto It = St.Counts.find(Name);
    return It == St.Counts.end() ? 0.0 : It->second / Gens;
  };
  auto ratio = [](double Num, double Den) { return Den > 0 ? Num / Den : 0.0; };
  auto overhead = [](double Untraced, double Traced) {
    return Traced > 0 ? 100.0 * (Untraced / Traced - 1.0) : 0.0;
  };
  const double Us = 1e-3, Ms = 1e-6;

  // Per phase, the self times of the non-concurrent spans must add up to
  // the phase's wall time (ROADMAP item 1).
  bool BreakdownOk = !Tr.overflowed();
  double WorstErr = 0.0;
  const PhaseKind TimedPhases[] = {PLearn, PDeploy};
  for (PhaseKind P : TimedPhases) {
    const Phase &Ph = P == PLearn ? St.Learn : St.Deploy;
    double Wall = static_cast<double>(Ph.WallNs);
    double Err = Wall > 0 ? std::fabs(A.SelfSumNs[P] - Wall) / Wall : 1.0;
    WorstErr = std::max(WorstErr, Err);
    printInfo(std::string("breakdown_") + phaseName(P),
              "{\"wall_s\": " + number(Wall * 1e-9) + ", \"self_sum_s\": " +
                  number(A.SelfSumNs[P] * 1e-9) + ", \"error\": " +
                  number(Err) + "}");
    if (Err > MaxBreakdownError) {
      std::fprintf(stderr,
                   "perfbench: %s layer self times sum to %.3f s against "
                   "%.3f s of wall time\n",
                   phaseName(P), A.SelfSumNs[P] * 1e-9, Wall * 1e-9);
      BreakdownOk = false;
    }
  }
  const TimingValues BaseV = timingValues(Base, W.ForkJoin);
  const TimingValues TracedV = timingValues(St, W.ForkJoin);
  double LearnOverhead = overhead(BaseV.LearnRate, TracedV.LearnRate);
  double DeployOverhead = overhead(BaseV.DeployRate, TracedV.DeployRate);
  double BaseNsPerOp = ratio(static_cast<double>(Base.Learn.WallNs +
                                                 Base.Deploy.WallNs),
                             static_cast<double>(Base.Learn.Ops +
                                                 Base.Deploy.Ops));
  double TracedNsPerOp = ratio(static_cast<double>(St.Learn.WallNs +
                                                   St.Deploy.WallNs),
                               static_cast<double>(Steps));

  std::vector<Metric> PerLayer = {
      {"analysis.select_features_ms", meanSelf(LSelectFeatures, {PSetup}, Ms),
       "ms"},
      {"apps.features_us", run(LFeatures, Us), "us"},
      {"apps.env_step_us", run(LEnvStep, Us), "us"},
      {"apps.render_us", run(LRender, Us), "us"},
      {"support.parallel_extract_us", run(LParallelExtract, Us), "us"},
      {"support.parallel_step_us", run(LParallelStep, Us), "us"},
      {"core.extract_us", run(LExtract, Us), "us"},
      {"core.extracts_per_step",
       ratio(static_cast<double>(A.total(LExtract, {PLearn, PDeploy}).Calls),
             static_cast<double>(Steps)),
       "count"},
      {"core.serialize_us", run(LSerialize, Us), "us"},
      {"core.write_back_us", run(LWriteBack, Us), "us"},
      {"core.nn_learn_us", run(LNnLearn, Us), "us"},
      {"core.nn_deploy_us", run(LNnDeploy, Us), "us"},
      {"core.checkpoint_us", meanSelf(LCheckpoint, {PSetup, PLearn}, Us),
       "us"},
      {"core.restore_us", run(LRestore, Us), "us"},
      {"core.restores",
       ratio(static_cast<double>(A.total(LRestore, {PLearn}).Calls), Gens),
       "count"},
      {"core.nn_record_us", run(LNnRecord, Us), "us"},
      {"engine.nn_rl_sessions_us", run(LNnRlSessions, Us), "us"},
      {"engine.rows_per_call",
       ratio(perGen("engine.rows"), perGen("engine.batch_calls")), "count"},
      {"engine.nn_batch_sessions_us", run(LNnBatchSessions, Us), "us"},
      {"engine.refresh_call_us", run(LRefreshCall, Us), "us"},
      {"engine.train_supervised_ms", run(LTrainSupervised, Ms), "ms"},
      {"engine.publishes", perGen("engine.publishes"), "count"},
      {"engine.version_lag",
       St.Maxima.count("engine.version_lag") ? St.Maxima["engine.version_lag"]
                                             : 0.0,
       "count"},
      {"engine.config_load_ms", meanSelf(LConfigLoad, {PSetup}, Ms), "ms"},
      {"nn.train_steps", perGen("nn.train_steps"), "count"},
      {"nn.replay_size", perGen("nn.replay_size"), "count"},
      {"nn.train_steps_per_learn_step",
       ratio(perGen("nn.train_steps") * Gens,
             static_cast<double>(St.Learn.Ops)),
       "ratio"},
      {"bench.loop_self_us", run(LIter, Us), "us"},
      {"trace.overhead_pct", overhead(1.0 / BaseNsPerOp, 1.0 / TracedNsPerOp),
       "%"},
      {"trace.learn_overhead_pct", LearnOverhead, "%"},
      {"trace.deploy_overhead_pct", DeployOverhead, "%"},
      {"trace.breakdown_error_pct", 100.0 * WorstErr, "%"},
      {"trace.spans", static_cast<double>(Spans.size()), "count"},
  };

  std::string Path = O.OutDir + "/trace-" + O.Workload + ".tsv";
  std::string Comment = "perfbench workload=" + O.Workload +
                        " seed=" + std::to_string(O.Seed) +
                        " fingerprint=" + fingerprintJson(O.Root);
  if (!Tr.write(Path, Comment))
    std::fprintf(stderr, "perfbench: could not write %s\n", Path.c_str());
  St.Chk.merge(Base.Chk);
  printCommonInfo(St, SetupS.size());
  printInfo("trace_file", "\"" + Path + "\"");
  printResult(St.Chk.failed() == 0 && BreakdownOk, St.Chk, PerLayer);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O = parseArgs(Argc, Argv);
  const WorkloadEntry *W = nullptr;
  for (const WorkloadEntry &E : Workloads)
    if (O.Workload == E.Name)
      W = &E;
  if (!W)
    usage(("unknown workload " + O.Workload).c_str());

  try {
    // Start the global pool before any timing, then record the machine.
    au::ThreadPool::global();
    printInfo("fingerprint", fingerprintJson(O.Root));
    printInfo("run", "{\"workload\": \"" + O.Workload + "\", \"seed\": " +
                         std::to_string(O.Seed) + ", \"seconds\": " +
                         number(O.Seconds) + ", \"trace\": " +
                         std::to_string(O.Trace) + "}");
    std::fflush(stdout);
    return O.Trace ? runTraced(O, *W) : runUntraced(O, *W);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s\n", E.what());
    return 1;
  }
}
