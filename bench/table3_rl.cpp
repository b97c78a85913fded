//===- bench/table3_rl.cpp - Reproduces Table 3 (RL rows) ----------------===//
//
// Table 3 of the paper, reinforcement-learning rows: the scripted player
// reference ("Players"), the Raw pixel/CNN baseline (DeepMind-style) and
// the All version (program variables selected by Algorithm 2) for the five
// interactive programs, with training time, per-iteration execution time
// and the progress / success-rate scores over 10 evaluation runs.
//
// One learner seed is not a measurement here: All's progress swings from
// ~5% to 100% on one game with nothing but the learner seed changed. Each
// RL variant therefore trains at NumLearnerSeeds learner-seed offsets (the
// network initialization, exploration and minibatch draws; the levels stay
// fixed) and the table prints the median [q1-q3] over them. Offset 0 is
// the single seed the table used before.
//
// Budgets are tuned per game, as RL training schedules always are. Raw
// gets a small iteration budget because each of its iterations costs two
// orders of magnitude more wall-clock than All's — this mirrors the
// paper's regime, where Raw exhausts a 24-hour budget ("t/o") that All
// finishes well inside.
//
// Expected shape (paper): All reaches close-to-human scores within the
// budget while Raw lags far behind, and All's per-iteration overhead is
// far below Raw's.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "apps/arkanoid/Arkanoid.h"
#include "apps/breakout/Breakout.h"
#include "apps/common/RlHarness.h"
#include "apps/flappy/Flappy.h"
#include "apps/mario/Mario.h"
#include "apps/torcs/Torcs.h"
#include "support/Statistics.h"
#include "support/Table.h"

using namespace au;
using namespace au::apps;

namespace {
/// Per-game training schedule for the All variant.
struct EnvSchedule {
  long AllSteps;
  std::vector<int> Hidden;
  int MaxEpisodeSteps;
};

constexpr int NumLearnerSeeds = 5;

/// Scores and costs of one variant over the learner-seed offsets.
struct SeedRuns {
  std::vector<double> Progress, Success, TrainSeconds, StepSeconds;
};

/// "median [q1-q3]" of fractions, as percentages.
std::string fmtQuartiles(const std::vector<double> &Fractions) {
  auto Q = [&](double P) { return fmt(100.0 * percentile(Fractions, P), 1); };
  return Q(50) + "% [" + Q(25) + "-" + Q(75) + "]";
}

double median(const std::vector<double> &Xs) { return percentile(Xs, 50); }

/// Trains and evaluates \p Opt's variant once per learner-seed offset, each
/// in a fresh engine. The model is configured here with the moved seed
/// before trainRl, which adopts it.
SeedRuns runSeeds(GameEnv &Env, const RlTrainOptions &Opt) {
  SeedRuns Runs;
  for (int K = 0; K < NumLearnerSeeds; ++K) {
    Engine Eng;
    Session S(Eng, Mode::TR);
    ModelConfig C = rlModelConfig(Env, Opt);
    C.Seed += static_cast<uint64_t>(K);
    S.config(C);
    RlTrainResult Train = trainRl(Env, S, Opt);
    RlEvalResult Eval = evalRl(Env, S, Opt, 10);
    Runs.Progress.push_back(Eval.MeanProgress);
    Runs.Success.push_back(Eval.SuccessRate);
    Runs.TrainSeconds.push_back(Train.TrainSeconds);
    Runs.StepSeconds.push_back(Eval.MeanStepSeconds);
  }
  return Runs;
}

void addRows(Table &Out, GameEnv &Env, const EnvSchedule &Sched,
             long RawSteps) {
  RlTrainOptions Base;
  Base.Seed = 77;
  Base.MaxEpisodeSteps = Sched.MaxEpisodeSteps;
  double BaseStep = baselineStepSeconds(Env, Base, 4);
  RlEvalResult Players = evalHeuristic(Env, Base, 10);

  // All: program variables via Algorithm 2.
  RlTrainOptions AllOpt = Base;
  AllOpt.FeatureNames = selectRlFeatures(Env);
  AllOpt.TrainSteps = Sched.AllSteps;
  AllOpt.Hidden = Sched.Hidden;
  AllOpt.QCfg.EpsilonDecaySteps = static_cast<int>(Sched.AllSteps * 0.5);
  AllOpt.QCfg.TrainInterval = 2;
  SeedRuns All = runSeeds(Env, AllOpt);

  // Raw: rendered frames through the DeepMind-style CNN. Episodes are
  // capped at 500 iterations to bound the (much slower) evaluation.
  RlTrainOptions RawOpt = Base;
  RawOpt.Variant = RlVariant::Raw;
  RawOpt.FrameSide = 16;
  RawOpt.TrainSteps = RawSteps;
  RawOpt.MaxEpisodeSteps = 500;
  RawOpt.QCfg.EpsilonDecaySteps = static_cast<int>(RawSteps * 0.5);
  RawOpt.QCfg.TrainInterval = 2;
  SeedRuns Raw = runSeeds(Env, RawOpt);

  Out.addRow({std::string("[RL] ^ ") + Env.name(), fmt(BaseStep * 1e6, 3),
              fmtPercent(Players.MeanProgress) + "/" +
                  fmtPercent(Players.SuccessRate),
              fmt(median(Raw.TrainSeconds), 1),
              fmt(median(Raw.StepSeconds) * 1e6, 1),
              fmtQuartiles(Raw.Progress), fmtQuartiles(Raw.Success),
              fmt(median(All.TrainSeconds), 1),
              fmt(median(All.StepSeconds) * 1e6, 1),
              fmtQuartiles(All.Progress), fmtQuartiles(All.Success),
              fmt(median(All.StepSeconds) / BaseStep, 2)});
}
} // namespace

int main() {
  long RawSteps = bench::scaled(4000, 400);

  bench::banner("Table 3 (RL rows): players vs Raw vs All");
  std::printf("(Raw trained %ld iterations — each costs ~2 orders of\n"
              " magnitude more than All's, so this is already more\n"
              " wall-clock than All receives, mirroring the paper's 't/o'\n"
              " regime; Players is progress%%/success%% over 10 runs; Raw\n"
              " and All scores are the median [q1-q3] over %d learner\n"
              " seeds of progress%% and success%% over 10 runs each; train\n"
              " and exec columns are medians, exec times in microseconds\n"
              " per game-loop iteration)\n\n",
              RawSteps, NumLearnerSeeds);

  Table Out({"Program", "Base Exec(us)", "Players", "Raw Train(s)",
             "Raw Exec(us)", "Raw Progress", "Raw Success", "All Train(s)",
             "All Exec(us)", "All Progress", "All Success",
             "All Overhead(x)"});

  FlappyEnv Flappy;
  addRows(Out, Flappy, {bench::scaled(40000, 2000), {32, 32}, 500},
          RawSteps);
  MarioEnv Mario;
  addRows(Out, Mario, {bench::scaled(40000, 2000), {32, 32}, 500}, RawSteps);
  ArkanoidEnv Arkanoid;
  addRows(Out, Arkanoid, {bench::scaled(80000, 4000), {64, 32}, 2000},
          RawSteps);
  TorcsEnv Torcs;
  addRows(Out, Torcs, {bench::scaled(16000, 1000), {32, 32}, 500}, RawSteps);
  BreakoutEnv Breakout;
  addRows(Out, Breakout, {bench::scaled(80000, 4000), {32, 32}, 2000},
          RawSteps);
  Out.print();

  std::printf("\nNote: compare shapes with the paper — All close to or above "
              "Players,\nRaw far behind at equal budget, Raw per-iteration "
              "cost >> All.\n");
  return 0;
}
