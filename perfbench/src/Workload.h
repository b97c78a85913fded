//===- perfbench/src/Workload.h - Workload interface ---------------------===//
//
// A workload is an annotated program driven through the runtime's public
// API from one load-generating thread. A run repeats *generations* until
// its time is up: each generation is a fresh instance of the program (its
// construction is one set-up sample) followed by a fixed amount of work in
// which learning (TR) windows and deployment (TS) windows interleave.
// Fixed work per generation keeps every generation alike, so a run's
// whole-phase rates do not depend on how many generations fit into it.
//
// Noise facts this design answers, measured on a 4-vCPU Firecracker guest
// with no PMU (cited elsewhere as "perfbench noise facts N1-N5"):
//  N1. A stationary scalar loop's 200 ms window rate swings +-15% in host
//      phases lasting 1-5 s; back-to-back 1 s runs of identical rl_flappy
//      learning code ranged from 22k to 39k steps/s. So a run lasts tens of
//      seconds and is cut into generations (about 0.6 s for rl_flappy),
//      each yielding whole-phase values: never a best-of-N over learning
//      windows inside a generation, which would hide the drift of N3. A
//      single-threaded generation mixes the host's modes (N2), so the run
//      reports the interquartile mean of its generations (Stats.h), which
//      ignores the ones a host hiccup hit.
//  N2. The TS deployment p50 of rl_flappy is bimodal by host mode (about
//      1.0-1.1 us or 1.8-2.3 us), even with the process pinned to one vCPU.
//      A mode holds for milliseconds to seconds: the p50 of each 500-step
//      (~0.6 ms) deployment window reads one mode or the other, and one
//      generation's windows mix both. The share of each differs from run
//      to run (4-92% of the generations mostly fast in twenty 35 s runs),
//      and every statistic of per-generation deployment rates and p50s
//      moves with it: the spread (IQR / median) of ten runs reached 0.40 in
//      deployment p50 and 0.25-0.3 in deployment rate. So rl_flappy's
//      deployment rate and p50 are read per ~2 ms evaluation window: greedy
//      steps leave the model as it is, so those windows are alike, and each
//      runs in one host mode. The run reports the fast (5th) percentile of
//      its windows, which reads the fast mode whenever a twentieth of them
//      saw it (spreads 0.06-0.11 in three sets of ten runs). A window's p99
//      turns on a handful of slow steps, so the p99 stays per generation,
//      where the slow mode sets it in nearly every generation and the
//      interquartile mean is steady (0.03-0.13). Deployment windows
//      interleave through the learning phase, so both phases see the same
//      host mix.
//  N3. Within one rl_flappy training run the learning step climbs from
//      about 25 to 45 us over 60k steps (likely subnormal Adam state). So
//      every generation trains from scratch for the same number of steps.
//  N4. Set-up that takes about a millisecond cannot be timed steadily (the
//      Algorithm 2 set-up of rl_flappy takes ~1.2 ms). So set-up includes
//      the real work a user pays before the first timed iteration (model
//      construction; for serve_tenants model training and a model-file
//      round trip), and setup_s is the median over the run's generations.
//  N5. The host also shifts between eras lasting minutes, which no
//      statistic inside a 35 s run can remove. In one set of ten rl_flappy
//      runs the first four ran at 24.7-25.7k learning steps/s and the other
//      six at 30.0-35.2k; in one set of ten serve_tenants runs seven ran
//      1.2-3.5x slower in every metric, while the guest saw 11% of its CPU
//      time stolen by the host. Runs taken in a quiet era agree within
//      3-8%. So every timing bound is the 0.25 maximum. The fork-join
//      workloads (rl_fleet_cnn, serve_tenants) spread their steps over the
//      default pool on all four vCPUs, so a preempted vCPU stalls every
//      join it takes part in: a generation is either clean or hit by
//      stalls, and the run reports the fast percentile of its generations.
//      In one set of ten rl_fleet_cnn runs that kept every spread within
//      0.18, where the interquartile mean reached 0.46 in the p99s.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOAD_H
#define PERFBENCH_WORKLOAD_H

#include "Stats.h"
#include "Trace.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Everything a generation reports into.
struct RunState {
  uint64_t Seed = 0;
  /// Working directory for model files, inside the benchmark's output
  /// directory.
  std::string WorkDir;
  /// Non-null while the traced part of a run records spans.
  Tracer *Tr = nullptr;
  Phase Learn;
  Phase Deploy;
  /// Per-generation values of each phase.
  PhaseSeries LearnGens;
  PhaseSeries DeployGens;
  /// Per-window deployment values of a workload whose deployment windows
  /// are alike and short enough to run in one host mode (noise fact N2);
  /// empty for the others.
  PhaseSeries DeployWindows;
  Checks Chk;
  /// Per-generation counters (summed over generations; divided by the
  /// generation count on output).
  std::map<std::string, double> Counts;
  /// Counters reported as their maximum.
  std::map<std::string, double> Maxima;
  /// Greedy evaluation progress (information only, never gated).
  double ProgressSum = 0.0;
  uint64_t ProgressEpisodes = 0;

  void count(const std::string &Name, double V) { Counts[Name] += V; }
  void maximum(const std::string &Name, double V) {
    auto [It, New] = Maxima.emplace(Name, V);
    if (!New && V > It->second)
      It->second = V;
  }
};

/// One instance of the annotated program. The constructor is the set-up;
/// run() does the generation's fixed work; the destructor tears down.
class Generation {
public:
  virtual ~Generation() = default;
  virtual void run() = 0;
};

using GenerationFactory = std::unique_ptr<Generation> (*)(RunState &,
                                                          uint64_t GenSeed);

std::unique_ptr<Generation> makeRlFlappy(RunState &St, uint64_t GenSeed);
std::unique_ptr<Generation> makeRlFleetCnn(RunState &St, uint64_t GenSeed);
std::unique_ptr<Generation> makeServeTenants(RunState &St, uint64_t GenSeed);

/// Times one learning or deployment window into \p P.
class Window {
public:
  explicit Window(Phase &P) : P(P), Start(nowNs()) {}
  ~Window() { P.WallNs += nowNs() - Start; }
  Window(const Window &) = delete;
  Window &operator=(const Window &) = delete;

private:
  Phase &P;
  int64_t Start;
};

/// Times one iteration (step, tick or round) of a phase: its latency
/// sample and, when tracing, its iteration span. \p Ops is the number of
/// annotated iterations or calls it completes.
class Iteration {
public:
  Iteration(RunState &St, Phase &P, PhaseKind K, uint64_t Ops)
      : Tr(St.Tr), P(P), Ops(Ops), Start(nowNs()) {
    if (Tr) {
      Tr->setPhase(K);
      Tr->beginIteration(Start);
    }
  }
  ~Iteration() {
    int64_t End = nowNs();
    if (Tr)
      Tr->endIteration(End);
    P.addStep(End - Start);
    P.Ops += Ops;
  }
  Iteration(const Iteration &) = delete;
  Iteration &operator=(const Iteration &) = delete;

private:
  Tracer *Tr;
  Phase &P;
  uint64_t Ops;
  int64_t Start;
};

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_H
