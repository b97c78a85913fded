//===- perfbench/src/Stats.h - Sample statistics and op accounting -------===//
//
// The statistics every workload reports through: latency percentiles under
// one sample-count rule, per-sample phase values and their aggregate, and
// output checks counted as failed operations against operations attempted.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic time in nanoseconds.
inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The percentile rule: a percentile is reported only when at least
/// MinBeyond (10) samples lie beyond it. p50 therefore needs 20 samples,
/// p99 1000 and p99.9 10000.
constexpr size_t MinBeyond = 10;

/// 1-based nearest rank of the \p Nines-nines percentile (1 = p90, 2 = p99,
/// 3 = p99.9, ...) in \p N samples, computed in integers so the rule has no
/// rounding edge: the rank leaves floor(N / 10^Nines) samples beyond it.
size_t ninesRank(size_t N, int Nines);

/// Whether the \p Nines-nines percentile of \p N samples may be reported.
bool ninesReportable(size_t N, int Nines);

/// The largest Nines such that ninesReportable(N, Nines); 0 when even p90
/// is not (N < 100).
int highestReportableNines(size_t N);

/// "p90", "p99", "p99.9", ... for \p Nines >= 1.
std::string ninesLabel(int Nines);

/// Latency summary of one phase.
struct LatencySummary {
  size_t Count = 0;
  double P50 = 0.0;
  double P99 = 0.0;
  /// The highest percentile the sample supports, and its value.
  int TailNines = 0;
  double Tail = 0.0;
};

/// Sorts \p Samples (in place) and summarizes them. Throws
/// std::runtime_error when the sample is too small for p99 (fewer than 1000
/// samples): the benchmark refuses to print a p99 it did not measure.
LatencySummary summarizeLatency(std::vector<double> &Samples);

/// Median of \p Xs (mean of the middle two for an even count); 0 if empty.
double median(std::vector<double> Xs);

/// Share of a run's samples that must reach a value read by fastPercentile.
constexpr double FastShare = 0.05;

/// The fast percentile of a run's samples: the FastShare (5th) percentile
/// of \p Xs when lower is better (latencies), the 95th when higher is better
/// (rates), interpolated between neighbouring order statistics. It reads
/// the host's fast mode whenever a twentieth of the samples saw it, so it
/// suits samples that each ran in one host mode, or were either clean or
/// hit by a stall (Workload.h, noise facts N2 and N5). Every sample repeats
/// the same work, so a slower program moves every sample and with them the
/// percentile. 0 if empty.
double fastPercentile(std::vector<double> Xs, bool HigherIsBetter);

/// Interquartile mean: the mean of the values left after dropping the
/// lowest and highest quarter (floor(n/4) values at each end). It suits
/// samples that each mix the host's modes (noise fact N1): it ignores the
/// ones a host hiccup hit and moves with the share of each mode instead of
/// jumping between them as a median would. 0 if empty.
double interquartileMean(std::vector<double> Xs);

/// One phase (learning or deployment) of a workload: the current
/// generation's step latencies, and the wall time of the windows the phase
/// ran in and the operations it completed, summed over the run.
struct Phase {
  /// Latencies of this generation's steps. Reserved and touched up front,
  /// so the benchmark's own bookkeeping adds the same resident memory to
  /// every run.
  std::vector<uint32_t> StepNs;
  int64_t WallNs = 0;
  uint64_t Ops = 0;

  Phase() {
    StepNs.assign(size_t(1) << 16, 0);
    StepNs.clear();
  }

  void addStep(int64_t Ns) {
    constexpr int64_t Max = UINT32_MAX;
    StepNs.push_back(static_cast<uint32_t>(Ns < 0 ? 0 : Ns > Max ? Max : Ns));
  }
};

/// Per-sample values of one phase, collected over a run. A sample is a
/// generation, or one window of it.
struct PhaseSeries {
  std::vector<double> Rate; ///< Operations per second of window time.
  std::vector<double> P50Us;
  std::vector<double> P99Us;
  std::vector<double> TailUs; ///< At the highest percentile the first
                              ///< sample supports (TailNines).
  int TailNines = 0;
  size_t MinSteps = 0; ///< Fewest steps in one sample.

  /// Adds one sample of \p P: its steps from index \p Step0 on, and the
  /// operations and wall time since its counters stood at \p Ops0 and
  /// \p WallNs0. Throws std::runtime_error when the sample has too few
  /// steps for p99.
  void addSample(const Phase &P, uint64_t Ops0, int64_t WallNs0,
                 size_t Step0 = 0);
};

/// Output checks: every checked operation counts as attempted; one whose
/// check fails counts as failed. The first few failures keep a message.
class Checks {
public:
  void check(bool Ok, const char *What);
  /// Adds another run part's counts and messages to this one.
  void merge(const Checks &O);

  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }
  const std::vector<std::string> &messages() const { return Messages; }

  static constexpr size_t MaxMessages = 8;

private:
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Messages;
};

} // namespace perfbench

#endif // PERFBENCH_STATS_H
