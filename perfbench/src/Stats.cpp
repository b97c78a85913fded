//===- perfbench/src/Stats.cpp - Sample statistics and op accounting -----===//

#include "Stats.h"

#include <algorithm>
#include <stdexcept>

using namespace perfbench;

static size_t pow10(int E) {
  size_t P = 1;
  for (int I = 0; I < E; ++I)
    P *= 10;
  return P;
}

size_t perfbench::ninesRank(size_t N, int Nines) {
  return N - N / pow10(Nines);
}

bool perfbench::ninesReportable(size_t N, int Nines) {
  return N / pow10(Nines) >= MinBeyond;
}

int perfbench::highestReportableNines(size_t N) {
  int Nines = 0;
  while (Nines < 12 && ninesReportable(N, Nines + 1))
    ++Nines;
  return Nines;
}

std::string perfbench::ninesLabel(int Nines) {
  std::string L = "p99";
  if (Nines <= 1)
    return "p90";
  if (Nines > 2) {
    L += '.';
    L.append(static_cast<size_t>(Nines - 2), '9');
  }
  return L;
}

LatencySummary perfbench::summarizeLatency(std::vector<double> &Samples) {
  const size_t N = Samples.size();
  if (!ninesReportable(N, 2))
    throw std::runtime_error("p99 needs at least 1000 samples, got " +
                             std::to_string(N));
  std::sort(Samples.begin(), Samples.end());
  LatencySummary S;
  S.Count = N;
  S.P50 = Samples[(N + 1) / 2 - 1];
  S.P99 = Samples[ninesRank(N, 2) - 1];
  S.TailNines = highestReportableNines(N);
  S.Tail = Samples[ninesRank(N, S.TailNines) - 1];
  return S;
}

double perfbench::median(std::vector<double> Xs) {
  if (Xs.empty())
    return 0.0;
  std::sort(Xs.begin(), Xs.end());
  size_t N = Xs.size();
  return N % 2 ? Xs[N / 2] : 0.5 * (Xs[N / 2 - 1] + Xs[N / 2]);
}

double perfbench::fastPercentile(std::vector<double> Xs,
                                 bool HigherIsBetter) {
  if (Xs.empty())
    return 0.0;
  std::sort(Xs.begin(), Xs.end());
  const double Pos = (HigherIsBetter ? 1.0 - FastShare : FastShare) *
                     static_cast<double>(Xs.size() - 1);
  const size_t Lo = static_cast<size_t>(Pos);
  const size_t Hi = std::min(Lo + 1, Xs.size() - 1);
  return Xs[Lo] + (Xs[Hi] - Xs[Lo]) * (Pos - static_cast<double>(Lo));
}

double perfbench::interquartileMean(std::vector<double> Xs) {
  if (Xs.empty())
    return 0.0;
  std::sort(Xs.begin(), Xs.end());
  size_t Drop = Xs.size() / 4;
  double Sum = 0.0;
  for (size_t I = Drop; I != Xs.size() - Drop; ++I)
    Sum += Xs[I];
  return Sum / static_cast<double>(Xs.size() - 2 * Drop);
}

void PhaseSeries::addSample(const Phase &P, uint64_t Ops0, int64_t WallNs0,
                            size_t Step0) {
  std::vector<double> Us(P.StepNs.size() - Step0);
  for (size_t I = 0; I != Us.size(); ++I)
    Us[I] = static_cast<double>(P.StepNs[Step0 + I]) * 1e-3;
  LatencySummary L = summarizeLatency(Us);
  const double Wall = static_cast<double>(P.WallNs - WallNs0);
  Rate.push_back(Wall > 0 ? static_cast<double>(P.Ops - Ops0) * 1e9 / Wall
                          : 0.0);
  P50Us.push_back(L.P50);
  P99Us.push_back(L.P99);
  // Samples do fixed work, so they support the same tail percentile; the
  // first one fixes it.
  if (TailUs.empty())
    TailNines = L.TailNines;
  int Nines = std::min(TailNines, L.TailNines);
  TailUs.push_back(Us[ninesRank(Us.size(), Nines) - 1]); // Us is sorted.
  MinSteps = MinSteps ? std::min(MinSteps, L.Count) : L.Count;
}

void Checks::check(bool Ok, const char *What) {
  ++Attempted;
  if (Ok)
    return;
  ++Failed;
  if (Messages.size() < MaxMessages)
    Messages.emplace_back(What);
}

void Checks::merge(const Checks &O) {
  Attempted += O.Attempted;
  Failed += O.Failed;
  for (const std::string &M : O.Messages)
    if (Messages.size() < MaxMessages)
      Messages.push_back(M);
}
