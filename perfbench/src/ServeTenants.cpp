//===- perfbench/src/ServeTenants.cpp - Workload serve_tenants -----------===//
//
// One Engine serving 16 TS tenant sessions in closed-loop rounds, with a TR
// trainer session writing beside the readers on the same thread:
//
//   set-up: train a 128->256->256->8 SL model in a scratch Engine, save it,
//           then au_config it in TS mode into a fresh Engine (model-file
//           load + snapshot publication) and open the sessions.
//   round:  deployment — every tenant au_extracts its 128 features, one
//           Engine::nnBatchSessions serves all 16 rows through the shared
//           inference replica, every tenant au_write_backs its 8 outputs;
//           learning — the trainer records one labeled sample (SL au_NN +
//           label au_write_back); every TrainEvery-th sample it also runs
//           trainSupervised, which publishes a new snapshot, so the next
//           round's batched call refreshes the replica.
//
// A round counts as 16 deployment calls; a call's latency is the latency of
// the whole fused round (as bench/serve_throughput reports it). A learning
// step's latency includes the training it triggers.
//
// Outside the timed calls, every CheckEvery-th round and the first round
// after each publish re-predicts one rotating tenant's row with a per-call
// Session::nn on the same snapshot; it must equal the batched prediction
// bitwise, and the checker's servingVersion must equal modelVersion.
//
// Training every 64 recorded samples (rather than every few hundred) makes
// the training steps 1.6% of the learning steps, so learn_step_p99_us is the
// latency of a step that trains and publishes, and moves with it.
//
// Why this workload: it measures the Engine batcher, replica refresh,
// snapshot publication, SL training and model-file load, and bypasses
// QLearner and conv. On a 4-vCPU guest, batched serving of 16 tenants ran
// 150-170k calls/s at the default pool and 230-290k at AU_NN_THREADS=1.
//
// Which per-layer metric should move which end-to-end metric here:
//  - engine.nn_batch_sessions_us        -> deploy_steps_per_s,
//                                          deploy_step_p50_us
//  - engine.refresh_call_us             -> deploy_step_p99_us
//  - engine.train_supervised_ms,
//    engine.publishes                   -> learn_steps_per_s,
//                                          learn_step_p99_us
//  - core.nn_record_us                  -> learn_step_p50_us
//  - engine.config_load_ms              -> setup_s
//  - engine.version_lag                 -> must stay 0 (a correctness gauge)
//
//===----------------------------------------------------------------------===//

#include "Workload.h"

#include "core/Engine.h"
#include "support/Rng.h"

#include <cmath>
#include <cstring>

using namespace perfbench;
using namespace au;

namespace {

constexpr int Tenants = 16;
constexpr int FeatDim = 128;
constexpr int OutDim = 8;
constexpr int BootSamples = 512;
constexpr int BootEpochs = 2;
constexpr int BatchSize = 32;
constexpr int Rounds = 1024;
constexpr int TrainEvery = 64;
constexpr int CheckEvery = 64;
/// Distinct input rows per tenant, cycled through the rounds.
constexpr int RingRows = 64;

const char *const ModelName = "served";

class ServeTenants final : public Generation {
public:
  ServeTenants(RunState &St, uint64_t Seed);
  void run() override;

private:
  const float *tenantRow(int T, int Round) const {
    size_t R = static_cast<size_t>((Round + T) % RingRows);
    return Inputs.data() +
           (static_cast<size_t>(T) * RingRows + R) * FeatDim;
  }
  /// The labeling function the trainer records (the "desirable values").
  void label(const float *X, float *Y) const;
  void deployRound(int Round);
  void learnStep(int Round);
  void checkRound(int Round);
  ModelConfig config() const;

  RunState &St;
  Tracer *const Tr;
  std::vector<float> Inputs;      ///< Tenants x RingRows x FeatDim.
  std::vector<float> TrainInputs; ///< RingRows x FeatDim.
  std::vector<float> Teacher;     ///< OutDim x FeatDim.
  std::unique_ptr<Engine> Eng;
  std::unique_ptr<Session> Trainer;
  std::unique_ptr<Session> Checker;
  std::vector<std::unique_ptr<Session>> Sessions;
  std::vector<Session *> Ptrs;
  NameId ModelId = InvalidNameId;
  NameId Feat = InvalidNameId;
  std::vector<WriteBackHandle> Outs;
  std::vector<NameId> ExtIds;
  std::vector<float> Preds = std::vector<float>(Tenants * OutDim);
  bool RefreshPending = false;
  long Publishes = 0;
  long CheckCount = 0;
};

ModelConfig ServeTenants::config() const {
  ModelConfig C;
  C.Name = ModelName;
  C.HiddenLayers = {256, 256};
  C.Seed = 42;
  return C;
}

void ServeTenants::label(const float *X, float *Y) const {
  for (int K = 0; K < OutDim; ++K) {
    float Acc = 0.0f;
    for (int J = 0; J < FeatDim; ++J)
      Acc += Teacher[static_cast<size_t>(K) * FeatDim + J] * X[J];
    Y[K] = std::tanh(Acc) + 0.1f * X[K] * X[K];
  }
}

ServeTenants::ServeTenants(RunState &St, uint64_t Seed)
    : St(St), Tr(St.Tr) {
  Rng R(Seed);
  auto Fill = [&R](std::vector<float> &V, size_t N, double Scale) {
    V.resize(N);
    for (float &X : V)
      X = static_cast<float>(R.uniform(-Scale, Scale));
  };
  Fill(Inputs, static_cast<size_t>(Tenants) * RingRows * FeatDim, 1.0);
  Fill(TrainInputs, static_cast<size_t>(RingRows) * FeatDim, 1.0);
  Fill(Teacher, static_cast<size_t>(OutDim) * FeatDim, 0.2);

  // Offline TR execution: record, train, persist.
  {
    Engine Boot(St.WorkDir);
    Session S(Boot, Mode::TR);
    S.config(config());
    NameId M = S.intern(ModelName);
    NameId F = S.intern("feat");
    std::vector<WriteBackHandle> O{{S.intern("out"), OutDim}};
    std::vector<float> X(FeatDim);
    float Y[OutDim];
    for (int I = 0; I < BootSamples; ++I) {
      for (float &V : X)
        V = static_cast<float>(R.uniform(-1.0, 1.0));
      S.extract(F, FeatDim, X.data());
      S.nn(M, F, O);
      label(X.data(), Y);
      S.writeBack(O[0].Name, OutDim, Y);
    }
    S.trainSupervised(ModelName, BootEpochs, BatchSize);
    St.Chk.check(S.saveModel(ModelName), "serve_tenants: model save failed");
  }

  // Deployment: au_config in TS loads the saved model into a fresh Engine
  // and publishes it for the shared-inference readers.
  Eng = std::make_unique<Engine>(St.WorkDir);
  {
    Session Loader(*Eng, Mode::TS);
    SpanScope S(Tr, LConfigLoad);
    Loader.config(config());
  }
  ModelId = Eng->intern(ModelName);
  Feat = Eng->intern("feat");
  Outs = {{Eng->intern("out"), OutDim}};
  St.Chk.check(Eng->modelVersion(ModelId) > 0,
               "serve_tenants: loaded model was not published");

  Trainer = std::make_unique<Session>(*Eng, Mode::TR);
  Trainer->config(config());
  Checker = std::make_unique<Session>(*Eng, Mode::TS);
  Checker->setSharedInference(true);
  for (int T = 0; T < Tenants; ++T) {
    Sessions.push_back(std::make_unique<Session>(*Eng, Mode::TS));
    Ptrs.push_back(Sessions.back().get());
  }
  ExtIds.assign(Tenants, Feat);
}

void ServeTenants::deployRound(int Round) {
  {
    Window Win(St.Deploy);
    Iteration It(St, St.Deploy, PDeploy, Tenants);
    for (int T = 0; T < Tenants; ++T) {
      SpanScope S(Tr, LExtract);
      Sessions[static_cast<size_t>(T)]->extract(Feat, FeatDim,
                                                tenantRow(T, Round));
    }
    {
      SpanScope S(Tr, RefreshPending ? LRefreshCall : LNnBatchSessions);
      Eng->nnBatchSessions(ModelId, Ptrs.data(), ExtIds.data(), Tenants, Outs);
    }
    for (int T = 0; T < Tenants; ++T) {
      SpanScope S(Tr, LWriteBack);
      Sessions[static_cast<size_t>(T)]->writeBack(
          Outs[0].Name, OutDim, Preds.data() + static_cast<size_t>(T) * OutDim);
    }
  }
  for (int T = 0; T < Tenants; ++T) {
    const float *P = Preds.data() + static_cast<size_t>(T) * OutDim;
    bool Finite = true;
    for (int K = 0; K < OutDim; ++K)
      Finite = Finite && std::isfinite(P[K]);
    St.Chk.check(Finite, "serve_tenants: non-finite prediction");
  }
}

void ServeTenants::checkRound(int Round) {
  // Re-predict one rotating tenant's row per call, on the snapshot the
  // batched call just served (nothing publishes in between).
  int T = static_cast<int>(CheckCount++ % Tenants);
  float Ref[OutDim];
  Checker->extract(Feat, FeatDim, tenantRow(T, Round));
  Checker->nn(ModelId, Feat, Outs);
  Checker->writeBack(Outs[0].Name, OutDim, Ref);
  St.Chk.check(std::memcmp(Ref, Preds.data() + static_cast<size_t>(T) * OutDim,
                           sizeof(Ref)) == 0,
               "serve_tenants: batched prediction differs from per-call");
  double Lag = static_cast<double>(Eng->modelVersion(ModelId)) -
               static_cast<double>(Checker->servingVersion(ModelId));
  St.maximum("engine.version_lag", Lag);
  St.Chk.check(Lag == 0.0, "serve_tenants: serving version lags the model");
}

void ServeTenants::learnStep(int Round) {
  float Y[OutDim];
  const float *X =
      TrainInputs.data() + static_cast<size_t>(Round % RingRows) * FeatDim;
  label(X, Y);
  Window Win(St.Learn);
  Iteration It(St, St.Learn, PLearn, 1);
  {
    SpanScope S(Tr, LExtract);
    Trainer->extract(Feat, FeatDim, X);
  }
  {
    SpanScope S(Tr, LNnRecord);
    Trainer->nn(ModelId, Feat, Outs);
    Trainer->writeBack(Outs[0].Name, OutDim, Y);
  }
  if (Round % TrainEvery == TrainEvery - 1) {
    SpanScope S(Tr, LTrainSupervised);
    Trainer->trainSupervised(ModelName, 1, BatchSize);
    ++Publishes;
    RefreshPending = true;
  }
}

void ServeTenants::run() {
  for (int Round = 0; Round < Rounds; ++Round) {
    deployRound(Round);
    if (RefreshPending || Round % CheckEvery == 0) {
      checkRound(Round);
      RefreshPending = false;
    }
    learnStep(Round);
  }
  St.count("engine.publishes", static_cast<double>(Publishes));
  St.count("engine.batch_calls", Rounds);
  St.count("engine.rows", static_cast<double>(Rounds) * Tenants);
}

} // namespace

std::unique_ptr<Generation> perfbench::makeServeTenants(RunState &St,
                                                        uint64_t GenSeed) {
  return std::make_unique<ServeTenants>(St, GenSeed);
}
