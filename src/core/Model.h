//===- core/Model.h - Model store entries (theta) --------------*- C++ -*-===//
//
// Part of the Autonomizer reproduction (PLDI '19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The model abstraction behind the model store theta. A model is created by
/// au_config and built lazily once the runtime has seen the data that fixes
/// the input and output layer sizes (the paper: "the size of the input and
/// output layers is automatically computed based on the input fed to the
/// network and the output to be predicted").
///
/// Two concrete kinds realize the two algorithms: SlModel (AdamOpt
/// regression over collected (feature, target) samples, trained offline
/// after execution) and RlModel (online Q-learning driven by the au_NN
/// reward/terminal arguments). An RlModel has one au_NN step, stepActors
/// over K actor lanes; a single session's au_NN is its one-lane case.
/// Dispatch uses an LLVM-style kind tag.
///
//===----------------------------------------------------------------------===//

#ifndef AU_CORE_MODEL_H
#define AU_CORE_MODEL_H

#include "core/Config.h"
#include "nn/QLearner.h"
#include "nn/Supervised.h"

#include <memory>
#include <string>
#include <vector>

namespace au {

/// One declared model output: for SL the number of predicted floats under
/// this name; for RL the number of discrete actions (the paper's
/// au_write_back("output", 5, actionKey)).
struct WriteBackSpec {
  std::string Name;
  int Size = 1;
};

namespace nn {
class Network;
}

/// An immutable copy of a model's trainable parameters and normalization
/// statistics, published by the Engine so concurrent TS-mode readers serve
/// inference from a consistent version while the live model keeps training
/// (DESIGN.md §10). Snapshots are never mutated after publication; readers
/// hold them via shared_ptr<const ParamSnapshot>.
struct ParamSnapshot {
  uint64_t Version = 0; ///< Monotone publication counter (1 = first).
  int InSize = 0;
  int OutSize = 0;
  /// One vector per ParamView of the source network, in params() order.
  std::vector<std::vector<float>> Params;
  std::vector<float> XMean, XStd, YMean, YStd;

  /// Copies the captured parameters into \p Net (which must have the same
  /// architecture) and invalidates its packed-weight caches. Returns false
  /// on a shape mismatch.
  bool installInto(nn::Network &Net) const;
};

/// Base class for model-store entries.
class Model {
public:
  enum class KindTy { Supervised, Reinforcement };

  virtual ~Model();

  KindTy kind() const { return Kind; }
  const ModelConfig &config() const { return Cfg; }
  bool isBuilt() const { return Built; }
  int inputSize() const { return InSize; }

  /// Declared outputs (fixed at build time).
  const std::vector<WriteBackSpec> &outputs() const { return Outs; }

  /// Serialized parameter footprint in bytes (Table 2 "Model Size").
  virtual size_t modelSizeBytes() = 0;

  /// Total trainable parameters.
  virtual size_t numParams() = 0;

  /// Persists the model (architecture + parameters + statistics) to
  /// \p Path; returns false on I/O failure.
  virtual bool save(const std::string &Path) = 0;

  /// Loads a model persisted by save(); returns false on failure.
  virtual bool load(const std::string &Path) = 0;

  /// Captures the current parameters into \p S for snapshot publication.
  /// Returns false when the model kind does not support snapshot serving
  /// (RL models serve through the live learner) or the model is unbuilt.
  virtual bool captureParams(ParamSnapshot &S) {
    (void)S;
    return false;
  }

protected:
  Model(KindTy K, ModelConfig C) : Kind(K), Cfg(std::move(C)) {}

  /// Builds the underlying network for \p InputSize, per the type in \p C
  /// (DNN or DeepMind-style CNN over its frame geometry). Takes the config
  /// explicitly so a load can build from a file's config before adopting it.
  static nn::Network makeNetwork(const ModelConfig &C, int InputSize,
                                 int OutSize, Rng &Rand);

  KindTy Kind;
  ModelConfig Cfg;
  bool Built = false;
  int InSize = 0;
  std::vector<WriteBackSpec> Outs;
};

/// Supervised (AdamOpt) model: collects samples during TR runs, trains
/// offline, predicts during TS runs.
class SlModel : public Model {
public:
  explicit SlModel(ModelConfig C);

  static bool classof(const Model *M) {
    return M->kind() == KindTy::Supervised;
  }

  /// Records one complete training example; builds the network on first
  /// use. \p Y is the concatenation of all declared outputs in order.
  void addSample(const std::vector<float> &X, const std::vector<float> &Y,
                 const std::vector<WriteBackSpec> &Outputs);

  /// Offline training (the SL TR regime). Returns final mean loss.
  double train(int Epochs, int BatchSize);

  /// Predicts the concatenated outputs for features \p X. Requires a built
  /// (trained or loaded) model.
  std::vector<float> predict(const std::vector<float> &X);

  /// Batched TS inference over \p Rows feature vectors stored back to back
  /// in \p Xs (Rows x inputSize, row-major); \p Out receives Rows x
  /// totalOutputSize predictions. Routes through the batched forwardBatch
  /// engine with reusable staging, so the primitive hot path makes no
  /// per-call allocations. Rows == 1 is the single-call au_NN fast path.
  void predictRows(const float *Xs, int Rows, std::vector<float> &Out);

  size_t numSamples() const;
  size_t modelSizeBytes() override;
  size_t numParams() override;
  bool save(const std::string &Path) override;
  bool load(const std::string &Path) override;

  /// Copies the trained parameters and normalization into \p S. Must be
  /// called from the thread that owns the live model (the trainer).
  bool captureParams(ParamSnapshot &S) override;

  /// Builds an independent inference-only trainer from a published
  /// snapshot: same architecture, snapshot parameters, snapshot
  /// normalization. Touches none of the live training state, so replicas
  /// can be created while the live model trains. Returns null on an
  /// architecture/snapshot mismatch.
  std::unique_ptr<nn::SupervisedTrainer>
  makeReplica(const ParamSnapshot &S) const;

private:
  int totalOutputSize() const;

  std::unique_ptr<nn::SupervisedTrainer> Trainer;
  Rng Rand;
};

/// Reinforcement (Q-learning) model: online training interleaved with
/// software execution.
class RlModel : public Model {
public:
  explicit RlModel(ModelConfig C);

  static bool classof(const Model *M) {
    return M->kind() == KindTy::Reinforcement;
  }

  /// Grows the model to \p NumActors actor lanes, each with its own
  /// transition chain, and shards the learner's replay per actor
  /// (DESIGN.md §8). Every model starts with one lane, the one a single
  /// session's au_NN steps. May be called before the model is built; the
  /// learner is configured at build time.
  void configureActors(int NumActors);

  int numActors() const { return NumActorsCfg; }

  /// The one RL au_NN step, for \p K concurrent actors (K = 1 for a single
  /// session). \p States holds the K extracted states back to back (K x D
  /// row-major); \p Rewards and \p Terminals are per-actor. Per-actor
  /// completed transitions are observed in actor order, one finishTick
  /// advances the global training schedule, and the K action selections
  /// share one batched forward; \p ActionsOut receives the K chosen
  /// actions. Terminal states end their lane's chain, so a following
  /// au_restore starts cleanly. Builds the network on first use from \p D
  /// and \p Output. When \p Learning, K must equal the configured actor
  /// count; deployment-mode calls (evaluation) may use any K and never
  /// disturb the training chains.
  void stepActors(const float *States, int K, int D, const float *Rewards,
                  const uint8_t *Terminals, const WriteBackSpec &Output,
                  bool Learning, int *ActionsOut);

  /// Q-values for diagnostics.
  std::vector<float> qValues(const std::vector<float> &State);

  nn::QLearner *learner() { return Learner.get(); }

  /// Overrides the default Q hyperparameters; must precede the first step.
  void setQConfig(const nn::QConfig &C);

  size_t modelSizeBytes() override;
  size_t numParams() override;
  bool save(const std::string &Path) override;
  bool load(const std::string &Path) override;

private:
  void build(int InputSize, const WriteBackSpec &Output);

  /// A fresh learner for \p C's network over \p InputSize inputs and
  /// \p Actions actions; touches no member but the Q and actor settings.
  std::unique_ptr<nn::QLearner> makeLearner(const ModelConfig &C,
                                            int InputSize, int Actions) const;

  std::unique_ptr<nn::QLearner> Learner;
  nn::QConfig QCfg;
  // One transition chain per actor lane.
  int NumActorsCfg = 0;
  std::vector<std::vector<float>> ActorPrevStates;
  std::vector<int> ActorPrevActions;
  std::vector<uint8_t> ActorHavePrev;
};

} // namespace au

#endif // AU_CORE_MODEL_H
