//===- nn/Optimizer.h - Gradient-descent optimizers ------------*- C++ -*-===//
//
// Part of the Autonomizer reproduction (PLDI '19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Optimizers realizing the semantics' gradient() statement extension:
/// plain SGD and Adam (Kingma & Ba), the paper's "AdamOpt" algorithm for
/// supervised learning. An optimizer is bound to a network's parameter views
/// and applies the accumulated gradients on each step().
///
//===----------------------------------------------------------------------===//

#ifndef AU_NN_OPTIMIZER_H
#define AU_NN_OPTIMIZER_H

#include "nn/Layer.h"

#include <vector>

namespace au {
namespace nn {

class Network;

/// Base optimizer interface over a fixed set of parameter views.
class Optimizer {
public:
  virtual ~Optimizer();

  /// Applies the currently accumulated gradients, scaled by 1/BatchSize,
  /// then zeroes them.
  virtual void step(double BatchScale = 1.0) = 0;
};

/// Stochastic gradient descent with optional momentum.
class Sgd : public Optimizer {
public:
  Sgd(Network &Net, double LearningRate, double Momentum = 0.0);
  void step(double BatchScale) override;

private:
  Network *Net; ///< For parameter-generation bumps on step().
  std::vector<ParamView> Params;
  double Lr;
  double Mu;
  std::vector<std::vector<float>> Velocity;
};

/// Adam optimizer (the paper's AdamOpt).
class Adam : public Optimizer {
public:
  Adam(Network &Net, double LearningRate, double Beta1 = 0.9,
       double Beta2 = 0.999, double Eps = 1e-8);
  void step(double BatchScale) override;

  /// Adjusts the step size (used for learning-rate schedules).
  void setLearningRate(double LearningRate) { Lr = LearningRate; }
  double learningRate() const { return Lr; }

  /// The first and second moments of parameter tensor \p T, in the order
  /// of Network::params(). No element is ever subnormal (adamUpdateKernel).
  const std::vector<float> &firstMoments(size_t T) const { return M[T]; }
  const std::vector<float> &secondMoments(size_t T) const { return V[T]; }

private:
  Network *Net; ///< For parameter-generation bumps on step().
  std::vector<ParamView> Params;
  double Lr, B1, B2, Eps;
  long Step = 0;
  std::vector<std::vector<float>> M;
  std::vector<std::vector<float>> V;
};

} // namespace nn
} // namespace au

#endif // AU_NN_OPTIMIZER_H
