//===- nn/Layer.h - Neural network layer interface -------------*- C++ -*-===//
//
// Part of the Autonomizer reproduction (PLDI '19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The layer abstraction for the NN substrate. Every layer supports two
/// execution styles. The batched path (forwardBatch/backwardBatch over
/// rank-(N+1) tensors whose leading dimension is the minibatch) is the one
/// the trainers and the runtime run: the GEMM/im2col compute engine moves a
/// whole minibatch through the network in one call. The scalar path
/// (forward/backward on one sample, plain loops with no GEMM) is the
/// per-sample reference that the tests compare both engines against; the
/// library itself never calls it. A layer owns its parameters and the
/// gradient accumulators that the optimizers consume; both styles
/// accumulate into the same gradient buffers.
///
//===----------------------------------------------------------------------===//

#ifndef AU_NN_LAYER_H
#define AU_NN_LAYER_H

#include "nn/Tensor.h"

#include <cassert>
#include <cstddef>
#include <string>
#include <vector>

namespace au {
class Rng;
namespace nn {

/// A view of one parameter tensor and its gradient accumulator, handed to
/// optimizers. Both spans have \p Count elements.
struct ParamView {
  float *Values;
  float *Grads;
  size_t Count;
};

/// A layer's parameter tensors: none, or weights and bias. Held inline, so
/// listing a layer's parameters never allocates (DQN target syncs walk
/// them on the training hot path).
class ParamList {
public:
  ParamList() = default;
  ParamList(ParamView Weights, ParamView Bias) : Views{Weights, Bias}, N(2) {}

  const ParamView *begin() const { return Views; }
  const ParamView *end() const { return Views + N; }
  size_t size() const { return N; }
  const ParamView &operator[](size_t I) const {
    assert(I < N && "parameter index out of range");
    return Views[I];
  }

private:
  ParamView Views[2] = {};
  size_t N = 0;
};

/// Base class for all layers. Forward caches whatever backward needs, so a
/// layer instance processes one sample at a time (forward immediately
/// followed by the matching backward).
class Layer {
public:
  virtual ~Layer();

  /// Computes the layer output for \p In, caching activations for backward.
  /// Scalar test oracle for forwardBatch.
  virtual Tensor forward(const Tensor &In) = 0;

  /// Given dLoss/dOut, accumulates parameter gradients and returns
  /// dLoss/dIn. Must follow a forward() on the same sample.
  virtual Tensor backward(const Tensor &GradOut) = 0;

  /// Batched forward pass: \p In is a rank-(N+1) tensor whose leading
  /// dimension is the minibatch. Caches whatever backwardBatch needs for the
  /// whole batch. The batched caches are separate from the scalar ones, so a
  /// scalar forward() between a forwardBatch/backwardBatch pair is safe.
  virtual Tensor forwardBatch(const Tensor &In) = 0;

  /// Batched backward pass; must follow a forwardBatch() on the same batch.
  /// Accumulates the summed minibatch parameter gradients and returns
  /// dLoss/dIn with the same leading batch dimension.
  virtual Tensor backwardBatch(const Tensor &GradOut) = 0;

  /// Parameter tensors (empty for stateless layers such as ReLU).
  virtual ParamList params() { return {}; }

  /// Zeroes all gradient accumulators.
  void zeroGrads();

  /// Total number of trainable scalars.
  size_t numParams();

  /// Monotonic parameter version. Packed-weight caches (DESIGN.md §9) store
  /// the generation they were packed at and re-pack only when it moves.
  uint64_t paramGen() const { return ParamGen; }

  /// Records that this layer's parameters changed (optimizer step, parameter
  /// load/restore, direct mutation through the raw accessors).
  void bumpParamGen() { ++ParamGen; }

  /// Human-readable layer kind for diagnostics and serialization.
  virtual std::string kind() const = 0;

private:
  uint64_t ParamGen = 0;
};

} // namespace nn
} // namespace au

#endif // AU_NN_LAYER_H
