//===- tests/OneLane.h - One-lane RL calls for tests -----------*- C++ -*-===//
//
// Part of the Autonomizer reproduction (PLDI '19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests that drive an RL model or a Q-learner one state at a time, without
/// a Session around it, step lane 0 of the fused actor API: the same calls
/// a single session's au_NN makes (DESIGN.md §8).
///
//===----------------------------------------------------------------------===//

#ifndef AU_TESTS_ONELANE_H
#define AU_TESTS_ONELANE_H

#include "core/Model.h"
#include "nn/QLearner.h"

#include <cstdint>
#include <vector>

namespace au {
namespace onelane {

/// One au_NN step of a single session's RL loop: RlModel::stepActors with
/// K = 1. Returns the chosen action.
inline int step(RlModel &M, const std::vector<float> &State, float Reward,
                bool Terminal, const WriteBackSpec &Out, bool Learning) {
  uint8_t Term = Terminal ? 1 : 0;
  int Action = -1;
  M.stepActors(State.data(), /*K=*/1, static_cast<int>(State.size()), &Reward,
               &Term, Out, Learning, &Action);
  return Action;
}

/// Lane 0's epsilon-greedy action for \p State (greedy when not
/// \p Learning).
inline int selectAction(nn::QLearner &Q, const std::vector<float> &State,
                        bool Learning) {
  int Action = -1;
  Q.selectActionsBatch(State.data(), /*K=*/1, static_cast<int>(State.size()),
                       Learning, &Action);
  return Action;
}

/// Records one transition on lane 0 and completes its tick.
inline void observe(nn::QLearner &Q, const std::vector<float> &State,
                    int Action, float Reward,
                    const std::vector<float> &NextState, bool Terminal) {
  Q.observeActor(0, State.data(), State.size(), Action, Reward,
                 NextState.data(), NextState.size(), Terminal);
  Q.finishTick(1);
}

} // namespace onelane
} // namespace au

#endif // AU_TESTS_ONELANE_H
