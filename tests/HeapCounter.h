//===- tests/HeapCounter.h - Global allocation counter ---------*- C++ -*-===//
//
// Part of the Autonomizer reproduction (PLDI '19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every heap allocation in a test binary that links HeapCounter.cpp ticks
/// one global counter, so a test can prove a region performs zero
/// allocations (the workspace arena's steady-state contract). Replacing the
/// global operators is the only way to observe allocations made inside the
/// library. They live in their own translation unit so that the compiler
/// never inlines their malloc/free into a caller's new-expression, where it
/// could no longer tell that the pair matches.
///
//===----------------------------------------------------------------------===//

#ifndef AU_TESTS_HEAPCOUNTER_H
#define AU_TESTS_HEAPCOUNTER_H

/// Heap allocations (operator new and new[]) made so far by this process.
long heapAllocs();

#endif // AU_TESTS_HEAPCOUNTER_H
