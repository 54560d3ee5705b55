// Debug allocation counting.
//
// The zero-allocation hot-path work (DESIGN.md §6i) needs an oracle: a way
// for tests and benches to assert that a steady-state simulation loop makes
// NO heap allocations. This hook provides it by replacing the global
// operator new/delete with counting forwarders to malloc/free.
//
// Linking behavior is deliberate: the replacement operators live in
// alloc_hook.cpp next to the counter accessors, so a binary only gets the
// counting allocator if it references one of the functions below (the
// archive member is pulled in as a unit). Binaries that never ask for a
// count keep the stock allocator.
//
// Under ASan/TSan/MSan the replacement is compiled out entirely — the
// sanitizer runtimes own the allocator there — and alloc_counting_available()
// reports false so tests can skip their zero-allocation asserts instead of
// reading counters frozen at zero.
//
// Counting is a single relaxed atomic increment per allocation: cheap enough
// to leave on, exact enough to assert `== 0` against.
#pragma once

#include <cstdint>

namespace itb::sim {

/// True when the counting operator new/delete replacement is compiled in
/// (false under sanitizers). When false every counter below stays zero.
bool alloc_counting_available();

/// Heap allocations since process start (all threads).
std::uint64_t total_allocations();

/// Declare "warmup is over": remembers the current allocation count as the
/// steady-state mark. Benches call this after their warmup phase;
/// allocations_since_mark() then reports growth past the mark only.
void mark_steady_state();
bool steady_state_marked();

/// Allocations since mark_steady_state() — the number that must be zero in
/// an allocation-free steady state. Zero when no mark was set.
std::uint64_t allocations_since_mark();

}  // namespace itb::sim
