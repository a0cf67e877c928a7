// Software global barrier model (Section 5).
//
// A GPU has no device-wide barrier; the standard trick [Xiao & Feng] spins
// worker CTAs on a lock array while a monitor CTA flips it. That deadlocks
// whenever the grid holds more CTAs than can be simultaneously resident:
// resident CTAs never retire (they are spinning), so queued CTAs never
// start, so the barrier never completes (Figure 10).
//
// `BarrierScheduleSim` reproduces this mechanism as a discrete-event
// simulation: CTAs occupy residency slots, arrive at the barrier, and are
// only released when ALL grid CTAs have arrived. The simulation terminates
// with `deadlocked == true` exactly when the grid exceeds the residency
// capacity — the property SIMD-X's Eq.-1 grid sizing is designed to avoid.
#ifndef SIMDX_SIMT_BARRIER_H_
#define SIMDX_SIMT_BARRIER_H_

#include <cstdint>
#include <vector>

#include "simt/device.h"
#include "simt/occupancy.h"

namespace simdx {

struct BarrierSimResult {
  bool deadlocked = false;
  // Simulation steps until every CTA passed the barrier (meaningless if
  // deadlocked).
  uint64_t steps = 0;
  // CTAs that never obtained a residency slot (non-zero iff deadlocked).
  uint32_t starved_ctas = 0;
};

// Simulates `grid_ctas` CTAs executing one kernel containing `barriers`
// global-barrier crossings on a device with `resident_capacity` CTA slots.
BarrierSimResult SimulateGlobalBarrier(uint32_t grid_ctas, uint32_t resident_capacity,
                                       uint32_t barriers = 1);

// SIMD-X's compiler-style deadlock-free configuration: the largest grid that
// can safely contain a global barrier for this kernel on this device —
// exactly Eq. 1. Grids sized by this function never deadlock (asserted by
// tests across a parameter sweep).
uint32_t DeadlockFreeGridSize(const DeviceSpec& device, const KernelResources& kernel);

}  // namespace simdx

#endif  // SIMDX_SIMT_BARRIER_H_
