#include "simt/barrier.h"

#include <gtest/gtest.h>

#include "core/fusion.h"
#include "simt/device.h"

namespace simdx {
namespace {

TEST(BarrierSimTest, FitsCapacityCompletes) {
  const BarrierSimResult r = SimulateGlobalBarrier(/*grid=*/8, /*capacity=*/8);
  EXPECT_FALSE(r.deadlocked);
  EXPECT_EQ(r.starved_ctas, 0u);
}

TEST(BarrierSimTest, UnderCapacityCompletes) {
  const BarrierSimResult r = SimulateGlobalBarrier(4, 100, /*barriers=*/5);
  EXPECT_FALSE(r.deadlocked);
}

// The Figure 10 deadlock: one CTA more than the device can co-schedule and
// the barrier never completes.
TEST(BarrierSimTest, OneCtaOverCapacityDeadlocks) {
  const BarrierSimResult r = SimulateGlobalBarrier(9, 8);
  EXPECT_TRUE(r.deadlocked);
  EXPECT_EQ(r.starved_ctas, 1u);
}

TEST(BarrierSimTest, ManyOverCapacityDeadlocksWithStarvedCount) {
  const BarrierSimResult r = SimulateGlobalBarrier(100, 60);
  EXPECT_TRUE(r.deadlocked);
  EXPECT_EQ(r.starved_ctas, 40u);
}

TEST(BarrierSimTest, ZeroBarrierKernelNeverDeadlocks) {
  // Without an in-kernel barrier, queued CTAs start as residents retire —
  // over-subscription is fine (this is why non-fused execution is safe).
  const BarrierSimResult r = SimulateGlobalBarrier(1000, 8, /*barriers=*/0);
  EXPECT_FALSE(r.deadlocked);
}

TEST(BarrierSimTest, EmptyGridTrivial) {
  EXPECT_FALSE(SimulateGlobalBarrier(0, 8).deadlocked);
}

// Property sweep: grids sized by Eq. 1 never deadlock, grids one larger
// always do (for kernels with at least one barrier).
struct GridCase {
  uint32_t registers;
  uint32_t threads_per_cta;
};

class DeadlockFreeSweep : public ::testing::TestWithParam<GridCase> {};

TEST_P(DeadlockFreeSweep, Equation1GridIsSafeAndTight) {
  for (const DeviceSpec& device : {MakeK20(), MakeK40(), MakeP100()}) {
    const KernelResources kernel{GetParam().registers, GetParam().threads_per_cta};
    const uint32_t grid = DeadlockFreeGridSize(device, kernel);
    ASSERT_GT(grid, 0u) << device.name;
    EXPECT_FALSE(SimulateGlobalBarrier(grid, grid, 3).deadlocked) << device.name;
    EXPECT_TRUE(SimulateGlobalBarrier(grid + 1, grid, 3).deadlocked) << device.name;
  }
}

INSTANTIATE_TEST_SUITE_P(RegisterPressures, DeadlockFreeSweep,
                         ::testing::Values(GridCase{24, 128}, GridCase{48, 128},
                                           GridCase{50, 128}, GridCase{110, 128},
                                           GridCase{110, 256}, GridCase{32, 256},
                                           GridCase{64, 512}));

// Ties Eq. 1 to the fusion register model: the all-fusion kernel's safe grid
// on K40 is exactly the paper's 60-CTA example.
TEST(BarrierSimTest, AllFusionGridOnK40MatchesPaperExample) {
  const KernelResources res =
      ResourcesFor(FusionPolicy::kAllFusion, Direction::kPush, 128);
  EXPECT_EQ(res.registers_per_thread, 110u);
  EXPECT_EQ(DeadlockFreeGridSize(MakeK40(), res), 60u);
}

}  // namespace
}  // namespace simdx
