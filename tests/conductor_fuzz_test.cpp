// Fuzz the deterministic conductor with random interaction graphs: random
// local advances, random cross-rank event completions and waits. The
// virtual schedule must be identical across reruns and causally sound (no
// event observed before its completion time). The golden suite pins the
// action logs of these seeds (tests/golden/conductor_fuzz.txt).

#include <gtest/gtest.h>

#include "random_program.hpp"

namespace sim = tpio::sim;
using tpio::test::run_random_program;

namespace {

class ConductorFuzz : public testing::TestWithParam<std::uint64_t> {};

}  // namespace

TEST_P(ConductorFuzz, DeterministicRandomGraphs) {
  const auto a = run_random_program(GetParam(), 9, 12);
  const auto b = run_random_program(GetParam(), 9, 12);
  EXPECT_EQ(a.entries, b.entries);
}

TEST_P(ConductorFuzz, CommittedActionsNondecreasing) {
  const auto log = run_random_program(GetParam() ^ 0x5EED, 7, 10);
  sim::Time prev = 0;
  for (const auto& [rank, step, t] : log.entries) {
    EXPECT_GE(t, prev) << "action committed out of virtual-time order";
    prev = t;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConductorFuzz,
                         testing::Values(101u, 202u, 303u, 404u, 505u));
