// Build smoke test: every module links and the trivial paths work.

#include <gtest/gtest.h>

#include "analysis/message_load.hpp"
#include "chord/id_assignment.hpp"
#include "chord/ring_view.hpp"
#include "common/sha1.hpp"
#include "dat/tree.hpp"
#include "gma/producer.hpp"
#include "maan/attribute.hpp"
#include "net/sim_transport.hpp"
#include "netio/netio_network.hpp"
#include "sim/engine.hpp"
#include "trace/cpu_trace.hpp"

namespace {

using namespace dat;

TEST(Smoke, Sha1KnownVector) {
  EXPECT_EQ(Sha1::hex(Sha1::digest("abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Smoke, BalancedTreeOnEvenRing) {
  const IdSpace space(16);
  chord::RingView ring(space, chord::even_ids(space, 256));
  const core::Tree tree(ring, 0, chord::RoutingScheme::kBalanced);
  EXPECT_LE(tree.max_branching(), 2u);
  EXPECT_LE(tree.height(), 8u);
  EXPECT_TRUE(tree.all_reach_root());
}

}  // namespace
