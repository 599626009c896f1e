// Tests for the simulated message-passing runtime: point-to-point semantics,
// collectives, virtual clocks, statistics, and failure propagation.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <string>
#include <thread>

#include "netsim/collectives.hpp"
#include "netsim/fabric.hpp"
#include "resil/recovery.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/runtime.hpp"

namespace hetero::simmpi {
namespace {

netsim::Topology test_topology(int ranks, int ranks_per_node = 2) {
  return netsim::Topology::uniform(ranks, ranks_per_node,
                                   netsim::Fabric::gigabit_ethernet(),
                                   netsim::Fabric::shared_memory());
}

TEST(Runtime, RingPassesTokenAround) {
  Runtime rt(test_topology(4));
  std::atomic<int> final_token{0};
  rt.run([&](Comm& comm) {
    const int next = (comm.rank() + 1) % comm.size();
    const int prev = (comm.rank() + comm.size() - 1) % comm.size();
    if (comm.rank() == 0) {
      comm.send(std::vector<std::int64_t>{1}, next, 0);
      const auto got = comm.recv<std::int64_t>(prev, 0);
      final_token.store(static_cast<int>(got[0]));
    } else {
      const auto got = comm.recv<std::int64_t>(prev, 0);
      comm.send(std::vector<std::int64_t>{got[0] + 1}, next, 0);
    }
  });
  EXPECT_EQ(final_token.load(), 4);
}

TEST(Runtime, MessagesMatchOnSourceAndTag) {
  Runtime rt(test_topology(2));
  rt.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(std::vector<double>{1.0}, 1, 10);
      comm.send(std::vector<double>{2.0}, 1, 20);
      comm.send(std::vector<double>{3.0}, 1, 10);
    } else {
      // Receive out of send order by tag.
      const auto b = comm.recv<double>(0, 20);
      const auto a1 = comm.recv<double>(0, 10);
      const auto a2 = comm.recv<double>(0, 10);
      EXPECT_DOUBLE_EQ(b[0], 2.0);
      // Non-overtaking within the same (source, tag).
      EXPECT_DOUBLE_EQ(a1[0], 1.0);
      EXPECT_DOUBLE_EQ(a2[0], 3.0);
    }
  });
}

TEST(Runtime, ReceiveClockRespectsTransferTime) {
  auto topo = test_topology(2, 1);  // ranks on different nodes
  const double wire = topo.message_time(0, 1, 8 * 1024);
  Runtime rt(std::move(topo));
  rt.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<double> payload(1024, 1.0);  // 8 KiB
      comm.send(payload, 1, 0);
    } else {
      const auto got = comm.recv<double>(0, 0);
      EXPECT_EQ(got.size(), 1024u);
      // Receiver time must be at least the wire time of the payload.
      EXPECT_GE(comm.now(), wire * 0.99);
    }
  });
}

TEST(Runtime, ComputeAdvancesOnlyLocalClock) {
  Runtime rt(test_topology(2));
  rt.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.compute(5.0);
      EXPECT_NEAR(comm.now(), 5.0, 1e-12);
    } else {
      EXPECT_DOUBLE_EQ(comm.now(), 0.0);
    }
  });
  EXPECT_GE(rt.elapsed_sim_seconds(), 5.0);
}

TEST(Runtime, BarrierSynchronizesClocks) {
  Runtime rt(test_topology(4));
  rt.run([&](Comm& comm) {
    comm.compute(comm.rank() == 2 ? 7.0 : 0.5);
    comm.barrier();
    // Everyone leaves at (or after) the slowest rank's entry time.
    EXPECT_GE(comm.now(), 7.0);
  });
}

TEST(Runtime, BcastDeliversRootPayload) {
  Runtime rt(test_topology(5));
  rt.run([&](Comm& comm) {
    std::vector<std::int64_t> data;
    if (comm.rank() == 2) {
      data = {42, 43, 44};
    }
    comm.bcast(data, 2);
    ASSERT_EQ(data.size(), 3u);
    EXPECT_EQ(data[0], 42);
    EXPECT_EQ(data[2], 44);
  });
}

TEST(Runtime, AllreduceSumMinMax) {
  Runtime rt(test_topology(4));
  rt.run([&](Comm& comm) {
    const double r = comm.rank() + 1.0;  // 1..4
    EXPECT_DOUBLE_EQ(comm.allreduce(r, ReduceOp::kSum), 10.0);
    EXPECT_DOUBLE_EQ(comm.allreduce(r, ReduceOp::kMin), 1.0);
    EXPECT_DOUBLE_EQ(comm.allreduce(r, ReduceOp::kMax), 4.0);
    const std::int64_t i = comm.rank();
    EXPECT_EQ(comm.allreduce(i, ReduceOp::kSum), 6);
  });
}

TEST(Runtime, AllreduceVectorIsElementwise) {
  Runtime rt(test_topology(3));
  rt.run([&](Comm& comm) {
    const std::vector<double> in{1.0 * comm.rank(), 10.0};
    const auto out = comm.allreduce(std::span<const double>(in),
                                    ReduceOp::kSum);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_DOUBLE_EQ(out[0], 0.0 + 1.0 + 2.0);
    EXPECT_DOUBLE_EQ(out[1], 30.0);
  });
}

TEST(Runtime, AllgathervConcatenatesByRank) {
  Runtime rt(test_topology(3));
  rt.run([&](Comm& comm) {
    // Rank r contributes r+1 entries of value r.
    std::vector<std::int64_t> mine(static_cast<std::size_t>(comm.rank() + 1),
                                   comm.rank());
    const auto all = comm.allgatherv(mine);
    ASSERT_EQ(all.size(), 6u);  // 1+2+3
    EXPECT_EQ(all[0], 0);
    EXPECT_EQ(all[1], 1);
    EXPECT_EQ(all[2], 1);
    EXPECT_EQ(all[3], 2);
    EXPECT_EQ(all[5], 2);
  });
}

TEST(Runtime, AlltoallvRoutesBlocksCorrectly) {
  Runtime rt(test_topology(4));
  rt.run([&](Comm& comm) {
    // Block for rank d holds value 100*me + d, repeated (d+1) times.
    std::vector<std::vector<std::int64_t>> out(4);
    for (int d = 0; d < 4; ++d) {
      out[static_cast<std::size_t>(d)].assign(
          static_cast<std::size_t>(d + 1), 100 * comm.rank() + d);
    }
    const auto in = comm.alltoallv(out);
    ASSERT_EQ(in.size(), 4u);
    for (int s = 0; s < 4; ++s) {
      const auto& block = in[static_cast<std::size_t>(s)];
      ASSERT_EQ(block.size(), static_cast<std::size_t>(comm.rank() + 1));
      for (auto v : block) {
        EXPECT_EQ(v, 100 * s + comm.rank());
      }
    }
  });
}

TEST(Runtime, AlltoallvHandlesEmptyBlocks) {
  Runtime rt(test_topology(3));
  rt.run([&](Comm& comm) {
    std::vector<std::vector<double>> out(3);
    if (comm.rank() == 0) {
      out[2] = {3.14};
    }
    const auto in = comm.alltoallv(out);
    if (comm.rank() == 2) {
      ASSERT_EQ(in[0].size(), 1u);
      EXPECT_DOUBLE_EQ(in[0][0], 3.14);
    } else {
      for (const auto& b : in) {
        EXPECT_TRUE(b.empty());
      }
    }
  });
}

TEST(Runtime, AlltoallvFromFlatBufferMatchesBlocks) {
  Runtime rt(test_topology(3));
  rt.run([&](Comm& comm) {
    // Block d holds d + rank values; rank 0 sends nothing to rank 0.
    std::vector<std::vector<double>> blocks(3);
    std::vector<double> flat;
    std::vector<std::size_t> offsets{0};
    for (int d = 0; d < 3; ++d) {
      for (int i = 0; i < d + comm.rank(); ++i) {
        blocks[static_cast<std::size_t>(d)].push_back(10.0 * comm.rank() + d +
                                                      0.1 * i);
      }
      flat.insert(flat.end(), blocks[static_cast<std::size_t>(d)].begin(),
                  blocks[static_cast<std::size_t>(d)].end());
      offsets.push_back(flat.size());
    }
    const double t0 = comm.now();
    const auto from_blocks = comm.alltoallv(blocks);
    const double t1 = comm.now();
    const auto from_flat = comm.alltoallv(flat, offsets);
    // Same payload, same modeled cost.
    EXPECT_EQ(from_flat, from_blocks);
    EXPECT_DOUBLE_EQ(comm.now() - t1, t1 - t0);
    offsets.pop_back();
    EXPECT_THROW(comm.alltoallv(flat, offsets), Error);
  });
}

TEST(Runtime, IrecvMatchesLikeBlockingRecv) {
  Runtime rt(test_topology(2));
  rt.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(std::vector<double>{1.0}, 1, 5);
      comm.send(std::vector<double>{2.0}, 1, 6);
    } else {
      // Post both requests before any completes, wait out of order.
      auto r5 = comm.irecv<double>(0, 5);
      auto r6 = comm.irecv<double>(0, 6);
      EXPECT_TRUE(r5.valid());
      const auto b = r6.wait();
      const auto a = r5.wait();
      EXPECT_DOUBLE_EQ(a[0], 1.0);
      EXPECT_DOUBLE_EQ(b[0], 2.0);
      EXPECT_FALSE(r5.valid());
      EXPECT_THROW(r5.wait(), Error);  // consumed
    }
  });
}

TEST(Runtime, SendrecvExchangesBetweenNeighbours) {
  Runtime rt(test_topology(4));
  rt.run([&](Comm& comm) {
    const int right = (comm.rank() + 1) % comm.size();
    const int left = (comm.rank() + comm.size() - 1) % comm.size();
    const std::vector<std::int64_t> mine{comm.rank()};
    const auto got =
        comm.sendrecv(std::span<const std::int64_t>(mine), right, 3, left, 3);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], left);
  });
}

TEST(Runtime, GathervConcentratesAtRoot) {
  Runtime rt(test_topology(3));
  rt.run([&](Comm& comm) {
    std::vector<std::int64_t> mine(static_cast<std::size_t>(comm.rank() + 1),
                                   comm.rank() * 10);
    const auto all = comm.gatherv(mine, 1);
    if (comm.rank() == 1) {
      ASSERT_EQ(all.size(), 6u);  // 1 + 2 + 3
      EXPECT_EQ(all[0], 0);
      EXPECT_EQ(all[1], 10);
      EXPECT_EQ(all[3], 20);
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST(Runtime, ScattervDistributesRootBlocks) {
  Runtime rt(test_topology(3));
  rt.run([&](Comm& comm) {
    std::vector<std::vector<double>> blocks;
    if (comm.rank() == 2) {
      blocks = {{0.5}, {1.5, 1.6}, {}};
    }
    const auto mine = comm.scatterv(blocks, 2);
    switch (comm.rank()) {
      case 0:
        ASSERT_EQ(mine.size(), 1u);
        EXPECT_DOUBLE_EQ(mine[0], 0.5);
        break;
      case 1:
        ASSERT_EQ(mine.size(), 2u);
        EXPECT_DOUBLE_EQ(mine[1], 1.6);
        break;
      default:
        EXPECT_TRUE(mine.empty());
    }
  });
}

TEST(Runtime, ScattervValidatesRootBlockCount) {
  Runtime rt(test_topology(2));
  EXPECT_THROW(rt.run([&](Comm& comm) {
                 std::vector<std::vector<double>> blocks{{1.0}};  // need 2
                 comm.scatterv(blocks, comm.rank() == 0 ? 0 : 0);
               }),
               Error);
}

TEST(Runtime, CollectivesAreRepeatable) {
  Runtime rt(test_topology(4));
  rt.run([&](Comm& comm) {
    for (int round = 0; round < 50; ++round) {
      const double s =
          comm.allreduce(static_cast<double>(comm.rank() + round),
                         ReduceOp::kSum);
      EXPECT_DOUBLE_EQ(s, 6.0 + 4.0 * round);
    }
  });
}

TEST(Runtime, StatsCountTraffic) {
  Runtime rt(test_topology(2));
  rt.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(std::vector<double>(100, 1.0), 1, 0);
    } else {
      comm.recv<double>(0, 0);
    }
    comm.barrier();
  });
  EXPECT_EQ(rt.stats(0).messages_sent, 1u);
  EXPECT_EQ(rt.stats(0).bytes_sent, 800u);
  EXPECT_EQ(rt.stats(1).messages_received, 1u);
  EXPECT_EQ(rt.stats(1).bytes_received, 800u);
  EXPECT_EQ(rt.stats(0).collectives, 1u);
  EXPECT_GT(rt.stats(1).comm_seconds, 0.0);
}

TEST(Runtime, RankFailureAbortsTheJob) {
  Runtime rt(test_topology(3));
  EXPECT_THROW(rt.run([&](Comm& comm) {
                 if (comm.rank() == 1) {
                   throw Error("rank 1 exploded");
                 }
                 // Other ranks block; the abort must wake them.
                 comm.recv<double>((comm.rank() + 1) % 3, 99);
               }),
               Error);
}

TEST(Runtime, AbortedSurvivorsStopWhereTheyNeedAnExitedRank) {
  // Where a survivor stops after an abort must not depend on thread
  // timing. Both survivors reach their receives only after rank 2 has
  // failed, yet both messages arrive: rank 2 sent its one before failing,
  // and rank 0 is alive to send its own. Each survivor then stops at the
  // barrier rank 2 can no longer join.
  Runtime rt(test_topology(3));
  try {
    rt.run([&](Comm& comm) {
      if (comm.rank() == 2) {
        comm.send(std::vector<double>{1.0}, 0, 5);
        throw Error("rank 2 exploded");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      if (comm.rank() == 0) {
        comm.recv<double>(2, 5);
        comm.send(std::vector<double>{2.0}, 1, 6);
      } else {
        comm.recv<double>(0, 6);
      }
      comm.barrier();
      ADD_FAILURE() << "barrier completed without rank 2";
    });
    FAIL() << "the failure should have aborted the job";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("exploded"), std::string::npos);
  }
  EXPECT_EQ(rt.stats(0).messages_received, 1u);
  EXPECT_EQ(rt.stats(1).messages_received, 1u);
}

TEST(Runtime, RunIsReusable) {
  Runtime rt(test_topology(2));
  for (int round = 0; round < 3; ++round) {
    rt.run([&](Comm& comm) {
      EXPECT_DOUBLE_EQ(comm.now(), 0.0);  // clocks reset per run
      comm.barrier();
    });
  }
}

TEST(Runtime, ClockNeverRunsBackwards) {
  Runtime rt(test_topology(2, 1));
  rt.run([&](Comm& comm) {
    double last = comm.now();
    for (int i = 0; i < 10; ++i) {
      if (comm.rank() == 0) {
        comm.send(std::vector<double>{1.0}, 1, i);
        comm.compute(1e-3);
      } else {
        comm.recv<double>(0, i);
      }
      EXPECT_GE(comm.now(), last);
      last = comm.now();
    }
  });
}

TEST(Split, EvenOddGroupsReduceIndependently) {
  Runtime rt(test_topology(6));
  rt.run([&](Comm& comm) {
    Comm sub = comm.split(comm.rank() % 2, comm.rank());
    EXPECT_EQ(sub.size(), 3);
    EXPECT_EQ(sub.rank(), comm.rank() / 2);
    EXPECT_EQ(sub.world_rank(), comm.rank());
    EXPECT_FALSE(sub.is_world());
    const auto sum = sub.allreduce(
        static_cast<std::int64_t>(comm.rank()), ReduceOp::kSum);
    EXPECT_EQ(sum, comm.rank() % 2 == 0 ? 0 + 2 + 4 : 1 + 3 + 5);
    // The parent communicator still works afterwards.
    EXPECT_EQ(comm.allreduce(std::int64_t{1}, ReduceOp::kSum), 6);
  });
}

TEST(Split, KeyControlsTheOrdering) {
  Runtime rt(test_topology(4));
  rt.run([&](Comm& comm) {
    // Reverse order: highest world rank becomes group rank 0.
    Comm sub = comm.split(0, -comm.rank());
    EXPECT_EQ(sub.rank(), comm.size() - 1 - comm.rank());
    // Gather to the group's rank 0 (world rank 3).
    const std::vector<std::int64_t> mine{comm.rank()};
    const auto all = sub.gatherv(mine, 0);
    if (sub.rank() == 0) {
      ASSERT_EQ(all.size(), 4u);
      EXPECT_EQ(all[0], 3);  // ordered by group rank = reversed world
      EXPECT_EQ(all[3], 0);
    }
    // Roots are group ranks too: group rank 0 is world rank 3.
    std::vector<std::int64_t> data;
    if (sub.rank() == 0) {
      data = {42};
    }
    sub.bcast(data, 0);
    EXPECT_EQ(data, std::vector<std::int64_t>{42});
    std::vector<std::vector<std::int64_t>> blocks;
    if (sub.rank() == 0) {
      blocks = {{0}, {10}, {20}, {30}};
    }
    EXPECT_EQ(sub.scatterv(blocks, 0),
              std::vector<std::int64_t>{10 * sub.rank()});
  });
}

TEST(Split, TagSpacesAreIsolated) {
  Runtime rt(test_topology(4));
  rt.run([&](Comm& comm) {
    Comm sub = comm.split(0, comm.rank());  // same membership as world
    if (comm.rank() == 0) {
      comm.send(std::vector<double>{1.0}, 1, 7);  // world, tag 7
      sub.send(std::vector<double>{2.0}, 1, 7);   // sub comm, same tag
    }
    if (comm.rank() == 1) {
      // The sub receive must match the sub message even though the world
      // message with the same (source, tag) arrived first.
      const auto s = sub.recv<double>(0, 7);
      EXPECT_DOUBLE_EQ(s[0], 2.0);
      const auto w = comm.recv<double>(0, 7);
      EXPECT_DOUBLE_EQ(w[0], 1.0);
    }
  });
}

TEST(Split, GroupsOperateConcurrently) {
  Runtime rt(test_topology(8));
  rt.run([&](Comm& comm) {
    Comm sub = comm.split(comm.rank() % 2, comm.rank());
    // Different collectives in the two groups, repeated; any cross-group
    // interference would deadlock or corrupt results.
    for (int round = 0; round < 20; ++round) {
      if (comm.rank() % 2 == 0) {
        const auto v = sub.allreduce(1.0 * round, ReduceOp::kMax);
        EXPECT_DOUBLE_EQ(v, round);
      } else {
        std::vector<std::int64_t> mine{comm.rank() + round};
        const auto all = sub.allgatherv(mine);
        EXPECT_EQ(all.size(), 4u);
      }
    }
    comm.barrier();
  });
}

TEST(Split, NestedSplitWorks) {
  Runtime rt(test_topology(8));
  rt.run([&](Comm& comm) {
    Comm half = comm.split(comm.rank() / 4, comm.rank());  // two groups of 4
    Comm quarter = half.split(half.rank() / 2, half.rank());  // four of 2
    EXPECT_EQ(quarter.size(), 2);
    const auto sum = quarter.allreduce(
        static_cast<std::int64_t>(comm.rank()), ReduceOp::kSum);
    // Partner is the world-rank neighbour within the same half.
    const int base = (comm.rank() / 2) * 2;
    EXPECT_EQ(sum, base + base + 1);
  });
}

TEST(Split, SingletonGroupsDegenerateGracefully) {
  Runtime rt(test_topology(3));
  rt.run([&](Comm& comm) {
    // Unique colors: every rank becomes its own communicator.
    Comm solo = comm.split(comm.rank(), 0);
    EXPECT_EQ(solo.size(), 1);
    EXPECT_EQ(solo.rank(), 0);
    EXPECT_DOUBLE_EQ(solo.allreduce(3.25, ReduceOp::kSum), 3.25);
    solo.barrier();
    const auto all = solo.allgatherv(std::vector<std::int64_t>{7});
    ASSERT_EQ(all.size(), 1u);
    EXPECT_EQ(all[0], 7);
  });
}

class CollectiveRanks : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveRanks, AllCollectivesAgreeAtAnyRankCount) {
  const int p = GetParam();
  Runtime rt(test_topology(p));
  rt.run([&](Comm& comm) {
    // allreduce of rank ids.
    const double sum = comm.allreduce(static_cast<double>(comm.rank()),
                                      ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(sum, p * (p - 1) / 2.0);
    // allgatherv of one entry each.
    const std::vector<std::int64_t> mine{comm.rank()};
    const auto all = comm.allgatherv(mine);
    ASSERT_EQ(all.size(), static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(all[static_cast<std::size_t>(r)], r);
    }
    // alltoallv of rank products.
    std::vector<std::vector<std::int64_t>> out(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d) {
      out[static_cast<std::size_t>(d)] = {
          static_cast<std::int64_t>(comm.rank()) * p + d};
    }
    const auto in = comm.alltoallv(out);
    for (int s = 0; s < p; ++s) {
      ASSERT_EQ(in[static_cast<std::size_t>(s)].size(), 1u);
      EXPECT_EQ(in[static_cast<std::size_t>(s)][0],
                static_cast<std::int64_t>(s) * p + comm.rank());
    }
    // bcast from the last rank.
    std::vector<double> payload;
    if (comm.rank() == p - 1) {
      payload = {3.5, 4.5};
    }
    comm.bcast(payload, p - 1);
    ASSERT_EQ(payload.size(), 2u);
    EXPECT_DOUBLE_EQ(payload[1], 4.5);
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CollectiveRanks,
                         ::testing::Values(1, 2, 3, 5, 8, 12));

TEST(Runtime, TrafficMatrixRecordsPointToPointBytes) {
  Runtime rt(test_topology(3));
  rt.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(std::vector<double>(10, 1.0), 1, 0);   // 80 B to rank 1
      comm.send(std::vector<double>(5, 1.0), 2, 0);    // 40 B to rank 2
    } else {
      comm.recv<double>(0, 0);
    }
  });
  const auto& row0 = rt.stats(0).bytes_by_dest;
  ASSERT_EQ(row0.size(), 3u);
  EXPECT_EQ(row0[0], 0u);
  EXPECT_EQ(row0[1], 80u);
  EXPECT_EQ(row0[2], 40u);
  EXPECT_EQ(rt.stats(1).bytes_by_dest[0], 0u);  // rank 1 sent nothing
}

TEST(Runtime, DeadlockedRecvFailsLoudly) {
  Runtime rt(test_topology(2));
  rt.set_recv_timeout(0.2);  // host seconds
  EXPECT_EQ(rt.recv_timeout(), 0.2);
  try {
    rt.run([&](Comm& comm) {
      if (comm.rank() == 1) {
        comm.recv<double>(0, 99);  // rank 0 never sends: deadlock
      }
    });
    FAIL() << "deadlock should have been detected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos);
  }
}

TEST(Runtime, InjectedFaultAbortsBlockedPeersWithinTheGuardWindow) {
  // Fault-injection kills a rank by throwing resil::InjectedFault from its
  // body while the peers sit in blocking receives. The abort — not the
  // deadlock guard — must wake them: the run has to fail well inside the
  // guard window and rethrow the injected fault, not a deadlock error.
  Runtime rt(test_topology(4));
  rt.set_recv_timeout(30.0);  // guard stays armed but must never fire
  const auto start = std::chrono::steady_clock::now();
  try {
    rt.run([&](Comm& comm) {
      if (comm.rank() == 2) {
        throw resil::InjectedFault(comm.rank(), 1);
      }
      // Everyone else blocks on a message only the dead rank could send.
      comm.recv<double>(2, 7);
    });
    FAIL() << "the injected fault should have aborted the job";
  } catch (const resil::InjectedFault& fault) {
    EXPECT_EQ(fault.rank(), 2);
    EXPECT_EQ(fault.step(), 1);
  }
  const double host_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(host_s, 10.0) << "peers were not aborted promptly";

  // The runtime stays usable after the abort (the next attempt of a
  // recovery loop reuses fresh runtimes, but a reused one must not wedge).
  rt.run([&](Comm& comm) { comm.barrier(); });
}

double host_seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

TEST(Rendezvous, RankFailureAbortsPeersBlockedInAWorldCollective) {
  Runtime rt(test_topology(6));
  rt.set_recv_timeout(30.0);  // collectives have no guard; abort must wake
  const auto start = std::chrono::steady_clock::now();
  try {
    rt.run([&](Comm& comm) {
      comm.barrier();
      if (comm.rank() == 4) {
        // Give the peers time to block before the failure.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        throw resil::InjectedFault(comm.rank(), 3);
      }
      comm.allreduce(1.0, ReduceOp::kSum);  // rank 4 never arrives
      ADD_FAILURE() << "allreduce completed without rank 4";
    });
    FAIL() << "the fault should have aborted the job";
  } catch (const resil::InjectedFault& fault) {
    EXPECT_EQ(fault.rank(), 4);
  }
  EXPECT_LT(host_seconds_since(start), 10.0);

  rt.run([&](Comm& comm) {
    EXPECT_DOUBLE_EQ(comm.allreduce(1.0, ReduceOp::kSum), 6.0);
    comm.barrier();
  });
}

TEST(Rendezvous, RankFailureAbortsPeersBlockedInASubCommunicator) {
  Runtime rt(test_topology(8));
  const auto start = std::chrono::steady_clock::now();
  try {
    rt.run([&](Comm& comm) {
      Comm sub = comm.split(comm.rank() % 2, comm.rank());
      if (comm.rank() == 3) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        throw Error("rank 3 exploded");
      }
      if (comm.rank() % 2 == 1) {
        sub.allreduce(std::int64_t{1}, ReduceOp::kSum);  // rank 3 is missing
        ADD_FAILURE() << "sub allreduce completed without rank 3";
      }
      // The even group completes its own collective, then blocks in a
      // world barrier the odd group never reaches.
      sub.allgatherv(std::vector<std::int64_t>{comm.rank()});
      comm.barrier();
      ADD_FAILURE() << "world barrier completed without the odd group";
    });
    FAIL() << "the failure should have aborted the job";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("exploded"), std::string::npos);
  }
  EXPECT_LT(host_seconds_since(start), 10.0);

  rt.run([&](Comm& comm) {
    Comm sub = comm.split(comm.rank() % 2, comm.rank());
    EXPECT_EQ(sub.allreduce(std::int64_t{1}, ReduceOp::kSum), 4);
    comm.barrier();
  });
}

TEST(Rendezvous, MismatchedCollectivesFailLoudly) {
  // Rank 0 enters one collective while its peers enter another: a shared
  // pair (barrier / allreduce) and a personalized one against a shared one
  // (alltoallv / allgatherv).
  for (const bool personalized : {false, true}) {
    Runtime rt(test_topology(4));
    try {
      rt.run([&](Comm& comm) {
        if (!personalized) {
          if (comm.rank() == 0) {
            comm.barrier();
          } else {
            comm.allreduce(1.0, ReduceOp::kSum);
          }
        } else if (comm.rank() == 0) {
          comm.alltoallv(std::vector<std::vector<double>>(4));
        } else {
          comm.allgatherv(std::vector<double>{1.0});
        }
      });
      FAIL() << "mismatched collectives must not complete";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("mismatched collectives"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Rendezvous, StressMixedCollectivesAtMoreRanksThanCores) {
  // 64 rank threads run back-to-back collectives whose kind changes
  // pseudo-randomly per round, so the group's one result slot passes from
  // every kind to every other (shared to personalized and back).
  // Rank-dependent compute gives the ranks different entry clocks; every
  // rank recomputes the exit clock, max(entry) + cost, from the schedule
  // alone and checks it exactly. A failed check throws, which aborts the
  // job instead of leaving the other ranks blocked in the next collective.
  constexpr int p = 64;
  constexpr int rounds = 1000;
  const netsim::Topology topo = test_topology(p);
  auto kind_of = [](int round) {
    auto x = static_cast<std::uint32_t>(round);
    x = (x ^ (x >> 16)) * 0x45d9f3bU;
    x = (x ^ (x >> 16)) * 0x45d9f3bU;
    return static_cast<int>((x ^ (x >> 16)) % 4);
  };
  auto compute_of = [](int rank, int round) {
    return 1e-6 * ((rank * 31 + round * 17) % 23);
  };
  auto block_len = [](int src, int dest, int round) {
    return static_cast<std::size_t>((src + dest + round) % 3);
  };
  int transitions[4][4] = {};
  for (int round = 1; round < rounds; ++round) {
    ++transitions[kind_of(round - 1)][kind_of(round)];
  }
  for (const auto& from : transitions) {
    for (const int count : from) {
      EXPECT_GT(count, 0);
    }
  }

  Runtime rt(topo);
  EXPECT_NO_THROW(rt.run([&](Comm& comm) {
    const int me = comm.rank();
    double exit = 0.0;
    int round = 0;
    auto check = [&](bool ok, const char* what) {
      if (!ok) {
        throw Error("rank " + std::to_string(me) + ", round " +
                    std::to_string(round) + ": " + what);
      }
    };
    for (; round < rounds; ++round) {
      double max_entry = 0.0;
      for (int r = 0; r < p; ++r) {
        max_entry = std::max(max_entry, exit + compute_of(r, round));
      }
      comm.compute(compute_of(me, round));
      double cost = 0.0;
      switch (kind_of(round)) {
        case 0: {
          const std::vector<double> in{1.0 * (me + round), 1.0};
          const auto out =
              comm.allreduce(std::span<const double>(in), ReduceOp::kSum);
          check(out.size() == 2 &&
                    out[0] == p * (p - 1) / 2.0 + 1.0 * p * round &&
                    out[1] == 1.0 * p,
                "allreduce result");
          cost = netsim::allreduce_time(topo, 2 * sizeof(double));
          break;
        }
        case 1: {
          std::vector<std::vector<std::int64_t>> out(p);
          for (int d = 0; d < p; ++d) {
            out[static_cast<std::size_t>(d)].assign(block_len(me, d, round),
                                                    1000 * me + d + round);
          }
          const auto in = comm.alltoallv(out);
          for (int s = 0; s < p; ++s) {
            const auto& block = in[static_cast<std::size_t>(s)];
            check(block.size() == block_len(s, me, round),
                  "alltoallv block size");
            for (const std::int64_t v : block) {
              check(v == 1000 * s + me + round, "alltoallv block value");
            }
          }
          // Every rank prices its own average block; the max is charged.
          for (int r = 0; r < p; ++r) {
            std::uint64_t bytes = 0;
            for (int d = 0; d < p; ++d) {
              bytes += block_len(r, d, round) * sizeof(std::int64_t);
            }
            cost = std::max(cost,
                            netsim::alltoall_time(
                                topo, std::max<std::uint64_t>(1, bytes / p)));
          }
          break;
        }
        case 2: {
          const int root = round % p;
          const std::size_t n = static_cast<std::size_t>(round % 5) + 1;
          std::vector<double> data;
          if (me == root) {
            for (std::size_t i = 0; i < n; ++i) {
              data.push_back(round + 0.5 * static_cast<double>(i));
            }
          }
          comm.bcast(data, root);
          check(data.size() == n, "bcast size");
          for (std::size_t i = 0; i < n; ++i) {
            check(data[i] == round + 0.5 * static_cast<double>(i),
                  "bcast value");
          }
          cost = netsim::bcast_time(topo, n * sizeof(double));
          break;
        }
        default:
          comm.barrier();
          cost = netsim::barrier_time(topo);
      }
      exit = max_entry + cost;
      check(comm.now() == exit, "exit clock is not max(entry) + cost");
    }
  }));
  EXPECT_EQ(rt.stats(0).collectives, static_cast<std::uint64_t>(rounds));
}

TEST(Runtime, DegradedWindowsSlowCommunicationDeterministically) {
  auto measure = [&](double active_fraction) {
    Runtime rt(test_topology(4));
    netsim::DegradationSchedule schedule;
    schedule.active_fraction = active_fraction;
    schedule.factor = 5.0;
    schedule.window_s = 1.0;
    schedule.seed = 3;
    rt.set_degradation(schedule);
    rt.run([&](Comm& comm) {
      std::vector<double> payload(1 << 14, 1.0);
      for (int round = 0; round < 20; ++round) {
        comm.allreduce(static_cast<double>(round), ReduceOp::kSum);
        const int peer = comm.rank() ^ 1;
        comm.sendrecv(std::span<const double>(payload), peer, 5, peer, 5);
      }
    });
    return rt.elapsed_sim_seconds();
  };
  const double healthy = measure(0.0);
  const double degraded = measure(1.0);
  EXPECT_GT(degraded, healthy);  // every window scaled by 5x
  // Pure-hash windows: the degraded run replays to the exact same clock.
  EXPECT_DOUBLE_EQ(degraded, measure(1.0));
}

TEST(SimClock, AdvanceToIsMonotone) {
  SimClock clock;
  clock.advance(5.0);
  clock.advance_to(3.0);  // must not go back
  EXPECT_DOUBLE_EQ(clock.time(), 5.0);
  clock.advance_to(9.0);
  EXPECT_DOUBLE_EQ(clock.time(), 9.0);
  EXPECT_THROW(clock.advance(-1.0), Error);
}

}  // namespace
}  // namespace hetero::simmpi
