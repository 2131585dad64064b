// BatchPool / SlabBatch: the allocation-free slab recycler behind the
// parallel producer. Pins down the contract the steady-state path relies
// on: freelist reuse instead of fresh allocation, the max_batches cap as
// the backpressure signal, last-consumer-returns semantics, and arena
// sizing (items + route lanes) fixed at construction.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "event/event_batch.hpp"

namespace swmon {
namespace {

TEST(BatchPoolTest, ArenasAreSizedOnceAtAcquire) {
  BatchPool<int> pool(/*batch_capacity=*/8, /*route_stride=*/3,
                      /*max_batches=*/4);
  SlabBatch<int>* b = pool.TryAcquire();
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->items.size(), 8u);
  EXPECT_EQ(b->routes.size(), 8u * 3u);
  EXPECT_EQ(b->size, 0u);
  EXPECT_EQ(pool.allocated(), 1u);
  EXPECT_EQ(pool.reused(), 0u);
}

TEST(BatchPoolTest, ReleaseRecyclesTheSameSlab) {
  BatchPool<int> pool(4, 0, 4);
  SlabBatch<int>* b = pool.TryAcquire();
  ASSERT_NE(b, nullptr);
  b->size = 4;
  b->refs.store(1, std::memory_order_relaxed);
  pool.Release(b);

  // The freelist hands back the identical arena, size reset, no new
  // allocation — this is the "zero per-event heap allocations" property.
  SlabBatch<int>* again = pool.TryAcquire();
  EXPECT_EQ(again, b);
  EXPECT_EQ(again->size, 0u);
  EXPECT_EQ(pool.allocated(), 1u);
  EXPECT_EQ(pool.reused(), 1u);
}

TEST(BatchPoolTest, SteadyStateNeverAllocatesPastTheCap) {
  BatchPool<int> pool(16, 2, 3);
  for (int round = 0; round < 100; ++round) {
    SlabBatch<int>* b = pool.TryAcquire();
    ASSERT_NE(b, nullptr);
    b->refs.store(1, std::memory_order_relaxed);
    pool.Release(b);
  }
  EXPECT_EQ(pool.allocated(), 1u);  // single-slab round trips
  EXPECT_EQ(pool.reused(), 99u);
}

TEST(BatchPoolTest, ExhaustionIsBackpressureNotAllocation) {
  BatchPool<int> pool(4, 0, 3);
  std::vector<SlabBatch<int>*> in_flight;
  std::set<SlabBatch<int>*> distinct;
  for (int i = 0; i < 3; ++i) {
    SlabBatch<int>* b = pool.TryAcquire();
    ASSERT_NE(b, nullptr);
    distinct.insert(b);
    in_flight.push_back(b);
  }
  EXPECT_EQ(distinct.size(), 3u);
  EXPECT_EQ(pool.allocated(), 3u);

  // Every slab in flight at the cap: acquisition must fail, not allocate.
  EXPECT_EQ(pool.TryAcquire(), nullptr);
  EXPECT_EQ(pool.TryAcquire(), nullptr);
  EXPECT_EQ(pool.allocated(), 3u);

  // A consumer release immediately unblocks the producer.
  in_flight.back()->refs.store(1, std::memory_order_relaxed);
  pool.Release(in_flight.back());
  SlabBatch<int>* b = pool.TryAcquire();
  EXPECT_EQ(b, in_flight.back());
  EXPECT_EQ(pool.allocated(), 3u);
  EXPECT_EQ(pool.reused(), 1u);
}

TEST(BatchPoolTest, OnlyTheLastConsumerReturnsTheSlab) {
  BatchPool<int> pool(4, 0, 1);
  SlabBatch<int>* b = pool.TryAcquire();
  ASSERT_NE(b, nullptr);
  b->refs.store(3, std::memory_order_relaxed);  // published to 3 workers

  pool.Release(b);
  EXPECT_EQ(pool.TryAcquire(), nullptr);  // 2 consumers still hold it
  pool.Release(b);
  EXPECT_EQ(pool.TryAcquire(), nullptr);
  pool.Release(b);  // last consumer
  EXPECT_EQ(pool.TryAcquire(), b);
}

TEST(BatchPoolTest, AcquireBlockingWaitsOutExhaustionAndCountsOneEpisode) {
  BatchPool<int> pool(4, 1, 2);
  SlabBatch<int>* a = pool.TryAcquire();
  SlabBatch<int>* b = pool.TryAcquire();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  a->refs.store(1, std::memory_order_relaxed);
  b->refs.store(1, std::memory_order_relaxed);
  EXPECT_EQ(pool.exhausted_waits(), 0u);

  // A worker releases both slabs once the producer is inside
  // AcquireBlocking's spin (the episode is counted); the wait resolves and
  // is billed as ONE backpressure episode regardless of how many spin
  // iterations it took.
  std::thread worker([&] {
    while (pool.exhausted_waits() == 0) std::this_thread::yield();
    pool.Release(a);
    pool.Release(b);
  });
  SlabBatch<int>* got = pool.AcquireBlocking();
  worker.join();
  EXPECT_TRUE(got == a || got == b);
  EXPECT_EQ(pool.exhausted_waits(), 1u);
  EXPECT_EQ(pool.allocated(), 2u);

  // With a slab free again the fast path stays episode-free.
  SlabBatch<int>* second = pool.AcquireBlocking();
  EXPECT_NE(second, nullptr);
  EXPECT_NE(second, got);
  EXPECT_EQ(pool.exhausted_waits(), 1u);
}

TEST(BatchPoolTest, ConcurrentReleasesFromManyWorkersAllRecycle) {
  // Hammer the Treiber freelist: 4 "workers" release disjoint batches
  // concurrently while the producer drains; every slab must come back
  // exactly once (tsan-labelled to check the CAS protocol under race).
  constexpr int kWorkers = 4;
  constexpr int kRounds = 200;
  BatchPool<int> pool(4, 0, kWorkers);
  for (int round = 0; round < kRounds; ++round) {
    std::vector<SlabBatch<int>*> batch(kWorkers);
    for (int w = 0; w < kWorkers; ++w) {
      batch[w] = pool.TryAcquire();
      ASSERT_NE(batch[w], nullptr) << "round " << round;
      batch[w]->refs.store(1, std::memory_order_relaxed);
    }
    EXPECT_EQ(pool.TryAcquire(), nullptr);  // cap reached
    std::vector<std::thread> threads;
    for (int w = 0; w < kWorkers; ++w)
      threads.emplace_back([&pool, b = batch[w]] { pool.Release(b); });
    for (auto& t : threads) t.join();
  }
  EXPECT_EQ(pool.allocated(), static_cast<std::uint64_t>(kWorkers));
  EXPECT_EQ(pool.reused(),
            static_cast<std::uint64_t>(kWorkers) * (kRounds - 1));
}

}  // namespace
}  // namespace swmon
