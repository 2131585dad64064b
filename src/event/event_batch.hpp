// Recycled slab batches for the parallel monitor path.
//
// The first parallel design published shared_ptr<const Batch<T>> — one
// make_shared plus W atomic refcount round-trips per kBatch events, and a
// fresh vector grown from zero each time. On the compiled engine's ~100ns
// event cost that heap traffic was a measurable slice of the ~2x
// batching overhead BENCH_parallel recorded. A SlabBatch is the
// allocation-free replacement: a fixed-capacity arena the producer fills in
// place, published to every worker by raw pointer, and returned to a
// lock-free freelist when the last worker releases it. Steady state
// performs zero allocations per event — batch_pool_test pins this down.
//
// Layout is SoA at the batch level: the item array and a parallel `routes`
// lane array (route_stride u64 words per item). The parallel set's
// producer precomputes each event's shard-routing hashes into the lanes
// once; every worker then derives its own stage mask with one modulo per
// lane instead of re-hashing fields per worker (see shard_plan.hpp).
//
// Concurrency contract:
//   * Acquire/TryAcquire and the fill are producer-only. The producer sets
//     `refs` to the consumer count before publishing; the rings'
//     release/acquire pair orders the fill before any worker read.
//   * Release is called once per consumer, from worker threads. The last
//     release pushes the batch onto a Treiber freelist (CAS push). The
//     producer reclaims with a pop-all exchange — single popper, so no ABA.
//   * The pool caps total batches at `max_batches`; an empty freelist at
//     the cap makes TryAcquire fail, which is the producer's backpressure
//     signal (it spins/yields — exactly like a full ring).
//
// Templated on the item type so the event library stays independent of the
// dataplane's event struct (dataplane depends on event, not the reverse).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

namespace swmon {

template <typename T>
struct SlabBatch {
  /// Global sequence number of items[0]; items[i] is event base_seq + i.
  std::uint64_t base_seq = 0;
  /// Filled item count (<= items.size(), the pool's fixed capacity).
  std::uint32_t size = 0;
  /// Arena: sized once at pool construction, reused across recycles.
  std::vector<T> items;
  /// Shard-routing lanes, route_stride words per item: routes[i * stride
  /// + lane] is the lane's ShardHash for items[i]. Meaning of each lane is
  /// whatever the producer and consumers agreed on out of band.
  std::vector<std::uint64_t> routes;

  /// Outstanding consumer count; set by the producer before publishing.
  std::atomic<std::uint32_t> refs{0};
  /// Freelist link (owned by BatchPool).
  SlabBatch<T>* next = nullptr;
};

template <typename T>
class BatchPool {
 public:
  /// Every batch holds `batch_capacity` items and `batch_capacity *
  /// route_stride` route words, all allocated up front on first use. At
  /// most `max_batches` batches ever exist (>= 1 enforced).
  BatchPool(std::size_t batch_capacity, std::size_t route_stride,
            std::size_t max_batches)
      : capacity_(batch_capacity ? batch_capacity : 1),
        route_stride_(route_stride),
        max_batches_(max_batches ? max_batches : 1) {}

  std::size_t batch_capacity() const { return capacity_; }
  std::size_t route_stride() const { return route_stride_; }
  std::size_t max_batches() const { return max_batches_; }

  /// Producer only. A recycled batch when the freelist has one, a fresh
  /// allocation while under the cap, nullptr otherwise (backpressure).
  SlabBatch<T>* TryAcquire() {
    if (local_free_ == nullptr) {
      // Pop-all: one exchange claims every batch workers pushed since the
      // last reclaim. Acquire pairs with the releasing CAS in Release(),
      // ordering the workers' last reads before our upcoming overwrite.
      local_free_ = free_head_.exchange(nullptr, std::memory_order_acquire);
    }
    if (local_free_ != nullptr) {
      SlabBatch<T>* b = local_free_;
      local_free_ = b->next;
      b->next = nullptr;
      b->size = 0;
      ++reused_;
      return b;
    }
    if (all_.size() >= max_batches_) return nullptr;
    all_.push_back(std::make_unique<SlabBatch<T>>());
    SlabBatch<T>* b = all_.back().get();
    b->items.resize(capacity_);
    b->routes.resize(capacity_ * route_stride_);
    ++allocated_;
    return b;
  }

  /// Producer only. TryAcquire, spinning through pool exhaustion (all
  /// batches in flight at the cap) until a worker releases one. Counts one
  /// exhausted_waits per backpressure episode, not per spin.
  SlabBatch<T>* AcquireBlocking() {
    SlabBatch<T>* b = TryAcquire();
    if (b != nullptr) return b;
    exhausted_waits_.fetch_add(1, std::memory_order_relaxed);
    for (;;) {
      std::this_thread::yield();
      if ((b = TryAcquire()) != nullptr) return b;
    }
  }

  /// Consumer side, once per consumer per published batch. The last
  /// consumer returns the batch to the freelist.
  void Release(SlabBatch<T>* b) {
    if (b->refs.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
    SlabBatch<T>* head = free_head_.load(std::memory_order_relaxed);
    do {
      b->next = head;
    } while (!free_head_.compare_exchange_weak(head, b,
                                               std::memory_order_release,
                                               std::memory_order_relaxed));
  }

  // --- producer-thread telemetry (exhausted_waits: any thread) ---
  std::uint64_t reused() const { return reused_; }
  std::uint64_t allocated() const { return allocated_; }
  std::uint64_t exhausted_waits() const {
    return exhausted_waits_.load(std::memory_order_relaxed);
  }

 private:
  std::size_t capacity_;
  std::size_t route_stride_;
  std::size_t max_batches_;

  std::vector<std::unique_ptr<SlabBatch<T>>> all_;  // producer-owned storage
  std::atomic<SlabBatch<T>*> free_head_{nullptr};
  SlabBatch<T>* local_free_ = nullptr;  // producer's reclaimed chain

  std::uint64_t reused_ = 0;
  std::uint64_t allocated_ = 0;
  // Atomic so a worker can watch for an episode (once per episode, not
  // per event, so the cost is off the hot path).
  std::atomic<std::uint64_t> exhausted_waits_{0};
};

}  // namespace swmon
