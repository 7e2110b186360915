// Benchmark-side tracing: a decorator state machine that times every Apply and
// SnapshotTo of the default kvs::KvStore, installed through
// smr::DeploymentOptions::state_machine_factory. It forwards every virtual to
// the store it wraps, so state digests and snapshots are byte-identical to an
// untraced run. Spans stay in memory until the run ends.
#ifndef ATLASBENCH_SRC_TRACE_H_
#define ATLASBENCH_SRC_TRACE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/smr/state_machine.h"

namespace atlasbench {

struct ApplySpan {
  uint64_t client = 0;
  uint64_t seq = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

struct SnapshotSpan {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// What one traced store recorded. Written only by the thread that applies to
// that store (its shard worker); read after the workers are joined, except
// apply_ns, which the benchmark samples while the run is live.
struct StoreTrace {
  std::vector<ApplySpan> applies;  // only commands of `keep_client`
  std::vector<SnapshotSpan> snapshots;
  std::atomic<int64_t> apply_ns{0};  // every Apply, any client
};

// The traces of every store a replica builds. The factory it hands out
// registers one StoreTrace per store under a lock (stores are built on the
// deployment's constructing thread, or by lane pools).
class ReplicaTrace {
 public:
  // Apply spans are kept for commands of `keep_client` only — the client
  // connected to this replica — so memory grows with one replica's share.
  ReplicaTrace(uint64_t keep_client, size_t reserve)
      : keep_client_(keep_client), reserve_(reserve) {}

  std::function<std::unique_ptr<smr::StateMachine>()> Factory();

  int64_t ApplyNs() const;  // sum over this replica's stores, live-readable
  // Call only after the replica's workers are joined.
  const std::vector<std::unique_ptr<StoreTrace>>& stores() const { return stores_; }

 private:
  uint64_t keep_client_;
  size_t reserve_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<StoreTrace>> stores_;  // guarded by mu_
};

}  // namespace atlasbench

#endif  // ATLASBENCH_SRC_TRACE_H_
