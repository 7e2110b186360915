#include "atlasbench/src/trace.h"

#include <utility>

#include "atlasbench/src/measure.h"
#include "src/kvs/kvs.h"

namespace atlasbench {

namespace {

class TracedStore final : public smr::StateMachine {
 public:
  TracedStore(StoreTrace* trace, uint64_t keep_client)
      : trace_(trace), keep_client_(keep_client) {}

  std::string Apply(const smr::Command& cmd) override {
    int64_t t0 = NowNs();
    std::string out = inner_.Apply(cmd);
    int64_t t1 = NowNs();
    trace_->apply_ns.store(trace_->apply_ns.load(std::memory_order_relaxed) + (t1 - t0),
                           std::memory_order_relaxed);
    if (cmd.client == keep_client_) {
      trace_->applies.push_back(ApplySpan{cmd.client, cmd.seq, t0, t1});
    }
    return out;
  }
  uint64_t StateDigest() const override { return inner_.StateDigest(); }
  void SnapshotTo(codec::Writer& w) const override {
    int64_t t0 = NowNs();
    inner_.SnapshotTo(w);
    trace_->snapshots.push_back(SnapshotSpan{t0, NowNs()});
  }
  bool RestoreFrom(codec::Reader& r) override { return inner_.RestoreFrom(r); }
  uint32_t LaneHint(const smr::Command& cmd,
                    const smr::LaneRouter& router) const override {
    return inner_.LaneHint(cmd, router);
  }
  std::string ApplyAcross(const smr::Command& cmd, smr::LanePartition& lanes) override {
    return inner_.ApplyAcross(cmd, lanes);
  }
  const std::string* LookupKey(const std::string& key) const override {
    return inner_.LookupKey(key);
  }
  void PutKey(const std::string& key, std::string_view value) override {
    inner_.PutKey(key, value);
  }

 private:
  kvs::KvStore inner_;
  StoreTrace* trace_;
  uint64_t keep_client_;
};

}  // namespace

std::function<std::unique_ptr<smr::StateMachine>()> ReplicaTrace::Factory() {
  return [this]() -> std::unique_ptr<smr::StateMachine> {
    std::lock_guard<std::mutex> lock(mu_);
    stores_.push_back(std::make_unique<StoreTrace>());
    stores_.back()->applies.reserve(reserve_);
    return std::make_unique<TracedStore>(stores_.back().get(), keep_client_);
  };
}

int64_t ReplicaTrace::ApplyNs() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const auto& s : stores_) {
    total += s->apply_ns.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace atlasbench
