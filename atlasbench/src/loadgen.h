// The open-loop load generator of the TCP workloads: its schedule, the
// client wire protocol of src/rt/node.h, and the sender/receiver threads.
#ifndef ATLASBENCH_SRC_LOADGEN_H_
#define ATLASBENCH_SRC_LOADGEN_H_

#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "atlasbench/src/measure.h"
#include "src/codec/codec.h"
#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/msg/message.h"
#include "src/smr/command.h"
#include "src/wl/workload.h"

namespace atlasbench {

// One client connection per replica of the 3-replica cluster.
constexpr uint32_t kNodes = 3;

struct Phase {
  std::string name;  // warmup | gap | base | high | step
  double rate = 0;
  int64_t start_ns = 0;  // offset from the schedule's origin
  int64_t end_ns = 0;
  uint64_t first = 0;  // global index of the phase's first request
  uint64_t count = 0;

  // Due time of request i of this phase.
  int64_t DueNs(uint64_t i) const {
    return start_ns + static_cast<int64_t>(static_cast<double>(i - first) * 1e9 / rate);
  }
};

// The request schedule. The main thread builds it; the ramp appends its steps
// while the sender runs, so the sender reads phases only through WaitPhase()
// and every other reader is the main thread (or runs after the sender ends).
class Schedule {
 public:
  Schedule() : sync_(std::make_unique<Sync>()) {}

  // Appends a phase that starts when the previous one ends, or at
  // `not_before_ns` if that is later (the time between is idle).
  Phase Add(std::string name, double rate, double seconds, int64_t not_before_ns = 0) {
    Phase p;
    p.name = std::move(name);
    p.rate = rate;
    p.start_ns = std::max(end_ns_, not_before_ns);
    p.end_ns = p.start_ns + static_cast<int64_t>(seconds * 1e9);
    p.first = total_;
    p.count = static_cast<uint64_t>(std::llround(rate * seconds));
    {
      std::lock_guard<std::mutex> lock(sync_->mu);
      end_ns_ = p.end_ns;
      total_ += p.count;
      phases_.push_back(p);
    }
    sync_->cv.notify_all();
    return p;
  }
  // No phase follows.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(sync_->mu);
      sync_->closed = true;
    }
    sync_->cv.notify_all();
  }
  // The sender's view: blocks until phase k exists (true, copied to *out) or
  // the schedule is closed without it (false).
  bool WaitPhase(size_t k, Phase* out) const {
    std::unique_lock<std::mutex> lock(sync_->mu);
    sync_->cv.wait(lock, [&]() { return phases_.size() > k || sync_->closed; });
    if (phases_.size() <= k) {
      return false;
    }
    *out = phases_[k];
    return true;
  }

  const std::vector<Phase>& phases() const { return phases_; }
  std::vector<const Phase*> Named(const std::string& name) const {
    std::vector<const Phase*> out;
    for (const Phase& p : phases_) {
      if (p.name == name) {
        out.push_back(&p);
      }
    }
    return out;
  }
  // The base/high windows: [start of the first, end of the last).
  const Phase& FirstWindow() const { return *Named("base").front(); }
  const Phase& LastWindow() const { return *Named("high").back(); }
  uint64_t total() const { return total_; }
  int64_t end_ns() const { return end_ns_; }

  // Due time of request i, relative to the origin. Requests of a phase are
  // evenly spaced from its start.
  int64_t DueNs(uint64_t i) const {
    while (cursor_ + 1 < phases_.size() && i >= phases_[cursor_ + 1].first) {
      cursor_++;
    }
    while (cursor_ > 0 && i < phases_[cursor_].first) {
      cursor_--;
    }
    return phases_[cursor_].DueNs(i);
  }

  // Requests due at or before t (relative to the origin).
  uint64_t DueBy(int64_t t) const {
    uint64_t n = 0;
    for (const Phase& p : phases_) {
      if (t >= p.end_ns) {
        n += p.count;
      } else if (t >= p.start_ns && p.count > 0) {
        double k = std::floor(static_cast<double>(t - p.start_ns) * p.rate / 1e9) + 1;
        n += std::min<uint64_t>(p.count, static_cast<uint64_t>(k));
      }
    }
    return n;
  }

 private:
  struct Sync {
    std::mutex mu;  // guards appends against WaitPhase
    std::condition_variable cv;
    bool closed = false;
  };
  std::unique_ptr<Sync> sync_;
  std::vector<Phase> phases_;
  uint64_t total_ = 0;
  int64_t end_ns_ = 0;
  mutable size_t cursor_ = 0;  // DueNs lookup hint (main thread only)
};

// Client wire protocol: [u32 length][u8 kind][payload] frames.

// Appends one ClientRequest frame for cmd (w is scratch).
void AppendFrame(std::vector<uint8_t>& out, codec::Writer& w, const smr::Command& cmd);
bool WriteAll(int fd, const uint8_t* data, size_t n);
// Connects to a loopback port and sends the client hello; -1 on failure.
int Dial(uint16_t port);
// Blocks until one reply arrives on fd; false on error, a dropped reply or
// the deadline.
bool AwaitReply(int fd, int64_t deadline_ns);

// A put's value: its key and (client, seq), padded to `size`, so a get's
// reply names the put that wrote it.
std::string StampValue(const std::string& key, uint64_t client, uint64_t seq, size_t size);

// What became of a request.
enum : uint8_t { kPending = 0, kOk, kDropped, kDuplicate, kWrongValue };

struct ReqOutcome {
  int64_t recv_ns = 0;  // relative to the origin
  uint8_t status = kPending;
};

// The generator: one sleeping sender writes each request when it falls due,
// one receiver polls every connection and checks each reply. Request i of the
// schedule goes to connection i % kNodes as (client = conn + 1,
// seq = i / kNodes + 1). The schedule may grow while the sender runs (the
// ramp); `capacity` bounds the requests it can ever hold.
class Generator {
 public:
  Generator(const Schedule& schedule, std::vector<int> fds, wl::Workload* workload,
            uint64_t seed, size_t value_bytes, uint64_t capacity, int64_t on_time_ns)
      : schedule_(schedule), fds_(std::move(fds)), workload_(workload),
        value_bytes_(value_bytes), capacity_(capacity), on_time_ns_(on_time_ns),
        measured_from_(schedule.FirstWindow().first),
        slots_(new Slot[capacity]),  // default-initialised: touched only when sent
        on_time_(new std::atomic<uint64_t>[kMaxPhases]()) {
    for (uint32_t c = 0; c < kNodes; c++) {
      rngs_.emplace_back(seed * 1000003 + c);
    }
  }

  static constexpr size_t kMaxPhases = 64;

  // Starts the sender and receiver, both on CPU `cpu`; request times are
  // relative to origin_ns.
  void Start(int64_t origin_ns, int cpu) {
    origin_ns_ = origin_ns;
    sender_ = std::thread([this, cpu]() {
      PinSelfToCpu(cpu);
      SendLoop();
    });
    receiver_ = std::thread([this, cpu]() {
      PinSelfToCpu(cpu);
      ReceiveLoop();
    });
  }
  // Returns once the schedule is closed and fully sent.
  void JoinSender() {
    if (sender_.joinable()) {
      sender_.join();
    }
  }
  void StopReceiver() {
    stop_.store(true);
    if (receiver_.joinable()) {
      receiver_.join();
    }
  }
  ~Generator() {
    JoinSender();
    StopReceiver();
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  // Replies handled so far, correct or not.
  uint64_t handled() const { return handled_.load(std::memory_order_acquire); }
  // Correct replies to phase k's requests that arrived within on_time_ns of
  // their due time.
  uint64_t on_time(size_t k) const { return on_time_[k].load(std::memory_order_acquire); }
  uint64_t sent_total() const {
    uint64_t n = 0;
    for (const auto& s : sent_) {
      n += s.load(std::memory_order_acquire);
    }
    return n;
  }
  bool send_failed() const { return send_failed_.load(); }
  // Thread CPU clocks and kernel tids of the generator threads.
  std::vector<pthread_t> threads() { return {sender_.native_handle(), receiver_.native_handle()}; }
  std::vector<int> tids() const { return {sender_tid_.load(), receiver_tid_.load()}; }

  // Valid after both threads are joined: one entry per request the sender
  // reached (a request it never wrote stays kPending).
  std::vector<ReqOutcome> outcome() const;
  const common::Histogram& late() const { return late_us_; }
  uint64_t bad_frames() const { return bad_frames_; }
  uint64_t unsolicited() const { return unsolicited_; }

 private:
  // One request. The sender fills every field before it publishes the request
  // (sent_, release); the receiver then owns status and recv_ns. Trivial, so
  // the array's pages are touched only as requests are sent.
  struct Slot {
    uint64_t key_hash;
    int64_t due_ns;  // relative to the origin
    uint32_t phase;
    bool is_put;
    uint8_t status;
    int64_t recv_ns;
  };

  void SendLoop();
  void ReceiveLoop();
  void Handle(uint32_t c, const msg::ClientReply& reply, int64_t now);
  // A put answers ""; a get answers "" (never written) or a value some sent
  // put stamped for the same key.
  bool ValidReply(uint64_t i, const std::string& value) const;

  const Schedule& schedule_;
  std::vector<int> fds_;
  wl::Workload* workload_;
  size_t value_bytes_;
  uint64_t capacity_;
  int64_t on_time_ns_;
  uint64_t measured_from_;  // first request of the base/high windows
  std::vector<common::Rng> rngs_;
  int64_t origin_ns_ = 0;

  std::unique_ptr<Slot[]> slots_;
  std::unique_ptr<std::atomic<uint64_t>[]> on_time_;  // per phase
  std::atomic<uint64_t> sent_[kNodes] = {};  // per connection: seqs published
  std::atomic<uint64_t> handled_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> send_failed_{false};
  std::atomic<int> sender_tid_{0};
  std::atomic<int> receiver_tid_{0};
  common::Histogram late_us_;  // sender only
  uint64_t filled_ = 0;        // sender only: slots [0, filled_) are initialised
  uint64_t bad_frames_ = 0;    // receiver only
  uint64_t unsolicited_ = 0;   // receiver only
  std::thread sender_;
  std::thread receiver_;
};

}  // namespace atlasbench

#endif  // ATLASBENCH_SRC_LOADGEN_H_
