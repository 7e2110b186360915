// The loopback-TCP workloads: a 3-replica Atlas cluster (n=3, f=1) on the
// threaded runtime, driven open-loop from this process.
//
// Load. One connection per replica speaks the client wire protocol of
// src/rt/node.h. A single sender thread walks a fixed schedule: request i is
// due at a precomputed instant, the sender sleeps (never spins) until the next
// due time and then writes everything due, so a stall in the cluster cannot
// slow the offered load. One receiver thread polls the three connections.
// Every request is timed from when it was due, so queueing behind a stall
// counts. Request i goes to connection i % 3 as (client = conn + 1,
// seq = i / 3 + 1); commands come from src/wl generators seeded by --seed.
//
// Phases. Warm-up at the high rate (not measured) -> an idle gap -> pairs of
// a base-rate and a high-rate window -> a ramp of rate steps, each after an
// idle gap (the k* constants below). Latency figures pool every request of a
// rate's windows. A step passes when its requests have p99 within kP99LimitMs
// (unanswered requests count as over it) and its backlog (due - answered)
// grew by less than kP99LimitMs worth of arrivals. The ramp searches upward
// without a ceiling (RampSearch) and max_ops_s is the highest rate it passed.
//
// Placement: replica i's threads run on CPU i and the generator's on CPU 3
// (the host has 4). Shard workers are created by the replica's Run() thread
// and inherit its CPU. Pinned, the figures varied less from run to run than
// with the replicas sharing CPUs, on every workload.
//
// Drain, in order: the schedule ends; every outstanding reply is collected or,
// at the drain deadline, counted failed; the replicas' applied_ops() must
// agree; only then are the client sockets closed and the nodes stopped. After
// the nodes are joined every shard's StateDigest() and applied_count() must
// match across the replicas, and each must have applied every request once.
//
// Set-up is measured kSetupReps times (construct the deployments, start the
// nodes, connect, first reply) and reported as the median; the last cluster
// built is the one measured.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "atlasbench/src/bench.h"
#include "atlasbench/src/loadgen.h"
#include "atlasbench/src/measure.h"
#include "atlasbench/src/trace.h"
#include "src/rt/node.h"
#include "src/smr/deployment.h"
#include "src/wl/workload.h"

namespace atlasbench {

namespace {

// Set-up probes run under their own client ids, outside the schedule's.
constexpr uint64_t kProbeClientBase = 1000;

// The measurement method, shared by every TCP workload. Warm-up: a fresh
// cluster stalls for its first seconds.
constexpr double kWarmupS = 3;
// Idle time after the warm-up and before each ramp step, so one overloaded
// step drains before the next starts.
constexpr double kGapS = 0.4;
// base/high window pairs, and their share of --seconds (the ramp gets the
// rest). Interleaving makes slow drift of the host touch both rates alike.
constexpr int kWindows = 8;
constexpr double kWindowShare = 0.5;
// Ramp steps that fit in the ramp's share of --seconds, and its rate factors:
// coarse far below the knee, fine (at most 10% apart) near it.
constexpr int kRampSteps = 10;
constexpr double kCoarse = 1.25;
constexpr double kFine = 1.05;
// A rate is sustained when its p99 stays within this, and its backlog grows
// by less than this much time's worth of arrivals.
constexpr double kP99LimitMs = 50;
// The longest a ramp step waits for the previous step's backlog to drain.
constexpr double kRampDrainS = 3;
constexpr int kSetupReps = 25;
// How long the drain may wait for outstanding replies and for the replicas'
// applied counts to agree. Generous: the socket close that follows the
// deadline can kill the process (src/rt writes without MSG_NOSIGNAL), and a
// traced run drains twice within the 180 s a run may take.
constexpr double kDrainS = 40;
constexpr size_t kBatchMax = 64;
constexpr size_t kValueBytes = 100;

// One TCP workload, as atlasbench/spec.json defines it.
struct TcpSpec {
  uint32_t partitions = 1;
  common::Duration batch_window = 0;
  bool durable = false;
  std::string mix;  // partitioned_micro | ycsb
  uint64_t keys = 0;    // ycsb: records
  double conflict = 0;  // partitioned_micro
  double read_pct = 0;  // ycsb
  double base_rate = 0;  // the warm-up runs at high_rate
  double high_rate = 0;
  double ramp_from = 0;  // the ramp's first step
};

TcpSpec ParseSpec(const Params& p) {
  TcpSpec s;
  s.partitions = static_cast<uint32_t>(p.Num("partitions"));
  s.batch_window = static_cast<common::Duration>(p.Num("batch_window_us"));
  s.durable = p.Num("durable") != 0;
  s.mix = p.Str("mix");
  s.keys = static_cast<uint64_t>(p.Num("keys"));
  s.conflict = p.Num("conflict");
  s.read_pct = p.Num("read_pct");
  s.base_rate = p.Num("base_rate");
  s.high_rate = p.Num("high_rate");
  s.ramp_from = p.Num("ramp_from");
  const bool ok = s.partitions >= 1 && s.base_rate > 0 && s.high_rate > 0 &&
                  s.ramp_from > 0 && (s.mix == "partitioned_micro" || s.keys > 0);
  if (!ok) {
    std::fprintf(stderr, "atlasbench: inconsistent TCP workload parameters\n");
    std::exit(2);
  }
  return s;
}

// The one place a TCP workload's replica is assembled: Atlas, n=3, f=1, the
// threaded runtime, no NFR; partitions and batching from the workload.
// data_dir (durable workloads) is filled per replica by the cluster.
smr::DeploymentOptions MakeDeployment(const TcpSpec& spec) {
  smr::DeploymentOptions d;
  d.protocol = smr::Protocol::kAtlas;
  d.n = kNodes;
  d.f = 1;
  d.nfr = false;
  d.threaded = true;
  d.partitions = spec.partitions;
  d.batch_window = spec.batch_window;
  d.batch_max = kBatchMax;
  return d;
}

std::unique_ptr<wl::Workload> MakeWorkload(const TcpSpec& spec) {
  if (spec.mix == "partitioned_micro") {
    return std::make_unique<wl::PartitionedMicroWorkload>(spec.partitions, spec.conflict,
                                                          kValueBytes);
  }
  if (spec.mix == "ycsb") {
    return std::make_unique<wl::YcsbWorkload>(spec.keys, spec.read_pct, kValueBytes);
  }
  return nullptr;
}

// The schedule up to the ramp, whose steps RunOnce appends as it goes.
void MakeSchedule(const TcpSpec& spec, double seconds, Schedule* s) {
  s->Add("warmup", spec.high_rate, kWarmupS);
  s->Add("gap", 0, kGapS);
  const double window_s = seconds * kWindowShare / (2 * kWindows);
  for (int w = 0; w < kWindows; w++) {
    s->Add("base", spec.base_rate, window_s);
    s->Add("high", spec.high_rate, window_s);
  }
}

double StepSeconds(double seconds) {
  return seconds * (1 - kWindowShare) / kRampSteps - kGapS;
}

// The ramp's rate search. Coarse steps climb from ramp_from until one fails;
// then fine steps climb from the best rate passed until two fine steps in a
// row fail, so one step hit by a transient stall does not end the search.
// Until a step passes, each failure steps down coarsely. A step's rate is at
// most ramp_from * kCoarse^k, which bounds the requests a ramp can send.
class RampSearch {
 public:
  explicit RampSearch(double from) : rate_(from) {}
  double rate() const { return rate_; }
  double best() const { return best_; }

  // Records the verdict on rate() and moves to the next rate; false when the
  // search is over.
  bool Next(bool passed) {
    if (passed) {
      best_ = std::max(best_, rate_);
      fails_in_row_ = 0;
      rate_ *= fine_ ? kFine : kCoarse;
      return true;
    }
    fails_in_row_++;
    if (best_ == 0) {
      rate_ /= kCoarse;
    } else if (!fine_) {
      fine_ = true;
      fails_in_row_ = 0;
      rate_ = best_ * kFine;
    } else if (fails_in_row_ >= 2) {
      return false;
    } else {
      rate_ *= kFine;
    }
    return true;
  }

 private:
  double rate_;
  double best_ = 0;
  bool fine_ = false;
  int fails_in_row_ = 0;
};

// ---------------------------------------------------------------------------
// The cluster.

class TcpCluster {
 public:
  // `traces`, when non-empty, holds one ReplicaTrace per replica whose factory
  // builds that replica's stores.
  TcpCluster(smr::DeploymentOptions opts, std::string data_root,
             std::vector<ReplicaTrace*> traces)
      : opts_(std::move(opts)), data_root_(std::move(data_root)),
        traces_(std::move(traces)) {}
  ~TcpCluster() { Stop(); }
  TcpCluster(const TcpCluster&) = delete;
  TcpCluster& operator=(const TcpCluster&) = delete;

  // Builds the deployments and nodes on a free block of 3 loopback ports and
  // starts every node's Run() on a thread of its own.
  bool Start(uint64_t port_seed) {
    for (int attempt = 0; attempt < 16; attempt++) {
      uint16_t base = static_cast<uint16_t>(
          20000 + (port_seed * 7919 + static_cast<uint64_t>(getpid()) * 131 +
                   static_cast<uint64_t>(attempt) * 977) % 40000);
      std::vector<rt::PeerAddress> addrs;
      for (uint32_t i = 0; i < kNodes; i++) {
        addrs.push_back(rt::PeerAddress{"127.0.0.1", static_cast<uint16_t>(base + i)});
      }
      bool ok = true;
      const std::string try_dir = data_root_ + "/try" + std::to_string(attempt);
      data_dirs_.clear();
      for (uint32_t i = 0; i < kNodes && ok; i++) {
        smr::DeploymentOptions d = opts_;
        if (!data_root_.empty()) {
          d.data_dir = try_dir + "/site-" + std::to_string(i);
          data_dirs_.push_back(d.data_dir);
        }
        if (!traces_.empty()) {
          d.state_machine_factory = traces_[i]->Factory();
        }
        replicas_.push_back(std::make_unique<smr::Deployment>(std::move(d)));
        nodes_.push_back(std::make_unique<rt::Node>(i, addrs, replicas_.back().get()));
        ok = nodes_.back()->Listen();
      }
      if (ok) {
        for (uint32_t i = 0; i < kNodes; i++) {
          // The node's shard workers inherit its CPU: they are created by
          // Run() once the mesh is up.
          threads_.emplace_back([this, i]() {
            PinSelfToCpu(static_cast<int>(i));
            nodes_[i]->Run();
          });
          ports_.push_back(addrs[i].port);
        }
        return true;
      }
      nodes_.clear();
      replicas_.clear();
      if (!data_root_.empty()) {
        std::filesystem::remove_all(try_dir);
      }
    }
    return false;
  }

  // Stops every node and joins its Run() thread (which joins the node's shard
  // workers); the deployments stay readable afterwards.
  void Stop() {
    for (auto& n : nodes_) {
      n->Stop();
    }
    for (auto& t : threads_) {
      t.join();
    }
    threads_.clear();
  }

  uint16_t port(uint32_t i) const { return ports_[i]; }
  rt::Node& node(uint32_t i) { return *nodes_[i]; }
  smr::Deployment& replica(uint32_t i) { return *replicas_[i]; }
  pthread_t io_thread(uint32_t i) { return threads_[i].native_handle(); }
  uint64_t AppliedOps(uint32_t i) const { return nodes_[i]->applied_ops(); }
  // Replica i's data_dir (durable workloads).
  const std::string& data_dir(uint32_t i) const { return data_dirs_[i]; }

 private:
  smr::DeploymentOptions opts_;
  std::string data_root_;
  std::vector<ReplicaTrace*> traces_;
  std::vector<std::string> data_dirs_;
  // Declaration order: nodes borrow replicas, threads run nodes.
  std::vector<std::unique_ptr<smr::Deployment>> replicas_;
  std::vector<std::unique_ptr<rt::Node>> nodes_;
  std::vector<std::thread> threads_;
  std::vector<uint16_t> ports_;
};

// ---------------------------------------------------------------------------
// One run.

struct CpuSample {
  int64_t t_ns = 0;
  int64_t process = 0;
  int64_t io = 0;
  int64_t gen = 0;
  int64_t main = 0;
  int64_t syscalls = 0;
  int64_t gen_syscalls = 0;
  int64_t apply = 0;  // traced runs: store Apply time, all replicas
  HostCpu host;
};

// A ramp step and its verdict.
struct StepResult {
  Phase phase;
  uint64_t on_time = 0;  // requests answered within kP99LimitMs of their due time
  double growth = 0;     // backlog (due - answered) growth across the step
  bool passed = false;
};

struct RunOutcome {
  Schedule schedule;
  int64_t origin_ns = 0;  // absolute time the schedule's offsets count from
  std::vector<ReqOutcome> outcome;
  std::vector<double> setup_s;
  CpuSample window_start;
  CpuSample window_end;
  uint64_t window_ops = 0;  // replies received inside the CPU window
  double rss_mb = 0;        // peak RSS by the end of the base/high windows
  common::Histogram late_us;
  smr::EngineStats engine;
  uint64_t applied_per_replica = 0;
  uint64_t inputs_dropped = 0;
  uint64_t disk_bytes = 0;  // replica 0's data_dir at drain
  std::vector<StepResult> steps;
  double max_ops = 0;  // the ramp's best rate
  std::vector<std::unique_ptr<ReplicaTrace>> traces;  // traced runs only
  std::vector<std::string> errors;
};

void CloseAll(std::vector<int>& fds) {
  for (int fd : fds) {
    if (fd >= 0) {
      close(fd);
    }
  }
  fds.clear();
}

// Builds a cluster, connects, and waits for one reply per connection.
std::unique_ptr<TcpCluster> SetUp(const TcpSpec& spec, const RunConfig& cfg,
                                  const std::string& data_root,
                                  std::vector<ReplicaTrace*> traces, std::vector<int>* fds,
                                  std::string* error) {
  auto cluster =
      std::make_unique<TcpCluster>(MakeDeployment(spec), data_root, std::move(traces));
  if (!cluster->Start(cfg.seed)) {
    *error = "could not bind a block of 3 loopback ports";
    return nullptr;
  }
  const int64_t deadline = NowNs() + 10 * 1000000000LL;
  for (uint32_t c = 0; c < kNodes; c++) {
    int fd = -1;
    while (fd < 0 && NowNs() < deadline) {
      fd = Dial(cluster->port(c));
      if (fd < 0) {
        usleep(1000);
      }
    }
    fds->push_back(fd);
    if (fd < 0) {
      *error = "could not connect to replica " + std::to_string(c);
      return nullptr;
    }
  }
  std::vector<uint8_t> frame;
  codec::Writer w;
  for (uint32_t c = 0; c < kNodes; c++) {
    std::string key = "probe-" + std::to_string(c);
    smr::Command probe = smr::MakePut(kProbeClientBase + c, 1, key,
                                      StampValue(key, kProbeClientBase + c, 1, 16));
    frame.clear();
    AppendFrame(frame, w, probe);
    if (!WriteAll((*fds)[c], frame.data(), frame.size()) ||
        !AwaitReply((*fds)[c], deadline)) {
      *error = "no reply to the set-up probe on replica " + std::to_string(c);
      return nullptr;
    }
  }
  return cluster;
}

CpuSample Sample(TcpCluster& cluster, Generator& gen,
                 const std::vector<std::unique_ptr<ReplicaTrace>>& traces) {
  CpuSample s;
  s.t_ns = NowNs();
  s.process = ProcessCpuNs();
  for (uint32_t i = 0; i < kNodes; i++) {
    s.io += ThreadCpuNs(cluster.io_thread(i));
  }
  for (pthread_t t : gen.threads()) {
    s.gen += ThreadCpuNs(t);
  }
  s.main = SelfThreadCpuNs();
  s.syscalls = ProcessSyscalls();
  for (int tid : gen.tids()) {
    s.gen_syscalls += ThreadSyscalls(tid);
  }
  for (const auto& t : traces) {
    s.apply += t->ApplyNs();
  }
  s.host = ReadHostCpu();
  return s;
}

// Judges a ramp step once kGapS has passed since its end: no reply that
// arrives later can be within kP99LimitMs of its due time. `answered` is the
// replies the receiver handled while the step ran.
StepResult Judge(const Phase& p, uint64_t on_time, uint64_t answered) {
  StepResult r;
  r.phase = p;
  r.on_time = on_time;
  r.growth = static_cast<double>(p.count) - static_cast<double>(answered);
  // Percentile()'s p99 is within the limit when its rank's value is.
  const uint64_t need =
      std::min<uint64_t>(p.count - 1, static_cast<uint64_t>(0.99 * static_cast<double>(p.count))) +
      1;
  r.passed = p.count > 0 && on_time >= need && r.growth <= p.rate * kP99LimitMs / 1e3;
  return r;
}

// Runs the ramp on a live generator: appends each step as the previous one
// is judged, until the search ends or the steps run out. A step starts once
// the previous one's backlog has drained (or kRampDrainS has passed), so an
// overloaded step does not fail the next.
void RunRamp(const TcpSpec& spec, double seconds, const Generator& gen, int64_t origin,
             RunOutcome* run) {
  const double step_s = StepSeconds(seconds);
  const int64_t gap_ns = static_cast<int64_t>(kGapS * 1e9);
  constexpr int64_t kLeadNs = 2000000;  // lets the sender pick the step up in time
  RampSearch ramp(spec.ramp_from);
  for (int k = 0; k < kRampSteps; k++) {
    const int64_t not_before =
        std::max(run->schedule.end_ns() + gap_ns, NowNs() - origin + kLeadNs);
    const Phase p = run->schedule.Add("step", ramp.rate(), step_s, not_before);
    const size_t index = run->schedule.phases().size() - 1;
    SleepUntilNs(origin + p.start_ns);
    const uint64_t handled_at_start = gen.handled();
    SleepUntilNs(origin + p.end_ns);
    const uint64_t handled_at_end = gen.handled();
    SleepUntilNs(origin + p.end_ns + gap_ns);
    run->steps.push_back(Judge(p, gen.on_time(index), handled_at_end - handled_at_start));
    if (!ramp.Next(run->steps.back().passed)) {
      break;
    }
    const int64_t drain_deadline = NowNs() + static_cast<int64_t>(kRampDrainS * 1e9);
    while (gen.handled() < gen.sent_total() && NowNs() < drain_deadline) {
      usleep(1000);
    }
  }
  run->max_ops = ramp.best();
}

// The most requests a run can send: the schedule before the ramp, plus every
// step at its largest possible rate (see RampSearch).
uint64_t Capacity(const TcpSpec& spec, const Schedule& before_ramp, double seconds) {
  double n = static_cast<double>(before_ramp.total());
  double rate = spec.ramp_from;
  for (int k = 0; k < kRampSteps; k++) {
    n += std::ceil(rate * StepSeconds(seconds)) + 1;
    rate *= kCoarse;
  }
  return static_cast<uint64_t>(n);
}

RunOutcome RunOnce(const TcpSpec& spec, const RunConfig& cfg, bool traced) {
  RunOutcome run;
  MakeSchedule(spec, cfg.seconds, &run.schedule);
  const Schedule& sched = run.schedule;
  const std::string data_base =
      spec.durable ? cfg.out_dir + "/data-" + std::to_string(getpid()) : "";

  // Set-up, measured kSetupReps times; the last cluster is kept.
  std::unique_ptr<TcpCluster> cluster;
  std::vector<int> fds;
  std::string data_root;
  for (int rep = 0; rep < kSetupReps; rep++) {
    if (cluster != nullptr) {
      CloseAll(fds);
      cluster.reset();
      run.traces.clear();
    }
    if (!data_root.empty()) {
      std::filesystem::remove_all(data_root);
    }
    data_root = spec.durable ? data_base + "/rep" + std::to_string(rep) : "";
    std::vector<ReplicaTrace*> trace_ptrs;
    if (traced) {
      for (uint32_t i = 0; i < kNodes; i++) {
        run.traces.push_back(std::make_unique<ReplicaTrace>(i + 1, sched.total() / kNodes + 16));
        trace_ptrs.push_back(run.traces.back().get());
      }
    }
    std::string error;
    int64_t t0 = NowNs();
    cluster = SetUp(spec, cfg, data_root, trace_ptrs, &fds, &error);
    if (cluster == nullptr) {
      run.errors.push_back("set-up: " + error);
      CloseAll(fds);
      if (!data_base.empty()) {
        std::filesystem::remove_all(data_base);
      }
      return run;
    }
    run.setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  std::unique_ptr<wl::Workload> workload = MakeWorkload(spec);
  Generator gen(sched, fds, workload.get(), cfg.seed, kValueBytes,
                Capacity(spec, sched, cfg.seconds),
                static_cast<int64_t>(kP99LimitMs * 1e6));
  const int64_t origin = NowNs() + 5 * 1000000;
  run.origin_ns = origin;
  gen.Start(origin, static_cast<int>(kNodes));

  // Per-layer CPU window and the memory figure: the base/high windows.
  SleepUntilNs(origin + sched.FirstWindow().start_ns);
  run.window_start = Sample(*cluster, gen, run.traces);
  SleepUntilNs(origin + sched.LastWindow().end_ns);
  run.window_end = Sample(*cluster, gen, run.traces);
  run.rss_mb = PeakRssMb();
  RunRamp(spec, cfg.seconds, gen, origin, &run);
  run.schedule.Close();
  gen.JoinSender();
  if (gen.send_failed()) {
    run.errors.push_back("a write to a replica failed");
  }

  // Drain: every reply or the deadline; then equal applied_ops everywhere.
  const uint64_t sent = gen.sent_total();
  const uint64_t expected_applied = sent + kNodes;  // + the set-up probes
  const int64_t deadline = NowNs() + static_cast<int64_t>(kDrainS * 1e9);
  while (gen.handled() < sent && NowNs() < deadline) {
    usleep(2000);
  }
  if (gen.handled() < sent) {
    std::fprintf(stderr, "atlasbench: drain deadline passed with %llu of %llu replies outstanding\n",
                 static_cast<unsigned long long>(sent - gen.handled()),
                 static_cast<unsigned long long>(sent));
  }
  auto applied_converged = [&]() {
    for (uint32_t i = 0; i < kNodes; i++) {
      if (cluster->AppliedOps(i) != expected_applied) {
        return false;
      }
    }
    return true;
  };
  while (!applied_converged() && NowNs() < deadline) {
    usleep(2000);
  }
  if (!applied_converged()) {
    std::string counts;
    for (uint32_t i = 0; i < kNodes; i++) {
      counts += " " + std::to_string(cluster->AppliedOps(i));
    }
    run.errors.push_back("applied_ops did not converge to " +
                         std::to_string(expected_applied) + " by the drain deadline:" +
                         counts);
  }
  gen.StopReceiver();
  CloseAll(fds);
  for (uint32_t i = 0; i < kNodes; i++) {
    if (cluster->node(i).shard_runtime() != nullptr) {
      run.inputs_dropped += cluster->node(i).shard_runtime()->inputs_dropped();
    }
  }
  cluster->Stop();

  // Replica agreement, per shard.
  for (uint32_t s = 0; s < spec.partitions; s++) {
    const uint64_t digest = cluster->replica(0).store(s).StateDigest();
    const uint64_t count = cluster->replica(0).applied_count(s);
    for (uint32_t i = 1; i < kNodes; i++) {
      if (cluster->replica(i).store(s).StateDigest() != digest ||
          cluster->replica(i).applied_count(s) != count) {
        run.errors.push_back("shard " + std::to_string(s) + ": replica " +
                             std::to_string(i) + " disagrees with replica 0");
      }
    }
  }
  uint64_t applied = 0;
  for (uint32_t s = 0; s < spec.partitions; s++) {
    applied += cluster->replica(0).applied_count(s);
  }
  run.applied_per_replica = applied;
  for (uint32_t i = 0; i < kNodes; i++) {
    run.engine += cluster->replica(i).stats();
  }
  if (gen.bad_frames() != 0 || gen.unsolicited() != 0) {
    run.errors.push_back(std::to_string(gen.bad_frames()) + " malformed and " +
                         std::to_string(gen.unsolicited()) + " unsolicited replies");
  }
  if (spec.durable) {
    run.disk_bytes = DirBytes(cluster->data_dir(0));
  }
  cluster.reset();
  if (!data_base.empty()) {
    std::filesystem::remove_all(data_base);
  }

  run.outcome = gen.outcome();
  run.late_us = gen.late();
  for (const ReqOutcome& o : run.outcome) {
    if (o.status == kOk && o.recv_ns >= run.window_start.t_ns - origin &&
        o.recv_ns < run.window_end.t_ns - origin) {
      run.window_ops++;
    }
  }
  return run;
}

// ---------------------------------------------------------------------------
// Metrics.

constexpr double kInf = std::numeric_limits<double>::infinity();

// Latencies (ms, from due time) of a phase's requests; failures read as +inf.
std::vector<double> PhaseLatencies(const RunOutcome& run, const Phase& p) {
  std::vector<double> v;
  v.reserve(p.count);
  for (uint64_t i = p.first; i < p.first + p.count; i++) {
    const ReqOutcome& o = run.outcome[i];
    v.push_back(o.status == kOk
                    ? static_cast<double>(o.recv_ns - run.schedule.DueNs(i)) / 1e6
                    : kInf);
  }
  return v;
}

// Prints each ramp step's figures and verdict to stderr.
void ReportSteps(const RunOutcome& run) {
  for (const StepResult& r : run.steps) {
    std::vector<double> lat = PhaseLatencies(run, r.phase);
    const double p50 = Percentile(lat, 50);
    std::fprintf(stderr,
                 "atlasbench: step %8.0f/s  p50 %8.3f ms  p99 %9.3f ms  backlog %+8.0f  %s\n",
                 r.phase.rate, p50, Percentile(lat, 99), r.growth, r.passed ? "ok" : "over");
  }
}

// Latency at a fixed rate, over all of its windows' requests.
void AddLatencies(RunResult& res, const RunOutcome& run, const char* phase,
                  const char* suffix) {
  std::vector<double> lat;
  for (const Phase* p : run.schedule.Named(phase)) {
    std::vector<double> w = PhaseLatencies(run, *p);
    lat.insert(lat.end(), w.begin(), w.end());
  }
  const uint64_t n = lat.size();
  res.Add(std::string("p50_ms") + suffix, Percentile(lat, 50), "ms", n);
  res.Add(std::string("p90_ms") + suffix, Percentile(lat, 90), "ms", n);
  res.Add(std::string("p99_ms") + suffix, Percentile(lat, 99), "ms", n);
}

void CheckRun(RunResult& res, const RunOutcome& run) {
  for (const std::string& e : run.errors) {
    res.Fail(e);
  }
  uint64_t failed = 0;
  uint64_t by_status[5] = {0, 0, 0, 0, 0};
  for (const ReqOutcome& o : run.outcome) {
    by_status[o.status]++;
    failed += o.status != kOk;
  }
  res.attempted += run.schedule.total();
  res.failed += failed + (run.schedule.total() - run.outcome.size());
  if (failed != 0) {
    res.Fail(std::to_string(by_status[kPending]) + " unanswered, " +
             std::to_string(by_status[kDropped]) + " dropped, " +
             std::to_string(by_status[kDuplicate]) + " duplicated, " +
             std::to_string(by_status[kWrongValue]) + " wrong-valued replies");
  }
  if (run.engine.recoveries_started != 0) {
    res.Fail("engine.recoveries = " + std::to_string(run.engine.recoveries_started) +
             " in a fault-free run");
  }
}

double PerOp(double v, uint64_t ops) {
  return ops > 0 ? v / static_cast<double>(ops) : 0;
}

// CPU of every thread the window saw, per answered request (us).
double CpuUsPerOp(const RunOutcome& run) {
  return PerOp(static_cast<double>(run.window_end.process - run.window_start.process) / 1e3,
               run.window_ops);
}

void AddLayerMetrics(RunResult& res, const RunOutcome& run) {
  const CpuSample& a = run.window_start;
  const CpuSample& b = run.window_end;
  const double proc = static_cast<double>(b.process - a.process);
  const double io = static_cast<double>(b.io - a.io);
  const double gen = static_cast<double>(b.gen - a.gen);
  const double main = static_cast<double>(b.main - a.main);
  const uint64_t ops = run.window_ops;
  res.Add("gen.late_p99_ms", static_cast<double>(run.late_us.Percentile(99)) / 1e3, "ms",
          run.late_us.count());
  res.Add("gen.cpu_share", proc > 0 ? gen / proc : 0, "ratio", ops);
  res.Add("rt.io_cpu_us_per_op", PerOp(io / 1e3, ops), "us", ops);
  res.Add("rt.syscalls_per_op",
          PerOp(static_cast<double>((b.syscalls - a.syscalls) - (b.gen_syscalls - a.gen_syscalls)),
                ops),
          "count", ops);
  const int64_t host_ticks = b.host.total - a.host.total;
  res.Add("host.steal_share",
          host_ticks > 0 ? static_cast<double>(b.host.steal - a.host.steal) /
                               static_cast<double>(host_ticks)
                         : 0,
          "ratio", 1);
  res.Add("rt.inputs_dropped", static_cast<double>(run.inputs_dropped), "count", 1);
  res.Add("worker.cpu_us_per_op", PerOp((proc - io - gen - main) / 1e3, ops), "us", ops);
  const smr::EngineStats& e = run.engine;
  const uint64_t client_ops = run.applied_per_replica * kNodes;
  res.Add("engine.cmds_per_op", PerOp(static_cast<double>(e.executed), client_ops), "ratio",
          client_ops);
  res.Add("engine.msgs_per_op",
          PerOp(static_cast<double>(e.messages_sent), run.applied_per_replica), "count",
          run.applied_per_replica);
  const uint64_t paths = e.fast_paths + e.slow_paths;
  res.Add("engine.fast_path_ratio",
          paths > 0 ? static_cast<double>(e.fast_paths) / static_cast<double>(paths) : 0,
          "ratio", paths);
  res.Add("engine.recoveries", static_cast<double>(e.recoveries_started), "count", 1);
  res.Add("dur.disk_bytes_per_op",
          PerOp(static_cast<double>(run.disk_bytes), run.applied_per_replica), "B",
          run.applied_per_replica);
}

// Span-derived metrics of a traced run, and the span dump: the base windows'
// request spans (due -> reply read) with their apply child spans at the
// replica the client is connected to, plus every snapshot span.
void AddSpanMetrics(RunResult& res, const RunOutcome& run, const RunConfig& cfg) {
  const Schedule& sched = run.schedule;
  const uint64_t total = sched.total();
  const int64_t w0 = sched.FirstWindow().start_ns;
  const int64_t w1 = sched.LastWindow().end_ns;
  std::vector<int64_t> apply_start(total, 0);
  std::vector<int64_t> apply_end(total, 0);
  std::vector<double> apply_us;
  struct Snap {
    uint32_t node;
    int64_t start;
    int64_t end;
  };
  std::vector<Snap> snaps;
  std::vector<double> snapshot_ms;
  for (uint32_t node = 0; node < run.traces.size(); node++) {
    for (const auto& store : run.traces[node]->stores()) {
      for (const ApplySpan& a : store->applies) {
        uint64_t i = (a.seq - 1) * kNodes + node;
        if (a.seq == 0 || i >= total) {
          continue;
        }
        apply_start[i] = a.start_ns - run.origin_ns;
        apply_end[i] = a.end_ns - run.origin_ns;
        if (apply_start[i] >= w0 && apply_start[i] < w1) {
          apply_us.push_back(static_cast<double>(a.end_ns - a.start_ns) / 1e3);
        }
      }
      for (const SnapshotSpan& sp : store->snapshots) {
        snaps.push_back(Snap{node, sp.start_ns - run.origin_ns, sp.end_ns - run.origin_ns});
        snapshot_ms.push_back(static_cast<double>(sp.end_ns - sp.start_ns) / 1e6);
      }
    }
  }

  std::vector<double> to_apply;
  std::vector<double> after_apply;
  const std::string path = cfg.out_dir + "/spans-" + cfg.workload + "-seed" +
                           std::to_string(cfg.seed) + ".tsv";
  FILE* out = std::fopen(path.c_str(), "w");
  if (out != nullptr) {
    std::fprintf(out, "name\tstart_ns\tend_ns\tparent\tid\n");
  }
  std::vector<uint64_t> base_requests;
  for (const Phase* p : sched.Named("base")) {
    for (uint64_t i = p->first; i < p->first + p->count; i++) {
      base_requests.push_back(i);
    }
  }
  for (uint64_t i : base_requests) {
    const ReqOutcome& o = run.outcome[i];
    if (o.status != kOk || apply_end[i] == 0) {
      continue;
    }
    const int64_t due = sched.DueNs(i);
    to_apply.push_back(static_cast<double>(apply_start[i] - due) / 1e6);
    after_apply.push_back(static_cast<double>(o.recv_ns - apply_end[i]) / 1e6);
    if (out != nullptr) {
      const unsigned long long client = i % kNodes + 1;
      const unsigned long long seq = i / kNodes + 1;
      std::fprintf(out, "request\t%lld\t%lld\t-\t%llu:%llu\n", static_cast<long long>(due),
                   static_cast<long long>(o.recv_ns), client, seq);
      std::fprintf(out, "apply\t%lld\t%lld\trequest\t%llu:%llu\n",
                   static_cast<long long>(apply_start[i]),
                   static_cast<long long>(apply_end[i]), client, seq);
    }
  }
  if (out != nullptr) {
    for (const Snap& sp : snaps) {
      std::fprintf(out, "snapshot\t%lld\t%lld\t-\treplica%u\n",
                   static_cast<long long>(sp.start), static_cast<long long>(sp.end), sp.node);
    }
    std::fclose(out);
  }

  res.Add("req.to_apply_ms_p50", Percentile(to_apply, 50), "ms", to_apply.size());
  res.Add("req.to_apply_ms_p99", Percentile(to_apply, 99), "ms", to_apply.size());
  res.Add("req.after_apply_ms_p50", Percentile(after_apply, 50), "ms", after_apply.size());
  res.Add("req.after_apply_ms_p99", Percentile(after_apply, 99), "ms", after_apply.size());
  res.Add("kvs.apply_us_p50", Percentile(apply_us, 50), "us", apply_us.size());
  res.Add("kvs.apply_us_p99", Percentile(apply_us, 99), "us", apply_us.size());
  const CpuSample& a = run.window_start;
  const CpuSample& b = run.window_end;
  const double worker =
      static_cast<double>((b.process - a.process) - (b.io - a.io) - (b.gen - a.gen) -
                          (b.main - a.main));
  res.Add("kvs.apply_share",
          worker > 0 ? static_cast<double>(b.apply - a.apply) / worker : 0, "ratio",
          apply_us.size());
  res.Add("dur.snapshots", static_cast<double>(snapshot_ms.size()), "count", 1);
  res.Add("dur.snapshot_ms_p50", Percentile(snapshot_ms, 50), "ms", snapshot_ms.size());
  res.Add("dur.snapshot_ms_max", Percentile(snapshot_ms, 100), "ms", snapshot_ms.size());
}

// The p50_ms figure: p50 over the base windows' requests.
double BaseP50(const RunOutcome& run) {
  std::vector<double> lat;
  for (const Phase* p : run.schedule.Named("base")) {
    std::vector<double> w = PhaseLatencies(run, *p);
    lat.insert(lat.end(), w.begin(), w.end());
  }
  return Percentile(lat, 50);
}

}  // namespace

RunResult RunTcp(const RunConfig& cfg) {
  const TcpSpec spec = ParseSpec(cfg.params);
  RunResult res;
  if (MakeWorkload(spec) == nullptr) {
    res.Fail("unknown mix " + spec.mix);
    return res;
  }
  if (cfg.seconds * (1 - kWindowShare) / kRampSteps <= kGapS) {
    res.Fail("--seconds leaves no time for the ramp steps after their gaps");
    return res;
  }
  RunOutcome run = RunOnce(spec, cfg, /*traced=*/false);
  CheckRun(res, run);
  if (!run.setup_s.empty()) {
    res.Add("setup_s", Median(run.setup_s), "s", run.setup_s.size());
  }
  if (run.outcome.empty()) {
    return res;
  }
  AddLatencies(res, run, "base", "");
  AddLatencies(res, run, "high", "_high");
  ReportSteps(run);
  res.Add("max_ops_s", run.max_ops, "1/s", run.steps.size());
  res.Add("rss_mb", run.rss_mb, "MiB", 1);
  AddLayerMetrics(res, run);

  if (cfg.trace) {
    // A second run with the tracing store gives the spans; the difference to
    // the untraced run above is the tracing overhead.
    const double plain_p50 = BaseP50(run);
    const double plain_cpu = CpuUsPerOp(run);
    const uint64_t plain_ops = run.window_ops;
    run = RunOutcome();
    RunOutcome traced = RunOnce(spec, cfg, /*traced=*/true);
    CheckRun(res, traced);
    if (!traced.outcome.empty()) {
      AddSpanMetrics(res, traced, cfg);
      res.Add("trace.overhead_p50_ms", BaseP50(traced) - plain_p50, "ms",
              traced.window_ops);
      res.Add("trace.overhead_cpu_us_per_op", CpuUsPerOp(traced) - plain_cpu, "us",
              std::min(plain_ops, traced.window_ops));
    }
  }
  res.Add("fail_frac", PerOp(static_cast<double>(res.failed), res.attempted), "ratio",
          res.attempted);
  return res;
}

}  // namespace atlasbench
