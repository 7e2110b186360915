// The WAN-simulator workload: Atlas on the paper's 17-region RTT model.
//
// Clients sit at the 13 sim::ClientSites() and issue closed-loop §5.2
// microbenchmark commands (wl::MicroWorkload) against Atlas deployed at
// sim::ScaleOutSites(sites). Everything runs on the deterministic simulator,
// so for a fixed seed the latency figures are identical on every run; the
// seed moves the simulator's link jitter and the clients' command streams.
// The history checker runs on every load, and Cluster::Finish() must pass.
//
// Two loads run per call: `clients_per_site` (the base load) and
// `clients_per_site_high`. max_ops_s here is the simulated deployment's
// throughput at the high load: client commands completed per simulated second
// of the measure window (closed loop, so it is what the latency allows). The
// host's cost of simulating is sim.wall_us_per_cmd, a per-layer figure.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "atlasbench/src/bench.h"
#include "atlasbench/src/measure.h"
#include "src/harness/cluster.h"
#include "src/sim/regions.h"
#include "src/wl/workload.h"

namespace atlasbench {

namespace {

// Set-ups measured per run, before the loads; the fastest is reported (see
// SetUps).
constexpr int kSetupReps = 64;

struct SimSpec {
  uint32_t sites = 7;
  uint32_t f = 2;
  double conflict = 0.1;
  size_t value_bytes = 100;
  common::Duration warmup = 0;
  common::Duration measure = 0;
};

struct LoadResult {
  harness::Metrics metrics;
  std::vector<double> latency_us;  // client-perceived, measure window
  smr::EngineStats engine;
  uint64_t completed = 0;
  double run_wall_s = 0;  // RunFor only: the protocol stack at work
  bool ok = false;
  std::string error;
};

// Client-perceived latency with exact (unbucketed) percentiles. A harness
// client with no think time asks its workload for the next command at the
// instant its previous one completes, so the gap between a client's
// consecutive Next() calls is that command's latency. Records the commands
// that complete inside [from, to).
class TimedWorkload final : public wl::Workload {
 public:
  TimedWorkload(std::shared_ptr<wl::Workload> inner, const sim::Simulator* sim,
                common::Time from, common::Time to)
      : inner_(std::move(inner)), sim_(sim), from_(from), to_(to) {}

  smr::Command Next(uint64_t client, uint64_t seq, common::Rng& rng) override {
    common::Time now = sim_->Now();
    auto [it, fresh] = last_issue_.try_emplace(client, now);
    if (!fresh) {
      if (now >= from_ && now < to_) {
        latency_us_.push_back(static_cast<double>(now - it->second));
      }
      it->second = now;
    }
    return inner_->Next(client, seq, rng);
  }

  std::vector<double>& latency_us() { return latency_us_; }

 private:
  std::shared_ptr<wl::Workload> inner_;
  const sim::Simulator* sim_;
  common::Time from_;
  common::Time to_;
  std::unordered_map<uint64_t, common::Time> last_issue_;
  std::vector<double> latency_us_;
};

harness::ClusterOptions Options(const SimSpec& spec, uint64_t seed) {
  harness::ClusterOptions opts;
  opts.protocol = harness::Protocol::kAtlas;
  opts.f = spec.f;
  opts.site_regions = sim::ScaleOutSites(spec.sites);
  opts.seed = seed;
  opts.enable_checker = true;
  return opts;
}

void AddClients(harness::Cluster& cluster, std::shared_ptr<wl::Workload> workload,
                size_t clients_per_site) {
  for (size_t region : sim::ClientSites()) {
    harness::ClientSpec cs;
    cs.region = region;
    cs.workload = workload;
    cluster.AddClients(cs, clients_per_site);
  }
}

LoadResult RunLoad(const SimSpec& spec, uint64_t seed, size_t clients_per_site) {
  LoadResult r;
  harness::Cluster cluster(Options(spec, seed));
  auto timed = std::make_shared<TimedWorkload>(
      std::make_shared<wl::MicroWorkload>(spec.conflict, spec.value_bytes),
      &cluster.simulator(), spec.warmup, spec.warmup + spec.measure);
  AddClients(cluster, timed, clients_per_site);
  cluster.SetMeasureWindow(spec.warmup, spec.warmup + spec.measure);
  cluster.Start();
  const int64_t t0 = NowNs();
  cluster.RunFor(spec.warmup + spec.measure);
  r.run_wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  r.metrics = cluster.Snapshot();
  chk::CheckResult check = cluster.Finish(/*abort_on_error=*/false);
  r.completed = cluster.total_completed();
  r.latency_us = std::move(timed->latency_us());
  for (uint32_t p = 0; p < cluster.n(); p++) {
    r.engine += cluster.replica(p).stats();
  }
  r.ok = check.ok && cluster.InFlightClients() == 0;
  if (!check.ok) {
    r.error = check.Describe();
  } else if (!r.ok) {
    r.error = std::to_string(cluster.InFlightClients()) +
              " client(s) still waiting after Finish()";
  }
  return r;
}

// Set-up: building the seven-site deployment and starting its clients. The
// simulator is single-threaded and does no I/O, so its set-up is timed in CPU
// time: wall time doubles whenever another process shares the core. Even CPU
// time is not steady on a virtual machine: a vCPU whose hardware sibling
// thread is busy runs the same set-up about 1.7x slower, and which vCPUs are
// slowed changes within seconds. So the reps cycle over every CPU and the
// fastest is the figure: the set-up's cost on an unshared core. They run back
// to back (a pause between reps leaves each one cold) and before the loads,
// whose leftover heap slows later set-ups.
void SetUps(const SimSpec& spec, uint64_t seed, size_t clients, std::vector<double>* out) {
  for (int i = 0; i < kSetupReps; i++) {
    PinSelfToCpu(i % OnlineCpus());
    const int64_t t0 = SelfThreadCpuNs();
    {
      harness::Cluster cluster(Options(spec, seed));
      AddClients(cluster, std::make_shared<wl::MicroWorkload>(spec.conflict, spec.value_bytes),
                 clients);
      cluster.Start();
      out->push_back(static_cast<double>(SelfThreadCpuNs() - t0) / 1e9);
    }
  }
  PinSelfToCpu(-1);
}

double Ms(int64_t us) { return static_cast<double>(us) / 1000.0; }
double Ms(double us) { return us / 1000.0; }

}  // namespace

RunResult RunSim(const RunConfig& cfg) {
  const Params& p = cfg.params;
  SimSpec spec;
  spec.sites = static_cast<uint32_t>(p.Num("sites"));
  spec.f = static_cast<uint32_t>(p.Num("f"));
  spec.conflict = p.Num("conflict");
  spec.value_bytes = static_cast<size_t>(p.Num("value_bytes"));
  spec.warmup = static_cast<common::Duration>(p.Num("warmup_s") * common::kSecond);
  spec.measure = static_cast<common::Duration>(p.Num("measure_s") * common::kSecond);
  const size_t base_clients = static_cast<size_t>(p.Num("clients_per_site"));
  const size_t high_clients = static_cast<size_t>(p.Num("clients_per_site_high"));

  RunResult res;
  std::vector<double> setups;
  SetUps(spec, cfg.seed, base_clients, &setups);
  LoadResult base = RunLoad(spec, cfg.seed, base_clients);
  // Memory is taken after the base load: at the high load, whether
  // execution-wait chains pile up depends on the seed, and with them the
  // simulator's memory (140 or 200 MiB).
  const double rss_mb = PeakRssMb();
  LoadResult high = RunLoad(spec, cfg.seed, high_clients);
  res.attempted = base.completed + high.completed;
  for (const LoadResult* r : {&base, &high}) {
    if (!r->ok) {
      res.Fail("checker: " + r->error);
    }
  }
  if (!res.correct) {
    res.failed = res.attempted;
  }

  const harness::Metrics& bm = base.metrics;
  const uint64_t nb = base.latency_us.size();
  const uint64_t nh = high.latency_us.size();
  for (double pct : {50, 90, 99}) {
    const std::string name = "p" + std::to_string(static_cast<int>(pct)) + "_ms";
    res.Add(name, Ms(Percentile(base.latency_us, pct)), "ms", nb);
    res.Add(name + "_high", Ms(Percentile(high.latency_us, pct)), "ms", nh);
  }
  res.Add("max_ops_s", high.metrics.ThroughputOpsPerSec(), "1/s",
          high.metrics.completed_in_window);
  res.Add("setup_s", *std::min_element(setups.begin(), setups.end()), "s", setups.size());
  res.Add("rss_mb", rss_mb, "MiB", 1);

  // Per-layer: the base load is the paper-sized point these describe.
  const double ops = static_cast<double>(base.completed > 0 ? base.completed : 1);
  res.Add("fail_frac", static_cast<double>(res.failed) / static_cast<double>(
                           res.attempted > 0 ? res.attempted : 1),
          "ratio", res.attempted);
  res.Add("core.commit_p50_ms", Ms(bm.commit_latency.Percentile(50)), "ms",
          bm.commit_latency.count());
  res.Add("core.commit_p99_ms", Ms(bm.commit_latency.Percentile(99)), "ms",
          bm.commit_latency.count());
  res.Add("sim.bytes_per_cmd", static_cast<double>(bm.bytes_sent) / ops, "B",
          base.completed);
  res.Add("sim.wall_us_per_cmd", base.run_wall_s * 1e6 / ops, "us", base.completed);
  const smr::EngineStats& e = base.engine;
  const double n = static_cast<double>(spec.sites);
  res.Add("engine.cmds_per_op", static_cast<double>(e.executed) / (n * ops), "ratio",
          base.completed);
  res.Add("engine.msgs_per_op", static_cast<double>(e.messages_sent) / ops, "count",
          base.completed);
  const uint64_t paths = e.fast_paths + e.slow_paths;
  res.Add("engine.fast_path_ratio",
          paths > 0 ? static_cast<double>(e.fast_paths) / static_cast<double>(paths) : 0,
          "ratio", paths);
  res.Add("engine.recoveries", static_cast<double>(e.recoveries_started), "count", 1);
  if (e.recoveries_started != 0) {
    res.Fail("engine.recoveries = " + std::to_string(e.recoveries_started) +
             " in a fault-free run");
  }
  return res;
}

}  // namespace atlasbench
