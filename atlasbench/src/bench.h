// Shared types of the repository benchmark: workload parameters, the result a
// run reports, and the two workload families (loopback TCP, WAN simulator).
#ifndef ATLASBENCH_SRC_BENCH_H_
#define ATLASBENCH_SRC_BENCH_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace atlasbench {

// Workload parameters as key=value strings (atlasbench/spec.json is their one
// source; run.py passes them as --param key=value). Every key must be read:
// Unused() names the ones nobody asked for, so a typo in the spec fails the
// run instead of silently falling back to a default.
class Params {
 public:
  // Parses "key=value"; false on a malformed entry.
  bool Add(const std::string& kv);
  double Num(const std::string& key) const;
  std::string Str(const std::string& key) const;
  std::vector<std::string> Unused() const;

 private:
  std::map<std::string, std::string> kv_;
  mutable std::set<std::string> used_;
};

struct RunConfig {
  std::string workload;
  std::string kind;  // "tcp" or "sim"
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  // spans and durable data directories live under it
  Params params;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;  // observations behind the value (requests, spans, runs)
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;

  void Fail(std::string why) {
    correct = false;
    errors.push_back(std::move(why));
  }
  void Add(std::string name, double value, std::string unit, uint64_t samples) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit), samples});
  }
};

RunResult RunTcp(const RunConfig& cfg);
RunResult RunSim(const RunConfig& cfg);

}  // namespace atlasbench

#endif  // ATLASBENCH_SRC_BENCH_H_
