// atlasbench: one run of one benchmark workload.
//
//   atlasbench --workload NAME --kind tcp|sim --seed N --seconds S --trace 0|1
//              --out-dir DIR [--param key=value ...]
//
// Normally invoked by atlasbench/run.py, which reads the workload's
// parameters from atlasbench/spec.json. Prints one JSON line on stdout with
// every metric it measured (value, unit, sample count), the request counts and
// the correctness verdict; run.py turns it into the benchmark's result line.
// Exits 0 when the run completed, whether or not it was correct (the verdict
// is in the JSON), and 2 on a usage error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "atlasbench/src/bench.h"

namespace atlasbench {

bool Params::Add(const std::string& kv) {
  size_t eq = kv.find('=');
  if (eq == std::string::npos || eq == 0) {
    return false;
  }
  kv_[kv.substr(0, eq)] = kv.substr(eq + 1);
  return true;
}

double Params::Num(const std::string& key) const {
  std::string s = Str(key);
  char* end = nullptr;
  double v = std::strtod(s.c_str(), &end);
  if (s.empty() || end == nullptr || *end != '\0' || !std::isfinite(v)) {
    std::fprintf(stderr, "atlasbench: parameter %s=%s is not a number\n", key.c_str(),
                 s.c_str());
    std::exit(2);
  }
  return v;
}

std::string Params::Str(const std::string& key) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) {
    std::fprintf(stderr, "atlasbench: missing parameter %s\n", key.c_str());
    std::exit(2);
  }
  used_.insert(key);
  return it->second;
}

std::vector<std::string> Params::Unused() const {
  std::vector<std::string> out;
  for (const auto& [k, v] : kv_) {
    if (used_.count(k) == 0) {
      out.push_back(k);
    }
  }
  return out;
}

}  // namespace atlasbench

namespace {

void PrintJsonString(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      std::printf("\\%c", c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::printf("\\u%04x", c);
    } else {
      std::putchar(c);
    }
  }
  std::putchar('"');
}

int Usage() {
  std::fprintf(stderr,
               "usage: atlasbench --workload NAME --kind tcp|sim --seed N --seconds S "
               "--trace 0|1 --out-dir DIR [--param key=value ...]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  atlasbench::RunConfig cfg;
  for (int i = 1; i < argc; i++) {
    std::string a = argv[i];
    if (i + 1 >= argc) {
      return Usage();
    }
    std::string v = argv[++i];
    if (a == "--workload") {
      cfg.workload = v;
    } else if (a == "--kind") {
      cfg.kind = v;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      cfg.seconds = std::atof(v.c_str());
    } else if (a == "--trace") {
      cfg.trace = v == "1";
    } else if (a == "--out-dir") {
      cfg.out_dir = v;
    } else if (a == "--param") {
      if (!cfg.params.Add(v)) {
        return Usage();
      }
    } else {
      return Usage();
    }
  }
  if (cfg.workload.empty() || cfg.out_dir.empty() || cfg.seconds <= 0 ||
      (cfg.kind != "tcp" && cfg.kind != "sim")) {
    return Usage();
  }

  atlasbench::RunResult res =
      cfg.kind == "tcp" ? atlasbench::RunTcp(cfg) : atlasbench::RunSim(cfg);
  for (const std::string& k : cfg.params.Unused()) {
    std::fprintf(stderr, "atlasbench: parameter %s is not used by %s workloads\n",
                 k.c_str(), cfg.kind.c_str());
    return 2;
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"errors\": [",
              res.correct ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed));
  for (size_t i = 0; i < res.errors.size(); i++) {
    std::printf(i == 0 ? "" : ", ");
    PrintJsonString(res.errors[i]);
  }
  std::printf("], \"metrics\": {");
  for (size_t i = 0; i < res.metrics.size(); i++) {
    const atlasbench::Metric& m = res.metrics[i];
    std::printf(i == 0 ? "" : ", ");
    PrintJsonString(m.name);
    std::printf(": {\"value\": %.17g, \"unit\": ", std::isfinite(m.value) ? m.value : 0.0);
    PrintJsonString(m.unit);
    std::printf(", \"samples\": %llu}", static_cast<unsigned long long>(m.samples));
  }
  std::printf("}}\n");
  return 0;
}
