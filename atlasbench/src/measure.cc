#include "atlasbench/src/measure.h"

#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

namespace atlasbench {

namespace {

int64_t ClockNs(clockid_t id) {
  struct timespec ts;
  if (clock_gettime(id, &ts) != 0) {
    return 0;
  }
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

int64_t SyscallsFrom(const char* path) {
  FILE* f = std::fopen(path, "r");
  if (f == nullptr) {
    return -1;
  }
  char line[128];
  int64_t total = 0;
  int found = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    long long v = 0;
    if (std::sscanf(line, "syscr: %lld", &v) == 1 ||
        std::sscanf(line, "syscw: %lld", &v) == 1) {
      total += v;
      found++;
    }
  }
  std::fclose(f);
  return found == 2 ? total : -1;
}

}  // namespace

int64_t NowNs() { return ClockNs(CLOCK_MONOTONIC); }

void SleepUntilNs(int64_t deadline_ns) {
  struct timespec ts;
  ts.tv_sec = deadline_ns / 1000000000;
  ts.tv_nsec = deadline_ns % 1000000000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

double Percentile(std::vector<double>& v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(p / 100.0 * static_cast<double>(v.size()));
  return v[std::min(rank, v.size() - 1)];
}

double Median(std::vector<double> v) { return Percentile(v, 50); }

int64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }

int64_t ThreadCpuNs(pthread_t thread) {
  clockid_t id;
  if (pthread_getcpuclockid(thread, &id) != 0) {
    return 0;
  }
  return ClockNs(id);
}

int64_t SelfThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }

int64_t ProcessSyscalls() { return SyscallsFrom("/proc/self/io"); }

int64_t ThreadSyscalls(int tid) {
  char path[64];
  std::snprintf(path, sizeof(path), "/proc/self/task/%d/io", tid);
  return SyscallsFrom(path);
}

int CurrentTid() { return static_cast<int>(syscall(SYS_gettid)); }

int OnlineCpus() {
  long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

void PinSelfToCpu(int cpu) {
  const int ncpu = OnlineCpus();
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c = 0; c < ncpu; c++) {
    if (cpu < 0 || c == cpu % ncpu) {
      CPU_SET(c, &set);
    }
  }
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

HostCpu ReadHostCpu() {
  HostCpu h;
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) {
    return h;
  }
  long long v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  if (std::fscanf(f, "cpu %lld %lld %lld %lld %lld %lld %lld %lld", &v[0], &v[1], &v[2],
                  &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (long long x : v) {
      h.total += x;
    }
    h.steal = v[7];
  }
  std::fclose(f);
  return h;
}

double PeakRssMb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t DirBytes(const std::string& dir) {
  std::error_code ec;
  uint64_t total = 0;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator(); it.increment(ec)) {
    std::error_code fec;
    if (it->is_regular_file(fec)) {
      total += it->file_size(fec);
    }
  }
  return total;
}

}  // namespace atlasbench
