// Measurement helpers: exact percentiles, clocks, and the process counters the
// benchmark reads from outside the library (/proc/self/io, thread CPU clocks,
// peak RSS, bytes on disk).
#ifndef ATLASBENCH_SRC_MEASURE_H_
#define ATLASBENCH_SRC_MEASURE_H_

#include <pthread.h>

#include <cstdint>
#include <string>
#include <vector>

namespace atlasbench {

// Monotonic time in nanoseconds (CLOCK_MONOTONIC, the clock std::steady_clock
// and absolute clock_nanosleep deadlines share).
int64_t NowNs();
void SleepUntilNs(int64_t deadline_ns);

// Nearest-rank percentile of the values (p in [0, 100]); sorts `v` in place.
// 0 for an empty vector.
double Percentile(std::vector<double>& v, double p);
double Median(std::vector<double> v);

// CPU time consumed so far, in nanoseconds.
int64_t ProcessCpuNs();
int64_t ThreadCpuNs(pthread_t thread);  // any live thread of this process
int64_t SelfThreadCpuNs();

// Read/write syscall counts (syscr + syscw) of the whole process, or of one
// thread (by kernel tid). -1 when the counters are unreadable.
int64_t ProcessSyscalls();
int64_t ThreadSyscalls(int tid);
int CurrentTid();

// Restricts the calling thread (and the threads it creates afterwards) to CPU
// `cpu` modulo the online CPU count; a negative cpu allows every CPU again.
void PinSelfToCpu(int cpu);
int OnlineCpus();

// Host-wide CPU time so far, from /proc/stat: all states, and the share the
// hypervisor gave to other guests (steal), in clock ticks.
struct HostCpu {
  int64_t total = 0;
  int64_t steal = 0;
};
HostCpu ReadHostCpu();

// Peak resident set size of the process, in MiB.
double PeakRssMb();

// Total size of the regular files under `dir` (0 when absent).
uint64_t DirBytes(const std::string& dir);

}  // namespace atlasbench

#endif  // ATLASBENCH_SRC_MEASURE_H_
