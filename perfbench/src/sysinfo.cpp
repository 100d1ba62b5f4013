// Machine fingerprint and /proc probes (Linux).
#include <malloc.h>
#include <time.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t b = colon + 1;
        while (b < line.size() && line[b] == ' ') ++b;
        return line.substr(b);
      }
    }
  }
  return "unknown";
}

}  // namespace

bool release_build() {
#ifdef NDEBUG
  return std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#else
  return false;
#endif
}

std::string fingerprint_json() {
#if defined(SCAP_ENABLE_TRACE)
  const char* trace = "ON";
#else
  const char* trace = "OFF";
#endif
  std::string out = "{\"nproc\": ";
  out += std::to_string(std::thread::hardware_concurrency());
  out += ", \"cpu\": \"" + json_escape(cpu_model()) + "\"";
  out += ", \"compiler\": \"" + json_escape(__VERSION__) + "\"";
  out += ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"";
  out += ", \"release\": ";
  out += release_build() ? "true" : "false";
  out += ", \"scap_trace\": \"";
  out += trace;
  out += "\"}";
  return out;
}

double rss_mib() {
  std::ifstream in("/proc/self/statm");
  long pages_total = 0;
  long pages_resident = 0;
  in >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

void trim_heap() { malloc_trim(0); }

std::int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::vector<int> task_ids() {
  std::vector<int> ids;
  std::error_code ec;
  for (const auto& e :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    ids.push_back(std::atoi(e.path().filename().c_str()));
  }
  return ids;
}

std::int64_t task_cpu_ns(int tid) {
  // schedstat's first field is the thread's on-CPU time in ns.
  std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/schedstat");
  long long run_ns = 0;
  if (in >> run_ns) return run_ns;
  return 0;
}

}  // namespace perfbench
