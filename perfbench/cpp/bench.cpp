#include "bench.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "audit/audit.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

void JsonWriter::separate() {
  if (first_.empty()) return;
  if (!first_.back()) out_ += ',';
  first_.back() = false;
}

void JsonWriter::put_key(const char* key) {
  separate();
  if (key == nullptr) return;
  out_ += '"';
  out_ += key;
  out_ += "\":";
}

void JsonWriter::put_number(double v) {
  if (!std::isfinite(v)) {
    out_ += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out_ += buf;
}

void JsonWriter::begin_object(const char* key) {
  put_key(key);
  out_ += '{';
  first_.push_back(true);
}

void JsonWriter::end_object() {
  out_ += '}';
  first_.pop_back();
}

void JsonWriter::begin_array(const char* key) {
  put_key(key);
  out_ += '[';
  first_.push_back(true);
}

void JsonWriter::end_array() {
  out_ += ']';
  first_.pop_back();
}

void JsonWriter::number(const char* key, double v) {
  put_key(key);
  put_number(v);
}

void JsonWriter::number(double v) { number(nullptr, v); }

void JsonWriter::integer(const char* key, std::uint64_t v) {
  put_key(key);
  out_ += std::to_string(v);
}

void JsonWriter::boolean(const char* key, bool v) {
  put_key(key);
  out_ += v ? "true" : "false";
}

void JsonWriter::string(const char* key, const std::string& v) {
  put_key(key);
  out_ += '"';
  for (const char c : v) {
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out_ += c;
    }
  }
  out_ += '"';
}

void JsonWriter::numbers(const char* key, const std::vector<double>& v) {
  begin_array(key);
  for (const double x : v) number(x);
  end_array();
}

namespace {

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    unsigned regs[12] = {};
    for (unsigned leaf = 0; leaf < 3; ++leaf)
      __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    char brand[49] = {};
    static_assert(sizeof regs == 48);
    __builtin_memcpy(brand, regs, sizeof regs);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    const auto e = s.find_last_not_of(' ');
    if (b != std::string::npos) return s.substr(b, e - b + 1);
  }
#endif
  return "unknown";
}

std::uint64_t llc_bytes() {
  for (const int name : {_SC_LEVEL3_CACHE_SIZE, _SC_LEVEL2_CACHE_SIZE}) {
    const long v = sysconf(name);
    if (v > 0) return static_cast<std::uint64_t>(v);
  }
  return 0;
}

}  // namespace

unsigned affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

Provenance provenance() {
  Provenance p;
  p.cpu_model = cpu_model();
  p.llc_bytes = llc_bytes();
  p.nproc = affinity_cpus();
  p.build_type = PERFBENCH_BUILD_TYPE;
  p.audit_compiled = cmdsmc::audit::kAuditCompiled;
  return p;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
