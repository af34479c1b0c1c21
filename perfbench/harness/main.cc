// perfbench: the repository benchmark binary. One process runs one named
// workload either timed (end-to-end metrics, tracing off) or traced
// (per-layer metrics) and prints one JSON result object as its last line
// of standard output. perfbench/README.md documents the workloads, the
// metrics and how to run it; perfbench/run.py builds and invokes it.

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "layers.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "workloads.h"

#ifndef SDS_PERFBENCH_BUILD_TYPE
#define SDS_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr uint64_t kDefaultSeed = 1;

struct Args {
  WorkloadId workload = WorkloadId::kSpecPaper;
  bool have_workload = false;
  uint64_t seed = kDefaultSeed;
  uint64_t seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string reference_path;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload spec_paper|spec_churn|"
               "dissem_stream [--seed N] [--seconds N>0] [--trace 0|1]\n"
               "                 [--smoke] [--reference FILE] [--git-sha S] "
               "[--source-digest S]\n",
               error.c_str());
  std::exit(2);
}

/// Parses a whole decimal unsigned integer; rejects signs, blanks,
/// trailing garbage and overflow.
bool ParseUnsigned(const char* text, uint64_t* value) {
  if (text == nullptr || *text == '\0') return false;
  uint64_t v = 0;
  for (const char* c = text; *c != '\0'; ++c) {
    if (*c < '0' || *c > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(*c - '0');
    if (v > (UINT64_MAX - digit) / 10) return false;
    v = v * 10 + digit;
  }
  *value = v;
  return true;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const char* value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      if (!ParseWorkload(value, &args.workload)) {
        Usage(std::string("unknown workload '") + value + "'");
      }
      args.have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseUnsigned(value, &number)) {
        Usage(std::string("--seed must be a non-negative integer, got '") +
              value + "'");
      }
      args.seed = number;
    } else if (flag == "--seconds") {
      if (!ParseUnsigned(value, &number) || number == 0 || number > 3600) {
        Usage(std::string("--seconds must be an integer in [1, 3600], got '") +
              value + "'");
      }
      args.seconds = number;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Usage(std::string("--trace must be 0 or 1, got '") + value + "'");
      }
      args.trace = value[0] == '1';
    } else if (flag == "--reference") {
      args.reference_path = value;
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else if (flag == "--source-digest") {
      args.source_digest = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!args.have_workload) Usage("--workload is required");
  return args;
}

/// Looks up the stored digest of (workload, scale, seed) in the reference
/// file: lines of `workload scale seed hex-digest`, `#` comments. Returns
/// 0 when the file has no entry for the key; exits on an unreadable or
/// malformed file.
uint64_t LoadReference(const Args& args) {
  if (args.reference_path.empty()) return 0;
  std::ifstream in(args.reference_path);
  if (!in) Usage("cannot read reference file " + args.reference_path);
  const std::string scale = args.smoke ? "smoke" : "full";
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload;
    std::string line_scale;
    std::string seed_text;
    std::string digest_text;
    std::string extra;
    uint64_t seed = 0;
    if (!(fields >> workload >> line_scale >> seed_text >> digest_text) ||
        (fields >> extra) || !ParseUnsigned(seed_text.c_str(), &seed) ||
        digest_text.size() != 16 ||
        digest_text.find_first_not_of("0123456789abcdef") !=
            std::string::npos) {
      Usage("malformed reference line " + std::to_string(line_no) + " in " +
            args.reference_path);
    }
    if (workload == WorkloadName(args.workload) && line_scale == scale &&
        seed == args.seed) {
      return std::stoull(digest_text, nullptr, 16);
    }
  }
  return 0;
}

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string Hex(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, value);
  return buf;
}

void PrintJsonString(const std::string& s) {
  std::putchar('"');
  for (const char c : s) {
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

struct Context {
  Args args;
  uint32_t nproc = 1;
  uint32_t par_workers = 1;
  uint64_t reference = 0;
  sds::core::WorkloadConfig config;
};

/// One line of run metadata (before the result line).
void PrintMeta(const Context& ctx, uint64_t pass_digest,
               const std::vector<std::pair<std::string, double>>& extra) {
  std::printf("{\"perfbench_meta\": {\"workload\": ");
  PrintJsonString(WorkloadName(ctx.args.workload));
  std::printf(", \"mode\": \"%s\", \"scale\": \"%s\", \"seed\": %" PRIu64,
              ctx.args.trace ? "traced" : "timed",
              ctx.args.smoke ? "smoke" : "full", ctx.args.seed);
  std::printf(", \"git_sha\": ");
  PrintJsonString(ctx.args.git_sha);
  std::printf(", \"source_digest\": ");
  PrintJsonString(ctx.args.source_digest);
  std::printf(", \"build_type\": ");
  PrintJsonString(SDS_PERFBENCH_BUILD_TYPE);
  std::printf(", \"nproc\": %u, \"workers_serial\": 1, \"workers_par\": %u",
              ctx.nproc, ctx.par_workers);
  std::printf(", \"reference_digest\": ");
  PrintJsonString(ctx.reference == 0 ? "none" : Hex(ctx.reference));
  if (pass_digest != 0) {
    std::printf(", \"pass_digest\": ");
    PrintJsonString(Hex(pass_digest));
  }
  for (const auto& [key, value] : extra) {
    std::printf(", ");
    PrintJsonString(key);
    std::printf(": %.17g", std::isfinite(value) ? value : 0.0);
  }
  std::printf("}}\n");
}

void PrintResult(const Checks& checks, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              checks.failed == 0 ? "true" : "false", checks.attempted,
              checks.failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) std::printf(", ");
    PrintJsonString(metrics[i].name);
    std::printf(": {\"value\": %.17g, \"unit\": ", metrics[i].value);
    PrintJsonString(metrics[i].unit);
    std::printf("}");
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Pins the calling thread to one of its allowed CPUs (the `turn`-th, in
/// rotation) and restores its CPU mask on destruction. A lone thread
/// otherwise stays on whichever vCPU the scheduler gave it, and on a
/// shared host one vCPU can run this memory-bound code 30% slower than
/// another for minutes at a time; rotating the 1-worker passes over every
/// allowed CPU makes their median sample all of them. Threads started
/// while pinned inherit the pin, so only 1-worker passes run inside one.
class ScopedCpuPin {
 public:
  explicit ScopedCpuPin(size_t turn) {
    if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    std::vector<int> cpus;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) cpus.push_back(cpu);
    }
    if (cpus.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[turn % cpus.size()], &one);
    pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
  }
  ~ScopedCpuPin() {
    if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
  }
  ScopedCpuPin(const ScopedCpuPin&) = delete;
  ScopedCpuPin& operator=(const ScopedCpuPin&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

/// Wall time of one core::MakeWorkload build (its teardown excluded).
double TimeBuild(const sds::core::WorkloadConfig& config) {
  const Clock::time_point start = Clock::now();
  const sds::core::Workload workload = sds::core::MakeWorkload(config);
  return Since(start);
}

/// Checks one pass against the stored reference (if any) and the run's
/// own first pass (worker-count and run-to-run bit-identity).
void CheckPass(const Context& ctx, const PassResult& pass, uint64_t first,
               uint32_t workers, Checks* checks) {
  bool ok = pass.digest == first && pass.requests_replayed > 0;
  if (ctx.reference != 0) ok = ok && pass.digest == ctx.reference;
  checks->Expect(ok, "pass at " + std::to_string(workers) +
                         " workers: digest " + Hex(pass.digest) +
                         " (first pass " + Hex(first) + ", reference " +
                         (ctx.reference == 0 ? "none" : Hex(ctx.reference)) +
                         ")");
}

int RunTimed(const Context& ctx) {
  Checks checks;
  const WorkloadId id = ctx.args.workload;
  // setup_s is the median of one build here and of the builds after each
  // measured round, so it samples the same stretches of the run as the
  // throughputs. Each round builds at least twice and until 0.2 s is
  // spent: a paper-scale batch workload builds in tens of milliseconds.
  std::vector<double> setup;
  Clock::time_point start = Clock::now();
  const sds::core::Workload workload = sds::core::MakeWorkload(ctx.config);
  setup.push_back(Since(start));

  // Warm-up pass at one worker: its digest anchors every later pass, and
  // the peak resident set is read over it.
  sds::bench::ResetPeakRss();
  const PassResult first = RunPass(id, workload, 1);
  const double peak_rss_mb =
      static_cast<double>(sds::bench::PeakRssBytes()) / 1048576.0;
  CheckPass(ctx, first, first.digest, 1, &checks);

  // Measured passes alternate between 1 and min(nproc, 4) workers, so both
  // figures sample the whole run and share its slow and fast stretches.
  // The clock is checked after every pass, so a run overshoots --seconds
  // by at most one pass.
  std::vector<double> serial;
  std::vector<double> par;
  start = Clock::now();
  const auto done = [&] {
    return par.size() >= 2 &&
           Since(start) >= static_cast<double>(ctx.args.seconds);
  };
  for (;;) {
    for (std::vector<double>* rps : {&serial, &par}) {
      if (rps == &par && done()) break;
      const uint32_t workers = rps == &serial ? 1 : ctx.par_workers;
      PassResult pass;
      if (workers == 1) {
        const ScopedCpuPin pin(serial.size());
        pass = RunPass(id, workload, 1);
      } else {
        pass = RunPass(id, workload, workers);
      }
      CheckPass(ctx, pass, first.digest, workers, &checks);
      rps->push_back(static_cast<double>(pass.requests_replayed) /
                     pass.wall_s);
      std::fprintf(stderr,
                   "perfbench: pass at %u workers: %.3f s, %.0f req/s\n",
                   workers, pass.wall_s, rps->back());
    }
    if (done()) break;
    double round_s = 0.0;
    for (int builds = 0; builds < 2 || round_s < 0.2; ++builds) {
      setup.push_back(TimeBuild(ctx.config));
      round_s += setup.back();
    }
    std::fprintf(stderr, "perfbench: builds: %.3f s, %zu so far\n", round_s,
                 setup.size());
  }

  const WorkloadProperties props = MeasureProperties(id, workload);
  PrintMeta(ctx, first.digest,
            {{"requests_per_pass",
              static_cast<double>(first.requests_replayed)},
             {"clean_requests",
              static_cast<double>(workload.filter_stats().kept)},
             {"passes_serial", static_cast<double>(serial.size())},
             {"passes_par", static_cast<double>(par.size())},
             {"setup_builds", static_cast<double>(setup.size())},
             {"ops_failed_frac", static_cast<double>(checks.failed) /
                                     static_cast<double>(checks.attempted)},
             {"spec.model.rows_changed_frac", props.rows_changed_frac},
             {"spec.cache.evict_purge_frac", props.evict_purge_frac},
             {"dissem.failover_frac", first.failover_frac}});
  PrintResult(checks, {{"throughput_rps", Median(serial), "1/s"},
                       {"throughput_rps_par", Median(par), "1/s"},
                       {"setup_s", Median(setup), "s"},
                       {"peak_rss_mb", peak_rss_mb, "MB"}});
  return 0;
}

int RunTracedMode(const Context& ctx) {
  Checks checks;
  const sds::core::Workload workload = sds::core::MakeWorkload(ctx.config);
  // Rounds of the traced run until --seconds have passed; each metric
  // reports its median over the rounds.
  std::vector<std::vector<Metric>> rounds;
  const Clock::time_point start = Clock::now();
  do {
    rounds.push_back(RunTraced(ctx.args.workload, ctx.config, workload,
                               ctx.par_workers, ctx.reference, &checks));
  } while (Since(start) < static_cast<double>(ctx.args.seconds));
  std::vector<Metric> metrics = rounds.front();
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::vector<double> values;
    for (const auto& round : rounds) values.push_back(round[i].value);
    metrics[i].value = Median(values);
  }
  for (Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      checks.Expect(false, "metric " + m.name + " is finite");
      m.value = 0.0;
    }
  }
  std::vector<std::pair<std::string, double>> extra = {
      {"clean_requests", static_cast<double>(workload.filter_stats().kept)},
      {"rounds", static_cast<double>(rounds.size())},
      {"ops_failed_frac", static_cast<double>(checks.failed) /
                              static_cast<double>(checks.attempted)}};
  PrintMeta(ctx, 0, extra);
  PrintResult(checks, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Context ctx;
  ctx.args = ParseArgs(argc, argv);
  ctx.nproc = std::max(1u, std::thread::hardware_concurrency());
  ctx.par_workers = std::min(ctx.nproc, 4u);
  ctx.reference = LoadReference(ctx.args);
  ctx.config =
      MakeWorkloadConfig(ctx.args.workload, ctx.args.seed, ctx.args.smoke);
  // Timings are taken with the observability layer off whatever the
  // environment says; the traced run arms it explicitly.
  sds::obs::SetEnabled(false);
  sds::obs::SetAuditEnabled(false);
  return ctx.args.trace ? RunTracedMode(ctx) : RunTimed(ctx);
}
