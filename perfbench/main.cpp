// nnlut_perfbench: the repo benchmark. Runs one workload, checks every
// output against its reference, and prints one JSON result as the last
// line of stdout. Build and run it through perfbench/run.py, which passes
// the fixed serve-tcp rate and latency limits from BENCHMARK.json.
//
//   nnlut_perfbench --workload encode-long|encode-batch|serve-tcp
//                   --seed N --seconds S --trace 0|1 --limit-ms L
//                   [--rate R] [--out result.json] [--trace-out trace.json]
//                   [--commit SHA]
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the traced pass
// and reports the per-layer metrics instead. The same result, with the
// host fingerprint and report lines, is written to --out.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"
#include "core/lut_kernel_simd.h"
#include "runtime/thread_pool.h"

namespace {

using namespace perfbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every metric the benchmark reports, by name with its unit; a run prints
// all of one table. BENCHMARK.json lists the same names.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"tokens_per_s", "tok/s"},
    {"latency_ms_p50", "ms"},
    {"latency_ms_p90", "ms"},
    {"slo_attain_frac", "ratio"},
    {"ok_frac", "ratio"},
    {"peak_rss_mb", "MiB"},
    {"logit_err_vs_exact", "abs"},
};

// A layer the workload does not exercise (serve and net on the encode
// workloads; transformer, tensor and core on serve-tcp) reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"transformer.encode_ms", "ms"},
    {"transformer.softmax_ms", "ms"},
    {"transformer.layernorm_ms", "ms"},
    {"transformer.activation_ms", "ms"},
    {"transformer.rest_ms", "ms"},
    {"transformer.nonlinear_share", "ratio"},
    {"tensor.matmul_qkv_us", "us"},
    {"tensor.matmul_ffn1_us", "us"},
    {"tensor.matmul_gmac_s", "GMAC/s"},
    {"core.softmax_ns_per_elem", "ns/elem"},
    {"core.gelu_ns_per_elem", "ns/elem"},
    {"runtime.jobs_per_call", "count"},
    {"runtime.shards_per_call", "count"},
    {"runtime.inline_frac", "ratio"},
    {"runtime.pool_alloc_delta", "count"},
    {"serve.queue_wait_us_p50", "us"},
    {"serve.batch_wait_us_p50", "us"},
    {"serve.exec_us_p50", "us"},
    {"serve.resolve_us_p50", "us"},
    {"serve.batch_occupancy", "count"},
    {"serve.rejected_overload", "count"},
    {"net.wire_us_p50", "us"},
    {"net.bytes_per_req", "B"},
    {"net.sheds_preparse", "count"},
    {"net.protocol_errors", "count"},
    {"loadgen.lag_ms_p90", "ms"},
    {"trace_overhead_frac", "ratio"},
};

struct Args {
  Options o;
  std::string out, commit = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "nnlut_perfbench: %s\n"
               "usage: nnlut_perfbench --workload encode-long|encode-batch|"
               "serve-tcp --seed N --seconds S --trace 0|1 --limit-ms L\n"
               "       [--rate R] [--out FILE] [--trace-out FILE] "
               "[--commit SHA]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") a.o.workload = v;
    else if (flag == "--seed") a.o.seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--seconds") a.o.seconds = std::strtod(v, nullptr);
    else if (flag == "--trace") a.o.trace = std::strcmp(v, "1") == 0;
    else if (flag == "--rate") a.o.rate = std::strtod(v, nullptr);
    else if (flag == "--limit-ms") a.o.limit_ms = std::strtod(v, nullptr);
    else if (flag == "--out") a.out = v;
    else if (flag == "--trace-out") a.o.trace_out = v;
    else if (flag == "--commit") a.commit = v;
    else usage(("unknown flag " + flag).c_str());
  }
  const std::string& w = a.o.workload;
  if (w != "encode-long" && w != "encode-batch" && w != "serve-tcp")
    usage("unknown workload");
  if (!(a.o.seconds > 0.0) || !(a.o.limit_ms > 0.0))
    usage("--seconds and --limit-ms must be positive");
  if (w == "serve-tcp" && !(a.o.rate > 0.0))
    usage("serve-tcp needs a positive --rate");
  return a;
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line))
    if (line.rfind("model name", 0) == 0)
      return line.substr(line.find(':') + 2);
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += fmt("\\u%04x", c);
      continue;
    }
    out += c;
  }
  return out + "\"";
}

/// Shortest decimal that reads back as the same double: every digit the
/// measurement has, none it does not.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  return {buf, std::to_chars(buf, buf + sizeof buf, v).ptr};
}

std::string host_json(const Args& a) {
  const nnlut::simd::SimdTier tier = nnlut::simd::detected_simd_tier();
#ifdef __clang__
  const std::string compiler = "clang " __clang_version__;
#else
  const std::string compiler = "gcc " __VERSION__;
#endif
  std::ostringstream os;
  os << "{\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"lanes\": " << lanes()
     << ", \"cpu_model\": " << json_string(cpu_model())
     << ", \"simd_tier\": "
     << json_string(nnlut::simd::simd_tier_name(tier))
     << ", \"f16c\": " << (nnlut::simd::has_f16c() ? "true" : "false")
     << ", \"avx512vnni\": "
     << (nnlut::simd::has_avx512vnni() ? "true" : "false")
     << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
     << ", \"compiler\": " << json_string(compiler)
     << ", \"commit\": " << json_string(a.commit)
     << ", \"workload\": " << json_string(a.o.workload)
     << ", \"seed\": " << a.o.seed << ", \"seconds\": "
     << json_number(a.o.seconds) << ", \"trace\": " << (a.o.trace ? 1 : 0)
     << ", \"serve_rate_rps\": " << json_number(a.o.rate)
     << ", \"latency_limit_ms\": " << json_number(a.o.limit_ms) << "}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  nnlut::runtime::set_runtime_config({lanes()});
  Result r;
  try {
    warm_host(kHostWarmSeconds);
    // peak_rss_mb covers set-up and the workload, not the host warm-up.
    const bool rss_reset = reset_peak_rss();
    r = a.o.workload == "serve-tcp" ? run_serve_tcp(a.o) : run_encode(a.o);
    if (!rss_reset)
      r.note("peak_rss_mb: could not reset VmHWM after the host warm-up, so "
             "it includes the warm-up");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nnlut_perfbench: %s\n", e.what());
    return 1;
  }

  // The metric table of this pass, in declaration order; a layer the
  // workload did not exercise reads 0.
  std::string metrics;
  const auto emit = [&](const MetricSpec& m, double value) {
    if (!metrics.empty()) metrics += ", ";
    metrics += fmt("\"%s\": {\"value\": %s, \"unit\": \"%s\"}", m.name,
                   json_number(value).c_str(), m.unit);
  };
  if (a.o.trace) {
    for (const MetricSpec& m : kPerLayer) {
      const auto it = r.metrics.find(m.name);
      emit(m, it == r.metrics.end() ? 0.0 : it->second);
    }
  } else {
    for (const MetricSpec& m : kEndToEnd) emit(m, r.metrics.at(m.name));
  }
  const std::string result =
      fmt("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
          r.mismatches == 0 ? "true" : "false",
          static_cast<unsigned long long>(r.attempted),
          static_cast<unsigned long long>(r.failed)) +
      "\"metrics\": {" + metrics + "}}";

  const std::string host = host_json(a);
  std::printf("host: %s\n", host.c_str());
  for (const std::string& line : r.report) std::printf("%s\n", line.c_str());
  if (!a.out.empty()) {
    std::ofstream f(a.out);
    f << "{\"host\": " << host << ",\n \"report\": [";
    for (std::size_t i = 0; i < r.report.size(); ++i)
      f << (i ? ",\n  " : "\n  ") << json_string(r.report[i]);
    f << "],\n \"result\": " << result << "}\n";
    if (!f)
      std::fprintf(stderr, "nnlut_perfbench: cannot write %s\n",
                   a.out.c_str());
  }
  std::printf("%s\n", result.c_str());
  return 0;
}
