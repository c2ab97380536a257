#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"
#include "core/function_library.h"
#include "numerics/rng.h"
#include "runtime/thread_pool.h"

namespace perfbench {

using namespace nnlut;
using namespace nnlut::transformer;

ModelConfig model_config() {
  ModelConfig c = ModelConfig::roberta_like();
  c.vocab = 128;
  c.hidden = 64;
  c.layers = 2;
  c.heads = 4;
  c.ffn = 256;
  c.max_seq = 384;
  return c;
}

Deployment deploy() {
  // Table-1 recipes, 16 entries, the fast preset: train the four nets and
  // convert each to its LUT (the paper's NN -> LUT path).
  const NnlutBundle b = train_bundle(16, FitPreset::kFast, 1);
  // A span head gives start/end logits for every token, so the bitwise
  // check and the accuracy metric cover every position, not just [CLS].
  Rng rng(42);
  return {{b.gelu.lut, b.exp.lut, b.reciprocal.lut, b.rsqrt.lut},
          TaskModel(model_config(), HeadKind::kSpan, 2, rng)};
}

std::unique_ptr<LutNonlinearities> nnlut_backend(const LutSet& luts,
                                                 LutPrecision precision) {
  LutNonlinearities::Options opt;
  opt.select = ApproxSelection::all();
  return make_lut_backend(luts, precision, opt);
}

void warm_host(double seconds) {
  Rng rng(7);
  const TaskModel model(model_config(), HeadKind::kSpan, 2, rng);
  ExactNonlinearities exact(model_config().act);
  InferenceModel infer(model, exact);
  BatchInput in;
  in.batch = 32;
  in.seq = 16;
  in.token_ids.assign(in.batch * in.seq, 1);
  const auto start = Clock::now();
  while (seconds_since(start) < seconds) infer.logits(in);
}

std::size_t lanes() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

std::vector<Tensor> single_lane_logits(InferenceModel& infer,
                                       const std::vector<BatchInput>& inputs) {
  runtime::set_runtime_config({1});
  std::vector<Tensor> refs;
  refs.reserve(inputs.size());
  for (const BatchInput& in : inputs) refs.push_back(infer.logits(in));
  runtime::set_runtime_config({lanes()});
  return refs;
}

LatencySummary summarize_latency(
    const std::vector<std::vector<Sample>>& slices, double limit_ms) {
  std::vector<double> all_ms, slice_p90;
  std::size_t attempted = 0, within = 0;
  for (const std::vector<Sample>& slice : slices) {
    std::vector<double> ms;
    for (const Sample& s : slice) {
      if (!s.ok) continue;
      ms.push_back(s.latency_ms);
      within += s.latency_ms <= limit_ms;
    }
    attempted += slice.size();
    all_ms.insert(all_ms.end(), ms.begin(), ms.end());
    if (!ms.empty()) slice_p90.push_back(quantile(std::move(ms), 0.9));
  }
  return {quantile(std::move(all_ms), 0.5), median(std::move(slice_p90)),
          attempted ? static_cast<double>(within) /
                          static_cast<double>(attempted)
                    : 0.0};
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

CpuTicks cpu_ticks() {
  CpuTicks t;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;  // the aggregate "cpu" line comes first
  double v = 0.0;
  // user nice system idle iowait irq softirq steal (guest time is already
  // inside user and nice)
  for (int field = 0; field < 8 && stat >> v; ++field) {
    t.total += v;
    if (field == 7) t.steal = v;
    else if (field != 3 && field != 4) t.busy += v;
  }
  // /proc/self/stat: utime and stime are fields 14 and 15, counted after
  // the parenthesised command name (which may hold spaces).
  std::ifstream self("/proc/self/stat");
  std::string line;
  std::getline(self, line);
  std::istringstream rest(line.substr(line.rfind(')') + 1));
  std::string field;
  for (int i = 3; i <= 15 && rest >> field; ++i)
    if (i >= 14) t.own += std::strtod(field.c_str(), nullptr);
  return t;
}

HostLoad host_load(const CpuTicks& before, const CpuTicks& after) {
  const double total = after.total - before.total;
  if (total <= 0.0) return {};
  const double foreign =
      (after.busy - before.busy) - (after.own - before.own);
  return {(after.steal - before.steal) / total,
          std::max(0.0, foreign) / total};
}

bool HostLoad::quiet() const {
  return steal_frac <= kMaxStealFrac && foreign_frac <= kMaxForeignFrac;
}

std::vector<std::size_t> least_disturbed(const std::vector<HostLoad>& loads,
                                         std::size_t n) {
  std::vector<std::size_t> order(loads.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const auto disturbance = [&](std::size_t i) {
    return loads[i].quiet() ? 0.0
                            : loads[i].steal_frac + loads[i].foreign_frac;
  };
  std::stable_sort(order.begin(), order.end(), [&](auto a, auto b) {
    return disturbance(a) < disturbance(b);
  });
  order.resize(std::min(n, order.size()));
  std::sort(order.begin(), order.end());
  return order;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

bool reset_peak_rss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";  // 5: reset the peak RSS to the current RSS
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

void AbsErr::add(const Tensor& a, const Tensor& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = std::fabs(static_cast<double>(a.flat()[i]) -
                               static_cast<double>(b.flat()[i]));
    sum += d;
    max = std::max(max, d);
  }
  count += a.size();
}

std::string fmt(const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof buf, format, args);
  va_end(args);
  return buf;
}

// ------------------------------------------------- TimedNonlinearities ---

namespace {

std::int64_t ns_since(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

double to_ms(const std::atomic<std::int64_t>& ns) {
  return static_cast<double>(ns.load(std::memory_order_relaxed)) / 1e6;
}

}  // namespace

void TimedNonlinearities::softmax_rows(std::span<float> data,
                                       std::size_t nrows, std::size_t ncols,
                                       int site) {
  const auto t0 = Clock::now();
  inner_.softmax_rows(data, nrows, ncols, site);
  softmax_ns_.fetch_add(ns_since(t0), std::memory_order_relaxed);
}

void TimedNonlinearities::layer_norm_rows(std::span<const float> x,
                                          std::span<float> y,
                                          std::size_t nrows, std::size_t ncols,
                                          std::span<const float> gamma,
                                          std::span<const float> beta,
                                          int site) {
  const auto t0 = Clock::now();
  inner_.layer_norm_rows(x, y, nrows, ncols, gamma, beta, site);
  layernorm_ns_.fetch_add(ns_since(t0), std::memory_order_relaxed);
}

void TimedNonlinearities::activation_rows(std::span<float> data,
                                          std::size_t nrows,
                                          std::size_t ncols, int site) {
  const auto t0 = Clock::now();
  inner_.activation_rows(data, nrows, ncols, site);
  activation_ns_.fetch_add(ns_since(t0), std::memory_order_relaxed);
}

TimedNonlinearities::Totals TimedNonlinearities::totals() const {
  return {to_ms(softmax_ns_), to_ms(layernorm_ns_), to_ms(activation_ns_)};
}

void TimedNonlinearities::reset() {
  softmax_ns_ = 0;
  layernorm_ns_ = 0;
  activation_ns_ = 0;
}

}  // namespace perfbench
