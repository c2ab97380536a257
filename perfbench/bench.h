// Shared pieces of the repo benchmark: the options every workload reads,
// the deployment set-up builds (trained NN-LUTs + the shared model), the
// result every workload returns, and the timing decorator the traced run
// puts around a nonlinearity backend.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "tensor/tensor.h"
#include "transformer/backends.h"
#include "transformer/infer.h"
#include "transformer/model.h"

namespace perfbench {

namespace transformer = nnlut::transformer;
using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double rate = 0.0;      // serve-tcp offered load, requests/s
  double limit_ms = 0.0;  // latency limit behind slo_attain_frac
  std::string trace_out;  // Chrome trace of the traced serve-tcp run
};

/// What one workload run measured. Metric names and units are declared
/// once, in main.cpp's tables; a workload adds values by name.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      // errors + sheds + output mismatches
  std::uint64_t mismatches = 0;  // outputs that differ from the reference
  std::map<std::string, double> metrics;
  std::vector<std::string> report;  // human-readable lines, not metrics

  void add(const std::string& name, double value) { metrics[name] = value; }
  void note(std::string line) { report.push_back(std::move(line)); }
};

/// Load before every timed window: this host takes seconds of sustained
/// work to reach a steady speed (the first second after idle runs up to
/// 4x slower).
inline constexpr double kWarmupSeconds = 3.0;
/// Full-load time every run starts with, before set-up (see warm_host).
inline constexpr double kHostWarmSeconds = 5.0;

/// Keeps every lane busy with exact-backend logits calls for `seconds`.
/// How fast this host wakes idle CPUs depends on how busy it was in the
/// preceding seconds: serve-tcp latency after a run of heavy work was 30%
/// lower than after light work, for the same seed. Starting every run from
/// the same full load makes a run independent of what ran before it.
void warm_host(double seconds);

/// Every slice of an encode window holds at least this many calls, so its
/// p90 has at least ten beyond it (serve-tcp slices hold about 300
/// requests).
inline constexpr std::size_t kMinSamples = 100;

/// The shared model shape (bench/parallel_scaling.cpp's roberta-like
/// config): hidden 64, 4 heads, ffn 256, 2 layers, max_seq 384.
transformer::ModelConfig model_config();

/// What a user deploys: the four Table-1 NN-LUTs trained and converted to
/// tables, and the shared model (span head) with random weights from a
/// fixed seed.
struct Deployment {
  transformer::LutSet luts;
  transformer::TaskModel model;
};
Deployment deploy();

/// LUT backend over every op (GELU, Softmax, LayerNorm) at `precision`.
std::unique_ptr<transformer::LutNonlinearities> nnlut_backend(
    const transformer::LutSet& luts, nnlut::LutPrecision precision);

/// Execution lanes every workload runs with: one per online CPU.
std::size_t lanes();

/// Reference logits for each input: direct InferenceModel::logits calls on
/// a single pool lane. By the determinism contract every later result for
/// the same input and backend, at any lane count and batch packing, must
/// match these bit for bit.
std::vector<nnlut::Tensor> single_lane_logits(
    transformer::InferenceModel& infer,
    const std::vector<transformer::BatchInput>& inputs);

/// One timed operation of a window, in the order the operations started.
struct Sample {
  double latency_ms = 0.0;  // meaningful only when ok
  bool ok = false;          // completed with the verified output
};

/// Latency of a window measured as slices: p50 over every operation that
/// succeeded, p90 as the median over slices of each slice's p90, and the
/// share of all operations that succeeded within `limit_ms` (a failed or
/// refused one is a miss). The p90 of a pooled window moved by up to 20%
/// between quiet runs when a few slices ran slow with no steal or foreign
/// load to show for it; the median of slice p90s stays put. A tail that
/// every slice shows moves it in full.
struct LatencySummary {
  double p50_ms = 0.0, p90_ms = 0.0, slo_frac = 0.0;
};
LatencySummary summarize_latency(
    const std::vector<std::vector<Sample>>& slices, double limit_ms);
/// The samples of each slice, for summarize_latency.
template <typename Slice>
std::vector<std::vector<Sample>> slice_samples(
    const std::vector<Slice>& slices) {
  std::vector<std::vector<Sample>> out;
  for (const Slice& s : slices) out.push_back(s.samples);
  return out;
}

/// printf into a std::string, for report lines.
std::string fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));
double seconds_since(Clock::time_point t0);
double ms_between(Clock::time_point a, Clock::time_point b);
/// Linear-interpolated quantile of `v` (copied, then partially sorted).
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// Machine-wide CPU ticks from /proc/stat, and this process's own from
/// /proc/self/stat. This host's slow periods come from outside the
/// process: hypervisor steal (time given to other guests) and other
/// processes on the same CPUs.
struct CpuTicks {
  double steal = 0.0, busy = 0.0, total = 0.0, own = 0.0;
};
CpuTicks cpu_ticks();
/// How disturbed the host was between two readings, as shares of all CPU
/// time: steal, and busy time of other processes ("foreign").
struct HostLoad {
  double steal_frac = 0.0, foreign_frac = 0.0;
  bool quiet() const;
};
HostLoad host_load(const CpuTicks& before, const CpuTicks& after);
/// A slice (of a window, or one set-up) is kept only while the host is
/// quiet: steal at most 1% and other processes busy at most 5% of CPU
/// time. Disturbances here last seconds to minutes and make operations up
/// to 2-7x slower, so a slice they touch says little about the program.
/// serve-tcp's p90 over 1-s slices was 4.2-4.8 ms at under 0.5% steal,
/// 5-8 ms at 1-2% and 9-40 ms above 3%.
inline constexpr double kMaxStealFrac = 0.01;
inline constexpr double kMaxForeignFrac = 0.05;

/// Timed windows run as slices of this length; each is kept or dropped
/// as a whole, by the host load during it.
inline constexpr double kSliceSeconds = 2.0;
/// A window runs until it has kept --seconds worth of slices, or until
/// this many times --seconds have passed.
inline constexpr double kWindowCapFactor = 2.0;

/// Indices of the `n` entries of `loads` with the least steal + foreign
/// share, quiet ones first, in run order within equal loads.
std::vector<std::size_t> least_disturbed(const std::vector<HostLoad>& loads,
                                         std::size_t n);

/// Slices of one window, split into the ones measured and the rest.
template <typename Slice>
struct GatedWindow {
  std::vector<Slice> kept, dropped;
  std::size_t quiet = 0;        // slices run on a quiet host
  std::vector<HostLoad> loads;  // every slice, in run order
  std::string note() const;
};

/// Runs `run(k)` for slices k = 0, 1, ... until `seconds` worth ran on a
/// quiet host or kWindowCapFactor * `seconds` have passed. A disturbed
/// slice is run again with the same k, so the quiet slices cover the same
/// inputs whatever the host did. If the cap comes first, the least
/// disturbed of the other slices make up the number.
template <typename Slice, typename Run>
GatedWindow<Slice> gated_window(double seconds, Run run) {
  const std::size_t wanted = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(seconds / kSliceSeconds)));
  GatedWindow<Slice> w;
  std::vector<Slice> slices;
  const auto start = Clock::now();
  while (w.quiet < wanted &&
         seconds_since(start) < kWindowCapFactor * seconds) {
    const CpuTicks before = cpu_ticks();
    slices.push_back(run(w.quiet));
    w.loads.push_back(host_load(before, cpu_ticks()));
    w.quiet += w.loads.back().quiet();
  }
  std::vector<bool> keep(slices.size(), false);
  for (std::size_t i : least_disturbed(w.loads, wanted)) keep[i] = true;
  for (std::size_t i = 0; i < slices.size(); ++i)
    (keep[i] ? w.kept : w.dropped).push_back(std::move(slices[i]));
  return w;
}

template <typename Slice>
std::string GatedWindow<Slice>::note() const {
  std::string loads;
  for (const HostLoad& l : this->loads)
    loads += fmt("%s%.1f/%.1f", loads.empty() ? "" : " ",
                 100.0 * l.steal_frac, 100.0 * l.foreign_frac);
  return fmt("host load per slice (steal%%/foreign%%): %s; %zu slices "
             "kept (%zu quiet), %zu dropped",
             loads.c_str(), kept.size(), std::min(quiet, kept.size()),
             dropped.size());
}

/// VmHWM of this process, MiB.
double peak_rss_mb();
/// Resets VmHWM to the current RSS, so peak_rss_mb() covers only what
/// runs afterwards. False where the kernel does not allow it.
bool reset_peak_rss();
bool same_bits(const nnlut::Tensor& a, const nnlut::Tensor& b);
/// |a - b| over every element of a set of same-shape tensor pairs.
struct AbsErr {
  double sum = 0.0, max = 0.0;
  std::size_t count = 0;
  void add(const nnlut::Tensor& a, const nnlut::Tensor& b);
  double mean() const { return count ? sum / static_cast<double>(count) : 0.0; }
};

/// Forwards every call to `inner` and adds the wall time of each block
/// entry point (softmax_rows / layer_norm_rows / activation_rows) to a
/// counter. Forwarding the same entry point keeps results bit-identical
/// to the undecorated backend. One thread calls it at a time; the
/// counters are atomics so another thread may read them afterwards.
class TimedNonlinearities final : public transformer::NonlinearitySet {
 public:
  explicit TimedNonlinearities(transformer::NonlinearitySet& inner)
      : inner_(inner) {}

  void activation(std::span<float> xs, int site) override {
    inner_.activation(xs, site);
  }
  void softmax(std::span<float> row, int site) override {
    inner_.softmax(row, site);
  }
  void layer_norm(std::span<const float> x, std::span<float> y,
                  std::span<const float> gamma, std::span<const float> beta,
                  int site) override {
    inner_.layer_norm(x, y, gamma, beta, site);
  }
  void softmax_rows(std::span<float> data, std::size_t nrows,
                    std::size_t ncols, int site) override;
  void layer_norm_rows(std::span<const float> x, std::span<float> y,
                       std::size_t nrows, std::size_t ncols,
                       std::span<const float> gamma,
                       std::span<const float> beta, int site) override;
  void activation_rows(std::span<float> data, std::size_t nrows,
                       std::size_t ncols, int site) override;

  struct Totals {
    double softmax_ms = 0.0, layernorm_ms = 0.0, activation_ms = 0.0;
  };
  Totals totals() const;
  void reset();

 private:
  transformer::NonlinearitySet& inner_;
  std::atomic<std::int64_t> softmax_ns_{0}, layernorm_ns_{0},
      activation_ns_{0};
};

/// Set-up time: `build` runs until `repeats` runs on a quiet host
/// (HostLoad::quiet) are done, or kSetupAttempts runs in all. Keeps the
/// last result and stores in `median_s` the median time of the `repeats`
/// least disturbed runs; `note` lists every run. Untraced runs pass
/// kSetupRepeats.
inline constexpr int kSetupRepeats = 5;
inline constexpr int kSetupAttempts = 10;
template <typename T>
std::unique_ptr<T> timed_setups(
    int repeats, const std::function<std::unique_ptr<T>()>& build,
    double& median_s, std::string& note) {
  std::unique_ptr<T> last;
  std::vector<double> times;
  std::vector<HostLoad> loads;
  int quiet = 0;
  const int attempts = repeats > 1 ? kSetupAttempts : 1;
  while (quiet < repeats && static_cast<int>(times.size()) < attempts) {
    last.reset();  // tear the previous one down outside the timed span
    const CpuTicks before = cpu_ticks();
    const auto t0 = Clock::now();
    last = build();
    times.push_back(seconds_since(t0));
    loads.push_back(host_load(before, cpu_ticks()));
    quiet += loads.back().quiet();
  }
  std::vector<double> kept;
  for (std::size_t i :
       least_disturbed(loads, static_cast<std::size_t>(repeats)))
    kept.push_back(times[i]);
  median_s = median(kept);
  std::string all;
  for (double t : times) all += fmt("%s%.3f", all.empty() ? "" : " ", t);
  note = fmt("set-up: %zu runs (%s s), %d on a quiet host; setup_s is the "
             "median of the %zu least disturbed",
             times.size(), all.c_str(), quiet, kept.size());
  return last;
}

Result run_encode(const Options& o);
Result run_serve_tcp(const Options& o);

}  // namespace perfbench
