// encode-long and encode-batch: back-to-back InferenceModel::logits calls
// through one warmed Workspace, every result checked bit for bit against
// its single-lane reference.
//
//   encode-long   batch 1 x seq 384, NN-LUT FP32: attention-dominated
//                 (QK scores, scores.V context, 384-wide softmax rows).
//   encode-batch  batch 32 x seq 16, NN-LUT INT32: row-heavy (QKV/Wo/FFN
//                 matmuls, GELU over [512, 256], LayerNorm over 512 rows),
//                 many small parallel_for jobs, 16-wide softmax rows.
//
// The traced run adds the per-layer ledger: a TimedNonlinearities decorator
// splits each logits call into softmax / LayerNorm / activation / rest,
// standalone matmul and backend-row calls at the workload's shapes isolate
// the tensor and core layers, and thread-pool / buffer-pool counter deltas
// give the runtime layer. On encode-long it also prints the measured
// Table 5 shares for the exact, NN-LUT and I-BERT backends.
#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "numerics/rng.h"
#include "runtime/buffer_pool.h"
#include "runtime/thread_pool.h"
#include "tensor/ops.h"

namespace perfbench {

using namespace nnlut;
using namespace nnlut::transformer;

namespace {

struct Shape {
  std::size_t batch, seq;
  LutPrecision precision;
  const char* precision_name;
};

Shape shape_for(const std::string& workload) {
  if (workload == "encode-long") return {1, 384, LutPrecision::kFp32, "fp32"};
  return {32, 16, LutPrecision::kInt32, "int32"};
}

/// Distinct inputs cycled through the window; also the set logit_err_vs_exact
/// is taken over.
constexpr std::size_t kDistinctInputs = 16;

std::vector<BatchInput> make_inputs(const Shape& s, std::uint64_t seed) {
  std::vector<BatchInput> inputs(kDistinctInputs);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    Rng rng(seed * 1000003ull + i);
    BatchInput& in = inputs[i];
    in.batch = s.batch;
    in.seq = s.seq;
    in.token_ids.resize(s.batch * s.seq);
    for (int& t : in.token_ids)
      t = rng.uniform_int(0, static_cast<int>(model_config().vocab) - 1);
  }
  return inputs;
}

/// What set-up builds for an encode workload: the deployment, its NN-LUT
/// backend, and a model whose Workspace draws from a buffer pool (the
/// Engine slot's memory path).
struct Setup {
  Deployment dep;
  std::unique_ptr<LutNonlinearities> backend;
  runtime::BufferPool pool;
  Workspace ws{&pool};
  InferenceModel infer;

  explicit Setup(LutPrecision p)
      : dep(deploy()),
        backend(nnlut_backend(dep.luts, p)),
        infer(dep.model, *backend) {}
};

struct Window {
  std::vector<Sample> samples;  // one per logits call, in call order
  std::uint64_t errors = 0, mismatches = 0;
  double wall_s = 0.0;
  TimedNonlinearities::Totals nonlinear;  // traced windows only

  std::size_t ok() const {
    return static_cast<std::size_t>(
        std::count_if(samples.begin(), samples.end(),
                      [](const Sample& s) { return s.ok; }));
  }
  void add(const Window& o) {
    samples.insert(samples.end(), o.samples.begin(), o.samples.end());
    errors += o.errors;
    mismatches += o.mismatches;
    wall_s += o.wall_s;
    nonlinear.softmax_ms += o.nonlinear.softmax_ms;
    nonlinear.layernorm_ms += o.nonlinear.layernorm_ms;
    nonlinear.activation_ms += o.nonlinear.activation_ms;
  }
};

/// The kept slices of a gated window joined into one, and every slice
/// (kept or dropped) joined into another: outputs are verified and
/// counted over every slice, timings come from the kept ones.
struct Joined {
  Window kept, all;
};
Joined join(const GatedWindow<Window>& g) {
  Joined j;
  for (const Window& w : g.kept) j.kept.add(w);
  j.all = j.kept;
  for (const Window& w : g.dropped) j.all.add(w);
  return j;
}

/// Back-to-back logits calls for `seconds` (and at least `min_calls`),
/// each checked against its reference when `refs` is given.
Window run_window(InferenceModel& infer, Workspace& ws,
                  const std::vector<BatchInput>& inputs,
                  const std::vector<Tensor>* refs, double seconds,
                  std::size_t min_calls = kMinSamples) {
  Window w;
  const auto start = Clock::now();
  while (seconds_since(start) < seconds || w.samples.size() < min_calls) {
    const std::size_t k = w.samples.size() % inputs.size();
    const auto t0 = Clock::now();
    Sample& s = w.samples.emplace_back();
    try {
      const Tensor out = infer.logits(inputs[k], ws);
      s.latency_ms = ms_between(t0, Clock::now());
      s.ok = refs == nullptr || same_bits(out, (*refs)[k]);
      w.mismatches += !s.ok;
    } catch (const std::exception&) {
      ++w.errors;
    }
  }
  w.wall_s = seconds_since(start);
  return w;
}

/// Median wall time of `call` in µs over repeated runs for `budget_s`
/// (at least 50 runs); `prepare` runs untimed before each call.
template <typename Prepare, typename Call>
double median_call_us(Prepare prepare, Call call, double budget_s) {
  std::vector<double> us;
  const auto start = Clock::now();
  while (seconds_since(start) < budget_s || us.size() < 50) {
    prepare();
    const auto t0 = Clock::now();
    call();
    us.push_back(ms_between(t0, Clock::now()) * 1e3);
  }
  return median(us);
}

Tensor random_tensor(std::vector<std::size_t> shape, float stddev,
                     std::uint64_t seed) {
  Tensor t(std::move(shape));
  Rng rng(seed);
  for (float& v : t.flat()) v = rng.normal(0.0f, stddev);
  return t;
}

/// Per-call split of the logits wall time into the three backend block
/// calls and the rest (embeddings, matmuls, scores, context, residuals,
/// head). rest is defined as the remainder, so the four sum to encode.
struct Split {
  double encode_ms = 0, softmax_ms = 0, layernorm_ms = 0, activation_ms = 0,
         rest_ms = 0;
  double share(double part) const { return 100.0 * part / encode_ms; }
};

Split split_of(const Window& w, const TimedNonlinearities::Totals& t) {
  double calls = 0.0, total_ms = 0.0;
  for (const Sample& s : w.samples) {
    calls += 1.0;
    total_ms += s.latency_ms;
  }
  Split s;
  s.encode_ms = total_ms / calls;
  s.softmax_ms = t.softmax_ms / calls;
  s.layernorm_ms = t.layernorm_ms / calls;
  s.activation_ms = t.activation_ms / calls;
  s.rest_ms = s.encode_ms - s.softmax_ms - s.layernorm_ms - s.activation_ms;
  return s;
}

/// Runs `backend` through the timing decorator for `seconds` after a
/// warm-up. Outputs are not checked: only the exact and I-BERT Table 5
/// rows use this, and they have no NN-LUT reference.
Split split_for_backend(const TaskModel& model, NonlinearitySet& backend,
                        Workspace& ws, const std::vector<BatchInput>& inputs,
                        double seconds) {
  TimedNonlinearities timed(backend);
  InferenceModel infer(model, timed);
  run_window(infer, ws, inputs, nullptr, 1.0, 0);
  timed.reset();
  const Window w = run_window(infer, ws, inputs, nullptr, seconds, 10);
  return split_of(w, timed.totals());
}

// Paper Table 5, seq 384 (bench/table5_system_performance.cpp): share of
// RoBERTa-base cycles on the simulated accelerator; rest = MatMul + etc.
struct PaperShares {
  double softmax, layernorm, gelu, rest;
};
constexpr PaperShares kPaperNnlut384{6.28, 5.24, 4.19, 83.77 + 0.52};
constexpr PaperShares kPaperIbert384{13.57, 8.14, 5.43, 72.40 + 0.45};

std::string share_line(const char* name, const Split& s,
                       const PaperShares* paper) {
  std::string line =
      fmt("  %-7s softmax %5.2f%%  layernorm %5.2f%%  gelu %5.2f%%  rest "
          "%5.2f%%  (%.3f ms/call)",
          name, s.share(s.softmax_ms), s.share(s.layernorm_ms),
          s.share(s.activation_ms), s.share(s.rest_ms), s.encode_ms);
  if (paper != nullptr)
    line += fmt("  | paper: %5.2f%% %5.2f%% %5.2f%% %5.2f%%", paper->softmax,
                paper->layernorm, paper->gelu, paper->rest);
  else
    line += "  | paper: (no exact column)";
  return line;
}

void table5(Result& r, Setup& s, const std::vector<BatchInput>& inputs,
            const Split& nnlut_split, double seconds) {
  ExactNonlinearities exact(model_config().act);
  IBertNonlinearities ibert(model_config().act);
  const Split e = split_for_backend(s.dep.model, exact, s.ws, inputs, seconds);
  const Split i = split_for_backend(s.dep.model, ibert, s.ws, inputs, seconds);
  r.note(
      "Table 5 at seq 384: measured share of logits wall time on this CPU "
      "(batch 1, FP32 matmuls, all lanes) vs the paper's share of "
      "RoBERTa-base cycles on its simulated accelerator:");
  r.note(share_line("exact", e, nullptr));
  r.note(share_line("nn-lut", nnlut_split, &kPaperNnlut384));
  r.note(share_line("i-bert", i, &kPaperIbert384));
}

/// tensor.* and core.*: standalone calls at the workload's shapes.
void layer_probes(Result& r, const Shape& shape, NonlinearitySet& backend) {
  const ModelConfig cfg = model_config();
  const std::size_t rows = shape.batch * shape.seq;
  const Tensor x = random_tensor({rows, cfg.hidden}, 1.0f, 1);
  const Tensor wq = random_tensor({cfg.hidden, cfg.hidden}, 0.1f, 2);
  const Tensor w1 = random_tensor({cfg.hidden, cfg.ffn}, 0.1f, 3);
  Tensor y({rows, cfg.hidden}), h({rows, cfg.ffn});
  auto nothing = [] {};
  const double qkv_us =
      median_call_us(nothing, [&] { matmul(x, wq, y); }, 0.5);
  const double ffn1_us =
      median_call_us(nothing, [&] { matmul(x, w1, h); }, 0.5);
  r.add("tensor.matmul_qkv_us", qkv_us);
  r.add("tensor.matmul_ffn1_us", ffn1_us);
  r.add("tensor.matmul_gmac_s",
        static_cast<double>(rows * cfg.hidden * cfg.ffn) / (ffn1_us * 1e3));

  // Softmax over the [batch*heads*seq, seq] score block and GELU over the
  // [rows, ffn] FFN block; each call gets fresh inputs restored untimed.
  const std::size_t score_rows = shape.batch * cfg.heads * shape.seq;
  const Tensor scores = random_tensor({score_rows, shape.seq}, 2.0f, 4);
  const Tensor hmid = random_tensor({rows, cfg.ffn}, 2.0f, 5);
  Tensor work_s = scores, work_h = hmid;
  const double softmax_us = median_call_us(
      [&] { std::memcpy(work_s.data(), scores.data(), scores.size() * 4); },
      [&] { backend.softmax_rows(work_s.flat(), score_rows, shape.seq, 0); },
      0.5);
  const double gelu_us = median_call_us(
      [&] { std::memcpy(work_h.data(), hmid.data(), hmid.size() * 4); },
      [&] { backend.activation_rows(work_h.flat(), rows, cfg.ffn, 0); }, 0.5);
  r.add("core.softmax_ns_per_elem",
        softmax_us * 1e3 / static_cast<double>(scores.size()));
  r.add("core.gelu_ns_per_elem",
        gelu_us * 1e3 / static_cast<double>(hmid.size()));
}

}  // namespace

Result run_encode(const Options& o) {
  const Shape shape = shape_for(o.workload);
  const double tokens_per_call = static_cast<double>(shape.batch * shape.seq);
  Result r;
  double setup_s = 0.0;
  std::string setup_note;
  std::unique_ptr<Setup> s = timed_setups<Setup>(
      o.trace ? 1 : kSetupRepeats,
      [&] { return std::make_unique<Setup>(shape.precision); }, setup_s,
      setup_note);

  // Verification set: single-lane references for each distinct input, and
  // the same inputs through the exact backend for the accuracy metric.
  const std::vector<BatchInput> inputs = make_inputs(shape, o.seed);
  const std::vector<Tensor> refs = single_lane_logits(s->infer, inputs);
  ExactNonlinearities exact(model_config().act);
  InferenceModel exact_infer(s->dep.model, exact);
  AbsErr err;
  for (std::size_t k = 0; k < inputs.size(); ++k)
    err.add(exact_infer.logits(inputs[k]), refs[k]);

  run_window(s->infer, s->ws, inputs, &refs, kWarmupSeconds);
  const GatedWindow<Window> gated =
      gated_window<Window>(o.seconds, [&](std::size_t) {
        return run_window(s->infer, s->ws, inputs, &refs, kSliceSeconds);
      });
  const Joined w = join(gated);
  const LatencySummary lat =
      summarize_latency(slice_samples(gated.kept), o.limit_ms);
  const double tokens_per_s =
      tokens_per_call * static_cast<double>(w.kept.ok()) / w.kept.wall_s;
  r.attempted = w.all.samples.size();
  r.failed = w.all.errors + w.all.mismatches;
  r.mismatches = w.all.mismatches;
  r.note(fmt("%s: batch %zu x seq %zu, NN-LUT %s backend, %zu lanes, %zu "
             "distinct inputs",
             o.workload.c_str(), shape.batch, shape.seq, shape.precision_name,
             lanes(), inputs.size()));
  r.note(setup_note);
  r.note(fmt("NN-LUT vs exact logits over %zu values: mean |diff| %.6f, max "
             "%.6f",
             err.count, err.mean(), err.max));
  r.note(gated.note());
  r.note(fmt("window: %zu calls (%zu in kept slices, %.2f s), %llu errors, "
             "%llu mismatches",
             w.all.samples.size(), w.kept.samples.size(), w.kept.wall_s,
             static_cast<unsigned long long>(w.all.errors),
             static_cast<unsigned long long>(w.all.mismatches)));

  if (!o.trace) {
    r.add("setup_s", setup_s);
    r.add("tokens_per_s", tokens_per_s);
    r.add("latency_ms_p50", lat.p50_ms);
    r.add("latency_ms_p90", lat.p90_ms);
    r.add("slo_attain_frac", lat.slo_frac);
    r.add("ok_frac", static_cast<double>(r.attempted - r.failed) /
                         static_cast<double>(r.attempted));
    r.add("peak_rss_mb", peak_rss_mb());
    r.add("logit_err_vs_exact", err.mean());
    return r;
  }

  // Traced window: the same calls through the timing decorator, with
  // thread-pool and buffer-pool counters read before and after.
  TimedNonlinearities timed(*s->backend);
  InferenceModel traced(s->dep.model, timed);
  run_window(traced, s->ws, inputs, &refs, 1.0);
  const runtime::ThreadPoolStats rt0 = runtime::thread_pool_stats();
  const runtime::PoolStats pool0 = s->pool.stats();
  const GatedWindow<Window> tgated =
      gated_window<Window>(o.seconds, [&](std::size_t) {
        timed.reset();
        Window tw = run_window(traced, s->ws, inputs, &refs, kSliceSeconds);
        tw.nonlinear = timed.totals();
        return tw;
      });
  const runtime::ThreadPoolStats rt1 = runtime::thread_pool_stats();
  const runtime::PoolStats pool1 = s->pool.stats();
  const Joined tw = join(tgated);
  r.attempted += tw.all.samples.size();
  r.failed += tw.all.errors + tw.all.mismatches;
  r.mismatches += tw.all.mismatches;

  const Split split = split_of(tw.kept, tw.kept.nonlinear);
  r.add("transformer.encode_ms", split.encode_ms);
  r.add("transformer.softmax_ms", split.softmax_ms);
  r.add("transformer.layernorm_ms", split.layernorm_ms);
  r.add("transformer.activation_ms", split.activation_ms);
  r.add("transformer.rest_ms", split.rest_ms);
  r.add("transformer.nonlinear_share",
        (split.softmax_ms + split.layernorm_ms + split.activation_ms) /
            split.encode_ms);

  // Counter deltas span every slice, so they are divided by every call.
  const double calls = static_cast<double>(tw.all.samples.size());
  const double jobs = static_cast<double>(rt1.jobs - rt0.jobs);
  const double inline_runs =
      static_cast<double>(rt1.inline_runs - rt0.inline_runs);
  r.add("runtime.jobs_per_call", jobs / calls);
  r.add("runtime.shards_per_call",
        static_cast<double>(rt1.shards - rt0.shards) / calls);
  r.add("runtime.inline_frac",
        jobs + inline_runs > 0 ? inline_runs / (jobs + inline_runs) : 0.0);
  r.add("runtime.pool_alloc_delta",
        static_cast<double>(pool1.alloc_count - pool0.alloc_count));

  const double traced_tps =
      tokens_per_call * static_cast<double>(tw.kept.ok()) / tw.kept.wall_s;
  r.add("trace_overhead_frac", (tokens_per_s - traced_tps) / tokens_per_s);
  r.note("traced " + tgated.note());
  r.note(fmt("traced window: %zu calls, %.1f tok/s untraced vs %.1f tok/s "
             "traced",
             tw.all.samples.size(), tokens_per_s, traced_tps));

  layer_probes(r, shape, *s->backend);
  if (o.workload == "encode-long")
    table5(r, *s, inputs, split, o.seconds / 2);
  return r;
}

}  // namespace perfbench
