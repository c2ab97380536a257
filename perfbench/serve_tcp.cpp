// serve-tcp: open-loop load against nnlut_loadgen's self-served shape —
// one Engine with slots "nnlut-fp32" (unbounded) and "nnlut-int32" (queue
// depth 8, reject-oldest), max_batch 8, max_wait 2 ms, behind a loopback
// TcpServer.
//
// Open loop: each of kConnections connections follows its own seeded
// Poisson schedule at rate/kConnections, so the offered load does not
// depend on how fast the server answers and a stall queues later requests
// instead of delaying their sends. A connection has one sender thread
// (sleeps until each request is due, then writes a pre-encoded frame) and
// one reader thread (matches responses to requests by id); raw sockets via
// net/protocol.h and net/socket_io.h, since net::Client is not thread-safe.
// Latency runs from each request's *scheduled* send time to its response.
// Requests alternate between the slots and draw seq from {16, 64}; every
// served result is compared bit for bit with the single-lane reference.
#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "net/protocol.h"
#include "net/socket_io.h"
#include "net/tcp_server.h"
#include "numerics/rng.h"
#include "obs/trace.h"
#include "runtime/thread_pool.h"
#include "serve/engine.h"

namespace perfbench {

using namespace nnlut;
using namespace nnlut::transformer;

namespace {

constexpr std::size_t kConnections = 2;
constexpr std::array<const char*, 2> kSlots{"nnlut-fp32", "nnlut-int32"};
constexpr std::array<std::size_t, 2> kSeqs{16, 64};
constexpr std::size_t kInputsPerSeq = 64;
/// A reader gives up on a connection that stays silent this long.
constexpr int kRecvTimeoutSeconds = 5;

struct Setup {
  Deployment dep;
  std::unique_ptr<LutNonlinearities> fp32, int32;
  serve::Engine engine;
  std::unique_ptr<net::TcpServer> server;  // last member: stops first

  Setup()
      : dep(deploy()),
        fp32(nnlut_backend(dep.luts, LutPrecision::kFp32)),
        int32(nnlut_backend(dep.luts, LutPrecision::kInt32)) {
    serve::SlotConfig slot;
    slot.max_batch = 8;
    slot.max_wait = std::chrono::microseconds(2000);
    engine.register_model(kSlots[0], dep.model, *fp32, slot);
    slot.admission = {/*max_queue_depth=*/8, serve::ShedPolicy::kRejectOldest};
    engine.register_model(kSlots[1], dep.model, *int32, slot);
    server = std::make_unique<net::TcpServer>(engine);
  }
};

/// Distinct inputs: kInputsPerSeq per seq in kSeqs; index = seq slot *
/// kInputsPerSeq + i.
std::vector<BatchInput> make_inputs(std::uint64_t seed) {
  std::vector<BatchInput> inputs;
  for (std::size_t q = 0; q < kSeqs.size(); ++q)
    for (std::size_t i = 0; i < kInputsPerSeq; ++i) {
      Rng rng(seed * 1000003ull + 7777ull + q * kInputsPerSeq + i);
      BatchInput in;
      in.batch = 1;
      in.seq = kSeqs[q];
      in.token_ids.resize(in.seq);
      for (int& t : in.token_ids)
        t = rng.uniform_int(0, static_cast<int>(model_config().vocab) - 1);
      inputs.push_back(std::move(in));
    }
  return inputs;
}

struct Planned {
  double at_s = 0.0;  // due time, seconds after the phase start
  std::size_t slot = 0;
  std::size_t input = 0;
};

enum class Status : std::uint8_t { kMissing, kOk, kMismatch, kShed, kError };

/// One connection's share of a phase: its schedule, pre-encoded frames,
/// and what happened to each request.
struct Conn {
  int fd = -1;
  std::uint64_t next_id = 0;  // request ids never repeat on a connection
  std::uint64_t first_id = 0;
  std::vector<Planned> plan;
  std::vector<std::vector<std::uint8_t>> frames;
  std::vector<Clock::time_point> sent, done;
  std::vector<Status> status;
};

/// Seeded Poisson arrivals at `rate` per second over [0, seconds),
/// alternating slots, seq drawn uniformly from kSeqs.
std::vector<Planned> poisson_plan(std::uint64_t seed, double rate,
                                  double seconds) {
  Rng rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<Planned> plan;
  for (double t = -std::log1p(-unit(rng.engine())) / rate; t < seconds;
       t += -std::log1p(-unit(rng.engine())) / rate) {
    const auto q = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(kSeqs.size()) - 1));
    const auto i = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(kInputsPerSeq) - 1));
    plan.push_back({t, plan.size() % kSlots.size(), q * kInputsPerSeq + i});
  }
  return plan;
}

class Generator {
 public:
  Generator(std::uint16_t port, const std::vector<BatchInput>& inputs,
            const std::array<std::vector<Tensor>, 2>& refs)
      : inputs_(inputs), refs_(refs) {
    for (std::size_t s = 0; s < kSlots.size(); ++s)
      for (const BatchInput& in : inputs) {
        payloads_[s].emplace_back();
        net::encode_submit({kSlots[s], in}, payloads_[s].back());
      }
    for (Conn& c : conns_) {
      c.fd = net::connect_to("127.0.0.1", port);
      net::set_nodelay(c.fd);
      timeval tv{};
      tv.tv_sec = kRecvTimeoutSeconds;
      ::setsockopt(c.fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    }
  }
  ~Generator() {
    for (Conn& c : conns_) {
      net::shutdown_fd(c.fd);
      net::close_fd(c.fd);
    }
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  std::array<Conn, kConnections>& conns() { return conns_; }
  Clock::time_point start() const { return start_; }

  /// Runs one phase to completion: every connection sends its plan on
  /// schedule and reads until each request is answered (or the connection
  /// fails or stays silent for kRecvTimeoutSeconds).
  void run(std::array<std::vector<Planned>, kConnections> plans) {
    for (std::size_t c = 0; c < kConnections; ++c)
      prepare(conns_[c], std::move(plans[c]));
    // A common start a little ahead, so no thread begins late.
    start_ = Clock::now() + std::chrono::milliseconds(20);
    std::vector<std::thread> threads;
    for (Conn& c : conns_) {
      threads.emplace_back([this, &c] { send_loop(c); });
      threads.emplace_back([this, &c] { read_loop(c); });
    }
    for (std::thread& t : threads) t.join();
  }

  Clock::time_point due(const Conn& c, std::size_t j) const {
    return start_ + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(c.plan[j].at_s));
  }
  std::size_t seq_of(const Planned& p) const { return inputs_[p.input].seq; }

 private:
  void prepare(Conn& c, std::vector<Planned> plan) {
    c.plan = std::move(plan);
    const std::size_t n = c.plan.size();
    c.first_id = c.next_id;
    c.next_id += n;
    c.frames.resize(n);
    for (std::size_t j = 0; j < n; ++j)
      c.frames[j] = net::make_frame(net::FrameType::kSubmit, c.first_id + j,
                                    payloads_[c.plan[j].slot][c.plan[j].input]);
    c.sent.assign(n, Clock::time_point{});
    c.done.assign(n, Clock::time_point{});
    c.status.assign(n, Status::kMissing);
  }

  void send_loop(Conn& c) {
    for (std::size_t j = 0; j < c.plan.size(); ++j) {
      std::this_thread::sleep_until(due(c, j));
      c.sent[j] = Clock::now();
      if (!net::send_all(c.fd, c.frames[j].data(), c.frames[j].size())) return;
    }
  }

  void read_loop(Conn& c) {
    std::vector<std::uint8_t> payload;
    try {
      for (std::size_t got = 0; got < c.plan.size(); ++got) {
        std::uint8_t hdr[net::kHeaderSize];
        if (net::recv_all(c.fd, hdr, sizeof hdr) != net::RecvStatus::kOk)
          return;
        net::FrameHeader h;
        if (net::decode_header(hdr, h) != net::HeaderStatus::kOk ||
            h.payload_len > net::kDefaultMaxPayloadBytes)
          return;
        payload.resize(h.payload_len);
        if (h.payload_len > 0 &&
            net::recv_all(c.fd, payload.data(), payload.size()) !=
                net::RecvStatus::kOk)
          return;
        const auto now = Clock::now();
        const std::uint64_t j = h.request_id - c.first_id;
        if (h.request_id < c.first_id || j >= c.plan.size() ||
            c.status[j] != Status::kMissing)
          return;  // an answer to no outstanding request: stop trusting it
        c.done[j] = now;
        const Planned& p = c.plan[j];
        if (h.type == net::FrameType::kResult) {
          c.status[j] = same_bits(net::decode_result(payload),
                                  refs_[p.slot][p.input])
                            ? Status::kOk
                            : Status::kMismatch;
        } else if (h.type == net::FrameType::kError &&
                   net::decode_error(payload).code ==
                       net::ErrorCode::kOverloaded) {
          c.status[j] = Status::kShed;
        } else {
          c.status[j] = Status::kError;
        }
      }
    } catch (const std::exception&) {
      // A malformed response ends the connection's phase; every request
      // still kMissing counts as failed.
    }
  }

  const std::vector<BatchInput>& inputs_;
  const std::array<std::vector<Tensor>, 2>& refs_;
  std::array<std::vector<std::vector<std::uint8_t>>, 2> payloads_;
  std::array<Conn, kConnections> conns_;
  Clock::time_point start_;
};

std::array<std::vector<Planned>, kConnections> open_loop_plans(
    std::uint64_t seed, std::uint64_t phase, double rate, double seconds) {
  std::array<std::vector<Planned>, kConnections> plans;
  for (std::size_t c = 0; c < kConnections; ++c)
    plans[c] = poisson_plan(seed * 1000003ull + phase * 7919ull + c,
                            rate / kConnections, seconds);
  return plans;
}

/// Warm every (slot, seq) workspace and pool size class at the largest
/// batch: eight simultaneous requests per pair, one pair at a time so the
/// bounded slot never sheds.
void warm_up(Generator& gen, std::uint64_t seed, double rate) {
  for (std::size_t s = 0; s < kSlots.size(); ++s)
    for (std::size_t q = 0; q < kSeqs.size(); ++q) {
      std::array<std::vector<Planned>, kConnections> plans;
      for (std::size_t k = 0; k < 8; ++k)
        plans[k % kConnections].push_back({0.0, s, q * kInputsPerSeq + k});
      gen.run(std::move(plans));
    }
  gen.run(open_loop_plans(seed, 0, rate, kWarmupSeconds));
}

struct Phase {
  std::uint64_t attempted = 0, ok = 0;
  std::uint64_t shed = 0, errors = 0, mismatches = 0, missing = 0;
  std::vector<Sample> samples;  // scheduled send -> response
  std::vector<double> wire_ms;  // actual send -> response, ok only
  std::vector<double> lag_ms;   // actual send - scheduled send
  double tokens = 0.0, wall_s = 0.0;

  void add(const Phase& o) {
    attempted += o.attempted;
    ok += o.ok;
    shed += o.shed;
    errors += o.errors;
    mismatches += o.mismatches;
    missing += o.missing;
    samples.insert(samples.end(), o.samples.begin(), o.samples.end());
    wire_ms.insert(wire_ms.end(), o.wire_ms.begin(), o.wire_ms.end());
    lag_ms.insert(lag_ms.end(), o.lag_ms.begin(), o.lag_ms.end());
    tokens += o.tokens;
    wall_s += o.wall_s;
  }
};

Phase summarize(Generator& gen) {
  Phase ph;
  Clock::time_point last = gen.start();
  for (const Conn& c : gen.conns())
    for (std::size_t j = 0; j < c.plan.size(); ++j) {
      ++ph.attempted;
      const Clock::time_point due = gen.due(c, j);
      if (c.sent[j] != Clock::time_point{})
        ph.lag_ms.push_back(ms_between(due, c.sent[j]));
      Sample sample;
      switch (c.status[j]) {
        case Status::kOk:
          ++ph.ok;
          sample = {ms_between(due, c.done[j]), true};
          ph.wire_ms.push_back(ms_between(c.sent[j], c.done[j]));
          ph.tokens += static_cast<double>(gen.seq_of(c.plan[j]));
          last = std::max(last, c.done[j]);
          break;
        case Status::kMismatch: ++ph.mismatches; break;
        case Status::kShed: ++ph.shed; break;
        case Status::kError: ++ph.errors; break;
        case Status::kMissing: ++ph.missing; break;
      }
      ph.samples.push_back(sample);
    }
  ph.wall_s = std::chrono::duration<double>(last - gen.start()).count();
  return ph;
}

/// p50 (µs) of the observations a cumulative histogram gained between two
/// snapshots: the window's bucket counts are replayed into a fresh
/// histogram so LatencyHistogram::quantile reads the window alone.
double window_p50_us(const serve::LatencyHistogram& before,
                     const serve::LatencyHistogram& after) {
  serve::LatencyHistogram window;
  for (std::size_t b = 0; b < serve::LatencyHistogram::kBuckets; ++b)
    for (std::uint64_t n = after.bucket_count(b) - before.bucket_count(b);
         n > 0; --n)
      window.record(std::chrono::microseconds(1ull << b));  // lands in b
  return window.quantile(0.5);
}

struct Snapshot {
  serve::EngineStats engine;
  net::NetStats net;
  runtime::ThreadPoolStats pool;
};

Snapshot snapshot(const Setup& s) {
  return {s.engine.stats(), s.server->stats(), runtime::thread_pool_stats()};
}

void add_layer_metrics(Result& r, const Snapshot& a, const Snapshot& b,
                       const Phase& ph) {
  const serve::SlotStats& t0 = a.engine.total;
  const serve::SlotStats& t1 = b.engine.total;
  r.add("serve.queue_wait_us_p50",
        window_p50_us(t0.hist_queue_wait, t1.hist_queue_wait));
  r.add("serve.batch_wait_us_p50",
        window_p50_us(t0.hist_batch_wait, t1.hist_batch_wait));
  r.add("serve.exec_us_p50", window_p50_us(t0.hist_exec, t1.hist_exec));
  r.add("serve.resolve_us_p50",
        window_p50_us(t0.hist_resolve, t1.hist_resolve));
  const double batches = static_cast<double>(t1.batches - t0.batches);
  // mean_batch_occupancy is a running mean: weight it back into sums.
  const double sequences =
      t1.mean_batch_occupancy * static_cast<double>(t1.batches) -
      t0.mean_batch_occupancy * static_cast<double>(t0.batches);
  r.add("serve.batch_occupancy", batches > 0 ? sequences / batches : 0.0);
  r.add("serve.rejected_overload",
        static_cast<double>(t1.rejected_overload - t0.rejected_overload));

  const double jobs = static_cast<double>(b.pool.jobs - a.pool.jobs);
  const double inline_runs =
      static_cast<double>(b.pool.inline_runs - a.pool.inline_runs);
  const double shards = static_cast<double>(b.pool.shards - a.pool.shards);
  r.add("runtime.jobs_per_call", batches > 0 ? jobs / batches : 0.0);
  r.add("runtime.shards_per_call", batches > 0 ? shards / batches : 0.0);
  r.add("runtime.inline_frac",
        jobs + inline_runs > 0 ? inline_runs / (jobs + inline_runs) : 0.0);
  r.add("runtime.pool_alloc_delta",
        static_cast<double>(t1.pool_alloc_count - t0.pool_alloc_count));

  r.add("net.wire_us_p50",
        quantile(ph.wire_ms, 0.5) * 1e3 -
            window_p50_us(t0.hist_total, t1.hist_total));
  r.add("net.bytes_per_req",
        static_cast<double>((b.net.bytes_read - a.net.bytes_read) +
                            (b.net.bytes_written - a.net.bytes_written)) /
            static_cast<double>(ph.attempted));
  r.add("net.sheds_preparse",
        static_cast<double>(b.net.sheds_preparse - a.net.sheds_preparse));
  r.add("net.protocol_errors",
        static_cast<double>(b.net.protocol_errors - a.net.protocol_errors));
  r.add("loadgen.lag_ms_p90", quantile(ph.lag_ms, 0.9));
}

void note_phase(Result& r, const char* name, const Phase& ph) {
  r.note(fmt("%s: %llu scheduled, %llu ok, %llu shed, %llu errors, %llu "
             "mismatches, %llu unanswered; generator lag p90 %.3f ms",
             name, static_cast<unsigned long long>(ph.attempted),
             static_cast<unsigned long long>(ph.ok),
             static_cast<unsigned long long>(ph.shed),
             static_cast<unsigned long long>(ph.errors),
             static_cast<unsigned long long>(ph.mismatches),
             static_cast<unsigned long long>(ph.missing),
             quantile(ph.lag_ms, 0.9)));
}

}  // namespace

Result run_serve_tcp(const Options& o) {
  Result r;
  double setup_s = 0.0;
  std::string setup_note;
  std::unique_ptr<Setup> s = timed_setups<Setup>(
      o.trace ? 1 : kSetupRepeats, [] { return std::make_unique<Setup>(); },
      setup_s, setup_note);

  // Verification set: single-lane references per slot backend, and the
  // same inputs through the exact backend for the accuracy metric.
  const std::vector<BatchInput> inputs = make_inputs(o.seed);
  std::array<std::vector<Tensor>, 2> refs;
  {
    InferenceModel fp32(s->dep.model, *s->fp32);
    InferenceModel int32(s->dep.model, *s->int32);
    refs = {single_lane_logits(fp32, inputs),
            single_lane_logits(int32, inputs)};
  }
  ExactNonlinearities exact(model_config().act);
  InferenceModel exact_infer(s->dep.model, exact);
  AbsErr err;
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    const Tensor e = exact_infer.logits(inputs[k]);
    for (const auto& slot_refs : refs) err.add(e, slot_refs[k]);
  }

  Generator gen(s->server->port(), inputs, refs);
  warm_up(gen, o.seed, o.rate);
  r.note(fmt("serve-tcp: open loop at %.1f req/s over %zu connections, "
             "latency limit %.3f ms, seq mix {16, 64}, %zu lanes",
             o.rate, kConnections, o.limit_ms, lanes()));
  r.note(setup_note);
  r.note(fmt("NN-LUT (fp32 and int32 slots) vs exact logits over %zu values: "
             "mean |diff| %.6f, max %.6f",
             err.count, err.mean(), err.max));

  // Slice k of the window is phase 1 + k of the seed's schedule; a slice
  // run again after a disturbance replays the same requests.
  const GatedWindow<Phase> gated =
      gated_window<Phase>(o.seconds, [&](std::size_t k) {
        gen.run(open_loop_plans(o.seed, 1 + k, o.rate, kSliceSeconds));
        return summarize(gen);
      });
  Phase ph, all;  // the kept slices; every slice
  for (const Phase& p : gated.kept) ph.add(p);
  all = ph;
  for (const Phase& p : gated.dropped) all.add(p);
  const LatencySummary lat =
      summarize_latency(slice_samples(gated.kept), o.limit_ms);
  r.note(gated.note());
  note_phase(r, "window (kept slices)", ph);
  if (!gated.dropped.empty()) note_phase(r, "window (every slice)", all);
  r.attempted = all.attempted;
  r.failed = all.attempted - all.ok;
  r.mismatches = all.mismatches;

  if (!o.trace) {
    r.add("setup_s", setup_s);
    r.add("tokens_per_s", ph.tokens / ph.wall_s);
    r.add("latency_ms_p50", lat.p50_ms);
    r.add("latency_ms_p90", lat.p90_ms);
    r.add("slo_attain_frac", lat.slo_frac);
    r.add("ok_frac",
          static_cast<double>(ph.ok) / static_cast<double>(ph.attempted));
    r.add("peak_rss_mb", peak_rss_mb());
    r.add("logit_err_vs_exact", err.mean());
    return r;
  }

  // Traced window: one phase of the same schedule shape with the
  // lifecycle tracer armed; serve / net / runtime counters are read around
  // it. It is not gated: the counter deltas cover the whole phase, and the
  // per-layer metrics have no bounds.
  obs::TraceRecorder& tracer = obs::TraceRecorder::instance();
  tracer.enable();
  const Snapshot before = snapshot(*s);
  gen.run(open_loop_plans(o.seed, 1000, o.rate, o.seconds));
  const Snapshot after = snapshot(*s);
  tracer.disable();
  const Phase tph = summarize(gen);
  const LatencySummary tlat = summarize_latency({tph.samples}, o.limit_ms);
  note_phase(r, "traced window", tph);
  r.attempted += tph.attempted;
  r.failed += tph.attempted - tph.ok;
  r.mismatches += tph.mismatches;
  add_layer_metrics(r, before, after, tph);
  r.add("trace_overhead_frac", (tlat.p50_ms - lat.p50_ms) / lat.p50_ms);
  if (!o.trace_out.empty()) {
    if (tracer.export_json_file(o.trace_out))
      r.note("chrome trace: " + o.trace_out);
    else
      r.note("chrome trace: could not write " + o.trace_out);
  }
  return r;
}

}  // namespace perfbench
