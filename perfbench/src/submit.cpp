// submit_tcp: one-shot heart-rate windows sent as SUBMIT frames over
// loopback TCP to an in-process FrontEnd -> InferenceServer serving the
// paper-size TEMPONet in fp32.
//
// Phase "fixed": open-loop Poisson arrivals at kFixedRate, well below
// saturation; latency is timed from each request's scheduled send, and
// the generator busy-polls so it holds no client wake-up.
// Phase "saturation": every connection keeps kSatWindow requests in
// flight (far under the front end's admission budget, so nothing is
// shed); throughput is the median of per-second completion counts.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "checks.hpp"
#include "hw/gap8.hpp"
#include "net/front_end.hpp"
#include "serve/inference_server.hpp"
#include "setup.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace pit;

constexpr int kConnections = 2;
constexpr index_t kPoolWindows = 256;   // distinct request windows
constexpr double kFixedRate = 400.0;    // requests/s, Poisson
constexpr int kSatWindow = 24;          // in flight per connection
constexpr double kDrainS = 5.0;         // answer deadline after a phase
constexpr std::uint64_t kSatTraceEvery = 64;  // span sampling, saturation

/// Server workers: the loop thread, the load generator and the workers
/// share the host's cores.
int server_workers() { return std::clamp(cpu_budget() - 2, 1, 2); }

struct Stack {
  std::unique_ptr<data::PpgDaliaDataset> data;
  Tensor windows;  // (kPoolWindows, C, T)
  std::unique_ptr<models::TempoNet> model;
  std::shared_ptr<runtime::PlanRegistry> registry;
  runtime::PlanHandle handle;
  std::unique_ptr<serve::InferenceServer> server;
  std::unique_ptr<net::FrontEnd> frontend;
  std::vector<std::unique_ptr<net::BlockingClient>> clients;
  double setup_s = 0.0;
  double synth_ms = 0.0;
  double compile_ms = 0.0;
  std::vector<double> connect_ms;
};

std::unique_ptr<Stack> build_stack(std::uint64_t seed) {
  auto s = std::make_unique<Stack>();
  const double t0 = now_s();
  s->data = make_ppg(kPoolWindows, paper_config().input_length, seed);
  s->windows = stack_windows(*s->data);
  s->synth_ms = (now_s() - t0) * 1e3;
  s->model = make_served_temponet();
  s->registry = std::make_shared<runtime::PlanRegistry>();
  const double tc = now_s();
  s->handle = register_window_plan(s->registry, *s->model);
  s->compile_ms = (now_s() - tc) * 1e3;
  serve::ServerOptions server_opts;
  server_opts.threads = server_workers();
  // Workers (which inherit this mask) get every CPU but the last; the
  // load generator and the front end's loop share the last one, so a
  // request and its RESULT cross no extra CPU boundary (on a VM each is
  // a hypervisor round trip whose cost varies with host load).
  pin_thread(0, cpu_budget() - 1);
  s->server = std::make_unique<serve::InferenceServer>(s->handle, server_opts);
  pin_thread(cpu_budget() - 1, 1);
  s->frontend = std::make_unique<net::FrontEnd>(s->server.get(), nullptr);
  s->frontend->start();
  s->clients =
      connect_clients(s->frontend->port(), kConnections, &s->connect_ms);
  s->setup_s = now_s() - t0;
  return s;
}

/// Builds the stack kSetupReps times (each torn down before the next)
/// and returns the last with setup_s replaced by the median.
std::unique_ptr<Stack> build_stack_median(std::uint64_t seed) {
  std::vector<double> times;
  std::unique_ptr<Stack> s;
  for (int r = 0; r < kSetupReps; ++r) {
    s.reset();
    s = build_stack(seed);
    times.push_back(s->setup_s);
  }
  s->setup_s = median(times);
  return s;
}

enum class Status : std::uint8_t { kPending, kOk, kShed, kError };

struct Request {
  std::uint32_t window = 0;
  std::uint8_t conn = 0;
  Status status = Status::kPending;
  double sched = 0.0;
  double sent = 0.0;
  double done = 0.0;
};

struct Counts {
  std::uint64_t attempted = 0, ok = 0, shed = 0, error = 0;
};

/// Pipelined SUBMIT traffic over the stack's connections. Request ids
/// are sequence numbers plus one; in-flight requests live in a fixed
/// ring, so memory does not grow with the number of requests served.
/// Every RESULT is checked on arrival against the module-forward
/// reference of its window (computed before the timed phases).
class Driver {
 public:
  Driver(Stack& s, const Tensor& ref, RunResult& res)
      : s_(s), ref_(ref), res_(res), ring_(kRing) {
    const auto& hello = s.clients.front()->hello();
    c_ = hello.submit_in_channels;
    t_ = hello.submit_in_steps;
    out_dim_ = static_cast<std::size_t>(ref.numel() / ref.dim(0));
    out_.resize(out_dim_);
  }

  Counts counts;
  /// Self-test: the RESULT of this request id has a bit flipped first.
  std::uint64_t corrupt_id = 0;

  const Request& at(std::uint64_t id) const { return ring_[id % kRing]; }

  /// Sends a new request; returns its id.
  std::uint64_t send(std::uint32_t window, std::uint8_t conn, double sched) {
    const std::uint64_t id = next_id_++;
    Request& r = ring_[id % kRing];
    if (r.status == Status::kPending && id > kRing) {
      throw std::runtime_error("submit: request ring overrun");
    }
    r = {window, conn, Status::kPending, sched, 0.0, 0.0};
    buf_.clear();
    net::encode_submit(buf_, id, c_, t_, s_.windows.data() + window * c_ * t_);
    r.sent = now_s();
    ++counts.attempted;
    ++outstanding_;
    if (!s_.clients[conn]->conn().send_frames(buf_)) {
      throw std::runtime_error("submit: send failed");
    }
    return id;
  }

  /// Reads every frame already available; calls on_done(id) per answer.
  template <typename Fn>
  void drain(Fn&& on_done) {
    for (std::size_t c = 0; c < s_.clients.size(); ++c) {
      net::FrameView frame;
      while (s_.clients[c]->conn().poll_frame(frame) ==
             net::FrameReader::Status::kFrame) {
        const std::uint64_t id = handle(frame);
        if (id != 0) {
          --outstanding_;
          on_done(id);
        }
      }
    }
  }

  std::size_t outstanding() const { return outstanding_; }

 private:
  static constexpr std::uint64_t kRing = 1U << 14;

  /// Records one answer; returns its request id (0 when unusable).
  std::uint64_t handle(const net::FrameView& frame) {
    const double t = now_s();
    net::ErrCode err{};
    if (frame.type == net::MsgType::kResult) {
      net::ResultMsg msg;
      if (!net::decode_result(frame.payload, msg, err) || !live(msg.req_id) ||
          static_cast<std::size_t>(msg.channels) * msg.steps != out_dim_) {
        return 0;
      }
      Request& r = ring_[msg.req_id % kRing];
      net::copy_floats(msg.data, out_.data(), out_dim_);
      if (msg.req_id == corrupt_id) {
        std::uint32_t bits = 0;
        std::memcpy(&bits, out_.data(), sizeof(bits));
        bits ^= 1U << 22;  // the top mantissa bit
        std::memcpy(out_.data(), &bits, sizeof(bits));
      }
      const std::string bad =
          check_submit_result(msg.req_id, r.window, out_.data(),
                              ref_.data() + r.window * out_dim_, out_dim_);
      if (!bad.empty()) {
        res_.fail_check(bad);
      }
      r.status = Status::kOk;
      r.done = t;
      ++counts.ok;
      return msg.req_id;
    }
    if (frame.type == net::MsgType::kError) {
      net::ErrorMsg msg;
      if (!net::decode_error(frame.payload, msg, err) || !live(msg.req_id)) {
        return 0;
      }
      Request& r = ring_[msg.req_id % kRing];
      const bool shed = msg.code == net::ErrCode::kRetryAfter;
      r.status = shed ? Status::kShed : Status::kError;
      r.done = t;
      ++(shed ? counts.shed : counts.error);
      return msg.req_id;
    }
    return 0;
  }

  bool live(std::uint64_t id) const {
    return id != 0 && id < next_id_ && id + kRing >= next_id_ &&
           ring_[id % kRing].status == Status::kPending;
  }

  Stack& s_;
  const Tensor& ref_;
  RunResult& res_;
  std::vector<Request> ring_;
  std::uint32_t c_ = 0, t_ = 0;
  std::size_t out_dim_ = 0;
  std::vector<float> out_;
  std::uint64_t next_id_ = 1;
  std::size_t outstanding_ = 0;
  std::vector<std::uint8_t> buf_;
};

/// A phase's accounting from the counters before and after it; requests
/// still unanswered at the end count as timeouts.
PhaseReport account(const char* name, const Counts& before,
                    const Counts& after, std::size_t unanswered,
                    double seconds) {
  PhaseReport p;
  p.name = name;
  p.seconds = seconds;
  p.attempted = after.attempted - before.attempted;
  p.completed = after.ok - before.ok;
  p.shed = after.shed - before.shed;
  p.error = after.error - before.error;
  p.timeout = unanswered;
  return p;
}

/// Poisson arrival times over [0, duration) and uniform window picks.
void make_schedule(std::uint64_t seed, double rate, double duration,
                   std::vector<double>& times,
                   std::vector<std::uint32_t>& windows) {
  RandomEngine rng(mix64(seed ^ 0x5B17ULL));
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= duration) {
      break;
    }
    times.push_back(t);
    windows.push_back(static_cast<std::uint32_t>(rng.randint(kPoolWindows)));
  }
}

double mean_batch(const serve::ServerStats& before,
                  const serve::ServerStats& after) {
  const auto batches = after.batches - before.batches;
  return batches > 0 ? static_cast<double>(after.completed -
                                           before.completed) /
                           static_cast<double>(batches)
                     : 0.0;
}

struct FixedOut {
  PhaseReport report;
  std::vector<double> latency_s;
  double mean_batch = 0.0;
};

/// Open-loop phase: sends each request at its scheduled time.
FixedOut run_fixed(Stack& s, Driver& d, std::uint64_t seed, double duration) {
  std::vector<double> times;
  std::vector<std::uint32_t> windows;
  make_schedule(seed, kFixedRate, duration, times, windows);
  const serve::ServerStats before = s.server->stats();
  const Counts counts0 = d.counts;
  FixedOut out;
  out.latency_s.reserve(times.size());
  out.report.lateness.reserve(times.size());
  const double start = now_s() + 0.01;
  std::size_t next = 0;
  const double deadline = start + duration + kDrainS;
  auto on_done = [&](std::uint64_t id) {
    const Request& r = d.at(id);
    if (r.status == Status::kOk) {
      out.latency_s.push_back(r.done - r.sched);
    }
    Trace::instance().record("net.submit", id, r.sched, r.done);
  };
  while (now_s() < deadline) {
    while (next < times.size() && start + times[next] <= now_s()) {
      const double sched = start + times[next];
      const std::uint64_t id = d.send(
          windows[next], static_cast<std::uint8_t>(next % kConnections), sched);
      out.report.lateness.push_back(d.at(id).sent - sched);
      ++next;
    }
    if (next == times.size() && d.outstanding() == 0) {
      break;
    }
    d.drain(on_done);  // busy-polls: no client wake-up inside the latency
  }
  auto lateness = std::move(out.report.lateness);
  out.report = account("fixed", counts0, d.counts, d.outstanding(), duration);
  out.report.lateness = std::move(lateness);
  out.mean_batch = mean_batch(before, s.server->stats());
  return out;
}

struct SatOut {
  PhaseReport report;
  double ops_per_s = 0.0;
  double cpu_us_per_op = 0.0;
  double mean_batch = 0.0;
};

/// Closed-loop pipelined phase: kSatWindow requests in flight per
/// connection; each answer sends the next until the phase ends.
SatOut run_saturation(Stack& s, Driver& d, std::uint64_t seed,
                      double duration) {
  RandomEngine rng(mix64(seed ^ 0x5A7ULL));
  const serve::ServerStats before = s.server->stats();
  const Counts counts0 = d.counts;
  const double start = now_s();
  const double end = start + duration;
  std::vector<double> per_second(
      static_cast<std::size_t>(std::floor(duration)), 0.0);
  std::uint64_t completed_in_window = 0;
  auto issue = [&](std::uint8_t conn) {
    d.send(static_cast<std::uint32_t>(rng.randint(kPoolWindows)), conn,
           now_s());
  };
  auto on_done = [&](std::uint64_t id) {
    const Request& r = d.at(id);
    if (id % kSatTraceEvery == 0) {
      Trace::instance().record("net.submit", id, r.sched, r.done);
    }
    if (r.done < end) {
      ++completed_in_window;
      const auto b = static_cast<std::size_t>(r.done - start);
      if (b < per_second.size()) {
        per_second[b] += 1.0;
      }
      issue(r.conn);
    }
  };
  const double cpu0 = cpu_seconds();
  for (int c = 0; c < kConnections; ++c) {
    for (int w = 0; w < kSatWindow; ++w) {
      issue(static_cast<std::uint8_t>(c));
    }
  }
  while (now_s() < end) {
    wait_readable(s.clients, 0.002);
    d.drain(on_done);
  }
  const double cpu1 = cpu_seconds();
  const double deadline = now_s() + kDrainS;
  while (d.outstanding() > 0 && now_s() < deadline) {
    wait_readable(s.clients, 0.002);
    d.drain(on_done);
  }
  SatOut out;
  out.report =
      account("saturation", counts0, d.counts, d.outstanding(), duration);
  out.ops_per_s = median(per_second);
  out.cpu_us_per_op =
      completed_in_window > 0
          ? (cpu1 - cpu0) * 1e6 / static_cast<double>(completed_in_window)
          : 0.0;
  out.mean_batch = mean_batch(before, s.server->stats());
  return out;
}

/// The module-forward (autograd path) output of every pool window: the
/// reference each RESULT is checked against.
Tensor reference(Stack& s) { return module_forward(*s.model, s.windows); }

}  // namespace

RunResult run_submit_tcp(const RunOptions& opt) {
  RunResult res;
  auto s = build_stack_median(opt.seed);
  const Tensor ref = reference(*s);
  Driver d(*s, ref, res);
  const double half = opt.seconds / 2.0;
  FixedOut fixed = run_fixed(*s, d, opt.seed, half);
  SatOut sat = run_saturation(*s, d, opt.seed, half);
  res.phases = {fixed.report, sat.report};
  res.end_to_end.set("setup_s", s->setup_s, "s");
  res.end_to_end.set("p50_ms", median(fixed.latency_s) * 1e3, "ms");
  res.end_to_end.set("ops_per_s", sat.ops_per_s, "1/s");
  res.end_to_end.set("cpu_us_per_op", sat.cpu_us_per_op, "us");
  res.end_to_end.set("peak_rss_mb", peak_rss_mb(), "MiB");
  std::printf("submit_tcp: fixed rate %.0f/s p50 %.4f ms, mean batch %.2f; "
              "saturation %.0f/s, mean batch %.2f, %d server workers\n",
              kFixedRate, median(fixed.latency_s) * 1e3, fixed.mean_batch,
              sat.ops_per_s, sat.mean_batch, server_workers());
  return res;
}

namespace {

constexpr double kProbeFixedS = 3.0;
constexpr double kProbeSatS = 2.0;
constexpr index_t kProbeBatch = 16;  // the server's max_batch

/// Median wall time of fn() over `reps` calls after two warm-ups, us.
template <typename Fn>
double median_us(int reps, Fn&& fn) {
  fn();
  fn();
  std::vector<double> us;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_s();
    fn();
    us.push_back((now_s() - t0) * 1e6);
  }
  return median(us);
}

/// (n, C, T) batch of the first n pool windows.
Tensor pool_batch(const Stack& s, index_t n) {
  const index_t per = s.windows.numel() / s.windows.dim(0);
  Tensor x = Tensor::empty(Shape{n, s.windows.dim(1), s.windows.dim(2)});
  std::memcpy(x.data(), s.windows.data(),
              static_cast<std::size_t>(n * per) * sizeof(float));
  return x;
}

struct DirectOut {
  std::vector<double> from_sched;   // callback time - scheduled time
  std::vector<double> call_to_done; // callback time - try_submit call
};

/// The fixed phase's schedule replayed straight into try_submit.
DirectOut replay_direct(Stack& s, std::uint64_t seed, double duration) {
  std::vector<double> times;
  std::vector<std::uint32_t> windows;
  make_schedule(seed, kFixedRate, duration, times, windows);
  const std::size_t n = times.size();
  std::vector<double> called(n), done(n);
  std::atomic<std::size_t> finished{0};
  const index_t c = s.windows.dim(1), t = s.windows.dim(2);
  const double start = now_s() + 0.01;
  for (std::size_t i = 0; i < n; ++i) {
    while (now_s() < start + times[i]) {
      // busy-waits, like the TCP generator, so both sides send on time
    }
    Tensor in = Tensor::empty(Shape{c, t});
    std::memcpy(in.data(), s.windows.data() + windows[i] * c * t,
                static_cast<std::size_t>(c * t) * sizeof(float));
    called[i] = now_s();
    const bool admitted = s.server->try_submit(
        std::move(in), [&done, &finished, i](Tensor&&, std::exception_ptr) {
          done[i] = now_s();
          finished.fetch_add(1, std::memory_order_release);
        });
    if (!admitted) {
      throw std::runtime_error("probe: try_submit refused a request");
    }
  }
  while (finished.load(std::memory_order_acquire) < n) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  DirectOut out;
  for (std::size_t i = 0; i < n; ++i) {
    Trace::instance().record("serve.try_submit", i + 1, called[i], done[i]);
    out.from_sched.push_back(done[i] - (start + times[i]));
    out.call_to_done.push_back(done[i] - called[i]);
  }
  return out;
}

/// A plan holding only op `op` of the served network, random weights.
runtime::CompiledPlan single_op_plan(const runtime::CompiledPlan::OpInfo& op,
                                     RandomEngine& rng) {
  runtime::NetBuilder b;
  const auto rand = [&rng](index_t n) {
    std::vector<float> v(static_cast<std::size_t>(n));
    for (float& x : v) {
      x = static_cast<float>(rng.uniform(-0.1, 0.1));
    }
    return v;
  };
  runtime::ValueId y = -1;
  switch (op.kind) {
    case runtime::detail::OpKind::kConv: {
      const runtime::ValueId x = b.input(op.c_in, op.t_in);
      runtime::FrozenConv fc{op.c_in, op.c_out, op.k, op.dilation, op.stride,
                             rand(op.c_out * op.c_in * op.k),
                             rand(op.c_out)};
      y = b.conv(x, fc, op.relu);
      break;
    }
    case runtime::detail::OpKind::kLinear: {
      const runtime::ValueId x = b.input(op.c_in, 1);
      y = b.linear(x,
                   Tensor::from_vector(rand(op.c_out * op.c_in),
                                       Shape{op.c_out, op.c_in}),
                   Tensor::from_vector(rand(op.c_out), Shape{op.c_out}),
                   op.relu);
      break;
    }
    case runtime::detail::OpKind::kAvgPool: {
      const runtime::ValueId x = b.input(op.c_in, op.t_in);
      y = b.avg_pool(x, op.k, op.stride);
      break;
    }
    case runtime::detail::OpKind::kAdd: {
      const runtime::ValueId x0 = b.input(op.c_in, op.t_in);
      y = b.add(x0, x0, op.relu);
      break;
    }
  }
  return std::move(b).compile(y);
}

const char* kind_name(runtime::detail::OpKind k) {
  switch (k) {
    case runtime::detail::OpKind::kConv: return "conv";
    case runtime::detail::OpKind::kLinear: return "linear";
    case runtime::detail::OpKind::kAvgPool: return "avgpool";
    case runtime::detail::OpKind::kAdd: return "add";
  }
  return "?";
}

/// kernels.opNN.*: one single-op plan per op of the served network, at
/// batch kProbeBatch; prints the gap8 model's predicted cycles beside.
void probe_kernels(const runtime::CompiledPlan& plan, Metrics& m) {
  RandomEngine rng(5);
  const hw::Gap8Model gap8;
  const auto ops = plan.op_infos();
  std::vector<double> us(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const auto& op = ops[i];
    const runtime::CompiledPlan single = single_op_plan(op, rng);
    const Tensor x =
        op.kind == runtime::detail::OpKind::kLinear
            ? Tensor::randn(Shape{kProbeBatch, op.c_in}, rng)
            : Tensor::randn(Shape{kProbeBatch, op.c_in, op.t_in}, rng);
    runtime::ExecutionContext ctx;
    us[i] = median_us(40, [&] { single.forward(x, ctx); });
  }
  double total = 0.0;
  for (double u : us) {
    total += u;
  }
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const auto& op = ops[i];
    char key[32];
    std::snprintf(key, sizeof(key), "kernels.op%02zu", i);
    const double gmac = static_cast<double>(op.macs()) * kProbeBatch /
                        (us[i] * 1e-6) / 1e9;
    m.set(std::string(key) + ".us", us[i], "us");
    m.set(std::string(key) + ".gmac_per_s", gmac, "GMAC/s");
    m.set(std::string(key) + ".share", us[i] / total, "ratio");
    hw::LayerDesc desc;
    using runtime::detail::OpKind;
    desc.kind = op.kind == OpKind::kLinear    ? hw::LayerKind::kLinear
                : op.kind == OpKind::kAvgPool ? hw::LayerKind::kPool
                                              : hw::LayerKind::kConv;
    desc.cin = op.c_in;
    desc.cout = op.c_out;
    desc.k = op.k;
    desc.dilation = op.dilation;
    desc.stride = op.stride;
    desc.t_in = op.t_in;
    desc.t_out = op.t_out;
    std::printf("%s: %-7s %4lld->%-4lld k%lld d%lld t%lld->%lld  %9.1f us "
                "(batch %lld)  %6.2f GMAC/s  share %.3f  gap8 %.0f cycles\n",
                key, kind_name(op.kind), static_cast<long long>(op.c_in),
                static_cast<long long>(op.c_out),
                static_cast<long long>(op.k),
                static_cast<long long>(op.dilation),
                static_cast<long long>(op.t_in),
                static_cast<long long>(op.t_out), us[i],
                static_cast<long long>(kProbeBatch), gmac, us[i] / total,
                gap8.layer_perf(desc).total_cycles);
  }
}

}  // namespace

void probe_submit(const RunOptions& opt, Metrics& m) {
  std::vector<double> compile, synth, connect;
  std::unique_ptr<Stack> s;
  for (int r = 0; r < kSetupReps; ++r) {
    s.reset();
    s = build_stack(opt.seed);
    compile.push_back(s->compile_ms);
    synth.push_back(s->synth_ms);
    connect.insert(connect.end(), s->connect_ms.begin(), s->connect_ms.end());
  }
  m.set("runtime.compile_ms", median(compile), "ms");
  m.set("data.synth_ms", median(synth), "ms");
  m.set("net.connect_ms", median(connect), "ms");

  RunResult unused;
  const Tensor ref = reference(*s);
  Driver d(*s, ref, unused);
  const FixedOut fixed = run_fixed(*s, d, opt.seed, kProbeFixedS);
  const SatOut sat = run_saturation(*s, d, opt.seed, kProbeSatS);
  m.set("serve.mean_batch_fixed", fixed.mean_batch, "count");
  m.set("serve.mean_batch_sat", sat.mean_batch, "count");
  s->frontend->stop();

  const DirectOut direct = replay_direct(*s, opt.seed, kProbeFixedS);
  const double submit_us = median(direct.call_to_done) * 1e6;
  m.set("net.submit_self_us",
        (median(fixed.latency_s) - median(direct.from_sched)) * 1e6, "us");
  m.set("serve.submit_us", submit_us, "us");

  const auto plan = s->handle.acquire().plan();
  runtime::ExecutionContext ctx;
  const Tensor x1 = pool_batch(*s, 1);
  const Tensor x16 = pool_batch(*s, kProbeBatch);
  const double b1 = median_us(200, [&] { plan->forward(x1, ctx); });
  const double b16 = median_us(40, [&] { plan->forward(x16, ctx); });
  double macs = 0.0;
  for (const auto& op : plan->op_infos()) {
    macs += static_cast<double>(op.macs());
  }
  m.set("runtime.fwd_b1_us", b1, "us");
  m.set("runtime.fwd_b16_us_per_sample", b16 / kProbeBatch, "us");
  m.set("runtime.fwd_gmac_per_s", macs * kProbeBatch / (b16 * 1e-6) / 1e9,
        "GMAC/s");
  m.set("serve.batch_wait_us", submit_us - b1, "us");
  probe_kernels(*plan, m);
}

bool selftest_submit(std::vector<std::string>& log) {
  auto s = build_stack(1);
  const Tensor ref = reference(*s);
  bool ok = true;
  for (const bool corrupt : {false, true}) {
    RunResult res;
    Driver d(*s, ref, res);
    d.corrupt_id = corrupt ? 4 : 0;
    for (std::uint32_t i = 0; i < 8; ++i) {
      d.send(i * 7, static_cast<std::uint8_t>(i % kConnections), now_s());
    }
    const double deadline = now_s() + kDrainS;
    while (d.outstanding() > 0 && now_s() < deadline) {
      wait_readable(s->clients, 0.002);
      d.drain([](std::uint64_t) {});
    }
    ok &= corrupt ? expect_rejected(log, "submit: one RESULT float with a "
                                    "flipped bit", res, kCheckSubmit)
                  : expect_accepted(log, "submit: genuine RESULTs", res);
  }
  return ok;
}

}  // namespace perfbench
