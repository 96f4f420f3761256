#include "arch/pipeline.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <stdexcept>

#include "cost/cost_model.h"

namespace hetacc::arch {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One bounded row channel: entries are the times their rows became
/// available; space frees when the consumer pops.
struct Channel {
  std::size_t capacity = std::numeric_limits<std::size_t>::max();
  std::deque<double> rows;  ///< availability time of each queued row
  std::vector<double> pop_times;  ///< when each popped row left, in order
  std::size_t max_occupancy = 0;
  long long pushed = 0;

  void push(double t) {
    rows.push_back(t);
    ++pushed;
    max_occupancy = std::max(max_occupancy, rows.size());
  }
  void pop(double t) {
    rows.pop_front();
    pop_times.push_back(t);
  }
  [[nodiscard]] bool fits(long long burst) const {
    return rows.size() + static_cast<std::size_t>(burst) <= capacity;
  }
  /// Earliest time a burst that fits() could start: the pop that freed the
  /// last slot it needs (0 when the channel never filled that far).
  [[nodiscard]] double room_time(long long burst) const {
    const auto need = static_cast<std::size_t>(pushed + burst);
    return need <= capacity ? 0.0 : pop_times[need - capacity - 1];
  }
};

/// A streaming engine in the event simulation: alternates between pulling
/// rows into its line buffer and emitting output rows (blocks of `block`
/// rows for Winograd).
struct Node {
  // Geometry (real input-row coordinates; padding rows are free).
  long long in_rows = 0, out_rows = 0;
  int stride = 1, pad = 0, reach = 1, block = 1, lines = 2;
  double produce_cycles = 1.0;  ///< per output row

  long long pulled = 0;   ///< input rows taken from the upstream channel
  long long emitted = 0;  ///< output rows pushed downstream
  double busy_until = 0.0;
  double stall = 0.0;

  /// Input row `offset` rows past the next output block's first window row.
  [[nodiscard]] long long in_row(long long offset) const {
    const long long base = (emitted / block) * block * stride - pad;
    return std::clamp<long long>(base + offset, 0, in_rows - 1);
  }
  /// Deepest real input row the next output block needs.
  [[nodiscard]] long long dep() const { return in_row(reach - 1); }
  /// Oldest input row the next output block still reads (line-buffer floor).
  [[nodiscard]] long long oldest_needed() const { return in_row(0); }
  [[nodiscard]] bool done() const { return emitted >= out_rows; }
  [[nodiscard]] bool inputs_ready() const { return pulled > dep(); }
  [[nodiscard]] bool can_prefetch() const {
    return pulled < in_rows && pulled - oldest_needed() < lines;
  }
};

}  // namespace

ScheduleResult simulate_schedule(const nn::Network& net, std::size_t first,
                                 std::size_t last,
                                 const std::vector<fpga::Implementation>& impls,
                                 const fpga::Device& dev,
                                 std::size_t fifo_capacity_rows,
                                 const fault::FaultInjector* inj) {
  if (first > last || last >= net.size() ||
      impls.size() != last - first + 1) {
    throw std::invalid_argument("simulate_schedule: bad range");
  }
  if (fifo_capacity_rows == 0) {
    throw std::invalid_argument("simulate_schedule: capacity must be >= 1");
  }
  const std::size_t n = impls.size();

  std::vector<Node> nodes(n);
  for (std::size_t k = 0; k < n; ++k) {
    const nn::Layer& l = net[first + k];
    const auto& ipl = impls[k];
    Node& nd = nodes[k];
    nd.in_rows = l.in.h;
    nd.out_rows = l.out.h;
    nd.stride = l.stride();
    nd.pad = l.padding();
    const bool wino = ipl.cfg.algo == fpga::ConvAlgo::kWinograd;
    nd.block = wino ? ipl.cfg.wino_m : 1;
    nd.reach = wino ? ipl.cfg.wino_m + l.window() - 1 : l.window();
    nd.lines = wino ? 2 * ipl.cfg.wino_m + l.window() - 1
                    : l.window() + l.stride();
    nd.produce_cycles = static_cast<double>(ipl.compute_cycles) /
                        std::max<long long>(1, nd.out_rows);
  }

  // Channels: [0] DDR -> first engine, [k] engine k-1 -> k, [n] -> DDR sink.
  std::vector<Channel> ch(n + 1);
  for (std::size_t k = 1; k < n; ++k) ch[k].capacity = fifo_capacity_rows;

  // DDR source fills channel 0 at the memory bandwidth.
  const nn::Shape in_shape = net[first].in;
  const double in_row_cycles = cost::row_transfer_cycles(
      in_shape.w, in_shape.c, dev.data_bytes, dev.bytes_per_cycle());
  for (int r = 0; r < in_shape.h; ++r) {
    ch[0].push((r + 1) * in_row_cycles);
  }
  ch[0].max_occupancy = 0;  // DDR side isn't a real FIFO

  // DDR sink drains channel n at the memory bandwidth.
  const nn::Shape out_shape = net[last].out;
  const double out_row_cycles = cost::row_transfer_cycles(
      out_shape.w, out_shape.c, dev.data_bytes, dev.bytes_per_cycle());
  long long stored = 0;
  double sink_busy = 0.0;
  double makespan = 0.0;
  double first_output = 0.0;
  long long injected_delay = 0;

  // Event loop: repeatedly perform the enabled action with the earliest
  // feasible time. Actions: engine pull, engine emit-block, sink store.
  while (stored < out_shape.h) {
    double best_t = kInf;
    int best_engine = -1;
    bool best_is_pull = false;

    for (std::size_t k = 0; k < n; ++k) {
      Node& nd = nodes[k];
      if (!nd.done() && nd.can_prefetch() && !ch[k].rows.empty()) {
        // Pull is instantaneous once the row is available (the ingest time
        // is folded into produce_cycles like the analytic model does).
        const double t = std::max(nd.busy_until, ch[k].rows.front());
        if (t < best_t) {
          best_t = t;
          best_engine = static_cast<int>(k);
          best_is_pull = true;
        }
      }
      if (!nd.done() && nd.inputs_ready()) {
        // A whole output block must fit: an engine that computes m rows per
        // tile pass cannot retire them through a FIFO shallower than m —
        // the structural reason generated designs size STREAM depth by the
        // largest tile height. A burst that found the FIFO full starts no
        // earlier than the consumer's pop that made room for it.
        const long long burst =
            std::min<long long>(nd.block, nd.out_rows - nd.emitted);
        if (ch[k + 1].fits(burst)) {
          const double t =
              std::max(nd.busy_until, ch[k + 1].room_time(burst));
          if (t < best_t) {
            best_t = t;
            best_engine = static_cast<int>(k);
            best_is_pull = false;
          }
        }
      }
    }
    // Sink action.
    if (!ch[n].rows.empty()) {
      const double t = std::max(sink_busy, ch[n].rows.front());
      if (t < best_t) {
        best_t = t;
        best_engine = static_cast<int>(n);
        best_is_pull = false;
      }
    }

    if (best_engine < 0) {
      return ScheduleResult{};  // deadlock: a FIFO shallower than a burst
    }

    if (best_engine == static_cast<int>(n)) {
      ch[n].pop(best_t);
      sink_busy = best_t + out_row_cycles;
      ++stored;
      makespan = std::max(makespan, sink_busy);
      continue;
    }
    Node& nd = nodes[static_cast<std::size_t>(best_engine)];
    if (best_is_pull) {
      ch[static_cast<std::size_t>(best_engine)].pop(best_t);
      ++nd.pulled;
      nd.busy_until = std::max(nd.busy_until, best_t);
      continue;
    }
    // Emit one block of rows (bursts model the Winograd tile row groups).
    const long long rows_left = nd.out_rows - nd.emitted;
    const long long burst = std::min<long long>(nd.block, rows_left);
    nd.stall += best_t - nd.busy_until;
    double t = best_t;
    if (inj && inj->decide(fault::FaultSite::kEngineStall,
                           static_cast<std::uint64_t>(best_engine),
                           static_cast<std::uint64_t>(nd.emitted))) {
      // A transient engine hang (e.g. a retried DSP column): the burst
      // starts late by the planned stall.
      const auto stall =
          static_cast<double>(inj->plan().engine_stall_cycles);
      t += stall;
      injected_delay += stall;
      inj->count_injected(fault::FaultSite::kEngineStall);
    }
    for (long long i = 0; i < burst; ++i) {
      t += nd.produce_cycles;
      if (best_engine + 1 == static_cast<int>(n) && nd.emitted + i == 0) {
        first_output = t;
      }
      // The whole block computes together; rows stream out back to back.
      double avail = t;
      Channel& out = ch[static_cast<std::size_t>(best_engine) + 1];
      if (inj && inj->decide(fault::FaultSite::kFifoDelay,
                             static_cast<std::uint64_t>(best_engine) + 1,
                             static_cast<std::uint64_t>(out.pushed))) {
        // Handshake glitch on the stream: the row lands late.
        avail += inj->plan().fifo_delay_cycles;
        injected_delay +=
            static_cast<long long>(inj->plan().fifo_delay_cycles);
        inj->count_injected(fault::FaultSite::kFifoDelay);
      }
      out.push(avail);
    }
    nd.emitted += burst;
    nd.busy_until = t;
  }

  ScheduleResult res;
  res.completed = true;
  res.injected_delay_cycles = injected_delay;
  res.makespan_cycles = static_cast<long long>(std::ceil(makespan));
  res.first_output_cycle = static_cast<long long>(std::ceil(first_output));
  for (const auto& c : ch) res.fifo_max_occupancy.push_back(c.max_occupancy);
  for (const auto& nd : nodes) {
    res.layer_finish.push_back(
        static_cast<long long>(std::ceil(nd.busy_until)));
    res.producer_stall_cycles += static_cast<long long>(nd.stall);
  }
  return res;
}

std::size_t minimal_fifo_depth_rows(
    const nn::Network& net, std::size_t first, std::size_t last,
    const std::vector<fpga::Implementation>& impls, const fpga::Device& dev,
    double tolerance) {
  const auto unbounded = simulate_schedule(net, first, last, impls, dev);
  if (!unbounded.completed) {
    throw std::runtime_error("minimal_fifo_depth_rows: baseline failed");
  }
  const double limit =
      static_cast<double>(unbounded.makespan_cycles) * (1.0 + tolerance);
  std::size_t lo = 1, hi = 64;
  // Ensure hi is sufficient.
  while (hi < 4096) {
    const auto r = simulate_schedule(net, first, last, impls, dev, hi);
    if (r.completed && static_cast<double>(r.makespan_cycles) <= limit) break;
    hi *= 2;
  }
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    const auto r = simulate_schedule(net, first, last, impls, dev, mid);
    if (r.completed && static_cast<double>(r.makespan_cycles) <= limit) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

}  // namespace hetacc::arch
