#pragma once
// Deterministic, seeded fault injection for the dataflow simulator and the
// DDR timeline: SEU bit flips in line-buffer BRAM rows, resident weight
// panels and DDR bursts, corrupted or delayed FIFO pushes, engine pipeline
// stalls, and a deterministic FIFO wedge that drives the watchdog path.
//
// Design rules:
//  * Counter-based randomness: every decision is a pure hash of
//    (seed, site, stream, event), so outcomes do not depend on call order,
//    thread interleaving or how many other sites fired — a campaign with the
//    same seed reproduces bit-for-bit.
//  * Zero-cost when absent: every hook in arch/ guards on a null
//    FaultInjector pointer; with no plan installed the simulators are
//    byte-identical to the unhooked code (verified by test_fault).

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

namespace hetacc::fault {

/// Where a fault strikes. The functional sites corrupt simulated data; the
/// timing sites perturb the timing simulator's clock
/// (arch::simulate_schedule).
enum class FaultSite : std::uint8_t {
  kDdrBurst,     ///< bit flip in a DDR read/write burst
  kLineBuffer,   ///< SEU in a BRAM line-buffer row
  kWeightPanel,  ///< SEU in a resident packed-weight panel
  kFifoPush,     ///< corrupted inter-layer FIFO push
  kFifoDelay,    ///< delayed FIFO push (timing only)
  kEngineStall,  ///< engine pipeline stall (timing only)
};
inline constexpr std::size_t kFaultSiteCount = 6;

[[nodiscard]] std::string_view to_string(FaultSite s);

/// Per-site injection rates plus the seed. All rates are per-event
/// probabilities in [0, 1]: per burst, per pushed row, per panel, per push,
/// per emitted block respectively.
struct FaultPlan {
  std::uint64_t seed = 1;

  double ddr_burst_flip_rate = 0.0;
  double line_buffer_flip_rate = 0.0;
  double weight_panel_flip_rate = 0.0;
  double fifo_corrupt_rate = 0.0;

  double fifo_delay_rate = 0.0;
  double fifo_delay_cycles = 0.0;
  double engine_stall_rate = 0.0;
  long long engine_stall_cycles = 0;

  /// Deterministic deadlock: FIFO channel `wedge_channel` refuses all
  /// traffic once it has accepted `wedge_after_pushes` rows. Exercises the
  /// DATAFLOW watchdog (a real AXI-stream stall looks exactly like this).
  int wedge_channel = -1;
  long long wedge_after_pushes = 0;
};

/// Identity of an escalated (unrecovered) fault: which site struck which
/// stream/event, and how many recovery attempts were spent first. This is
/// the payload the serving layer and the campaign report need to say *what*
/// failed instead of just that something did.
struct FaultIdentity {
  FaultSite site = FaultSite::kDdrBurst;
  std::uint64_t stream = 0;  ///< channel / layer / transaction index
  std::uint64_t event = 0;   ///< push / panel / burst index within the stream
  int attempts = 0;          ///< recovery attempts consumed before escalating
  bool valid = false;

  [[nodiscard]] std::string describe() const;
};

/// Copyable snapshot of an injector's counters.
struct FaultStats {
  std::array<long long, kFaultSiteCount> injected{};
  long long detected = 0;
  long long recovered = 0;
  long long unrecovered = 0;
  /// Identity of the first unrecovered fault since install/reset_stats
  /// (valid=false while unrecovered == 0).
  FaultIdentity first_unrecovered;

  [[nodiscard]] long long total_injected() const {
    long long n = 0;
    for (const long long v : injected) n += v;
    return n;
  }
};

/// Stateless-decision fault source plus thread-safe result counters. One
/// injector is shared by every hooked component of a simulation run.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan) : plan_(plan) {}

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

  /// Pure decision: does the fault at `site` strike event `event` of stream
  /// `stream`? Identical (seed, site, stream, event) always agree.
  [[nodiscard]] bool decide(FaultSite site, std::uint64_t stream,
                            std::uint64_t event) const;

  /// Deterministic 64-bit noise for choosing bit positions / elements.
  [[nodiscard]] std::uint64_t noise(FaultSite site, std::uint64_t stream,
                                    std::uint64_t event,
                                    std::uint64_t salt) const;

  /// If decide() fires, flips one hash-chosen bit of one hash-chosen element
  /// and counts the injection. Returns true iff a flip happened.
  bool maybe_corrupt_row(FaultSite site, std::uint64_t stream,
                         std::uint64_t event, float* data,
                         std::size_t count) const;

  /// Byte-buffer variant (DDR burst images). Flips a single bit.
  bool maybe_corrupt_bytes(FaultSite site, std::uint64_t stream,
                           std::uint64_t event, unsigned char* data,
                           std::size_t count) const;

  // Detection/recovery accounting (driven by the protection layer).
  void count_injected(FaultSite site) const {
    injected_[static_cast<std::size_t>(site)].fetch_add(
        1, std::memory_order_relaxed);
  }
  void count_detected() const {
    detected_.fetch_add(1, std::memory_order_relaxed);
  }
  void count_recovered() const {
    recovered_.fetch_add(1, std::memory_order_relaxed);
  }
  void count_unrecovered() const {
    unrecovered_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Escalation flavor: counts the unrecovered fault *and* records its
  /// identity (first writer wins) so stats().first_unrecovered can name it.
  void count_unrecovered(FaultSite site, std::uint64_t stream,
                         std::uint64_t event, int attempts) const;

  [[nodiscard]] FaultStats stats() const;
  void reset_stats();

 private:
  FaultPlan plan_;
  mutable std::array<std::atomic<long long>, kFaultSiteCount> injected_{};
  mutable std::atomic<long long> detected_{0};
  mutable std::atomic<long long> recovered_{0};
  mutable std::atomic<long long> unrecovered_{0};
  mutable std::mutex first_unrecovered_mu_;
  mutable FaultIdentity first_unrecovered_;
};

/// Flips bit `bit % 32` of the IEEE-754 image of `v` (a single-event upset;
/// sign, exponent and mantissa are all fair game, as in real BRAM).
[[nodiscard]] float flip_float_bit(float v, std::uint32_t bit);

}  // namespace hetacc::fault
