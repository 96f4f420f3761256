#pragma once
// Shared worker pool for the high-performance kernel layer. Every functional
// path (reference executor, algo kernels, fusion-pipeline engines) draws its
// workers from one process-wide pool so thread creation is paid once, not per
// convolution call.
//
// Determinism contract: parallel_for distributes *whole output items* (an
// output channel block, a tile row, an image) across workers. Kernels built
// on it never split a single accumulation chain across threads, so results
// are byte-identical for every thread count — the same rule the DSE layer
// follows (see DESIGN.md §6 and §8).

#include <cstddef>
#include <functional>

namespace hetacc::kernels {

/// Worker threads the kernel layer uses when a call site passes threads = 0.
/// Semantics match OptimizerOptions::threads: 1 = serial (the default, so
/// plain library use stays single-threaded), 0 = all hardware cores, n = n.
[[nodiscard]] int num_threads();
void set_num_threads(int threads);

/// Resolves a threads knob (<= 0 means "all cores") to a concrete count.
/// The result is capped at the hardware thread count (hardware_threads() in
/// support/hardware.h, read once per process, so no call here reaches the
/// OS) — the pool never oversubscribes, and an explicit request larger than
/// the machine silently runs with every core instead of a fraction of them
/// (see Pool).
[[nodiscard]] int resolve_threads(int threads);

/// Worker threads currently parked in the process-wide pool (the caller of a
/// parallel region is not counted). Observability hook for the serving
/// fleet's one-shared-pool invariant: constructing N pipelines or replicas
/// must never grow this past the hardware clamp (at most cores - 1).
[[nodiscard]] std::size_t pool_thread_count();

/// Runs fn(i) for every i in [0, n), distributing indices over up to
/// `threads` workers (0 = kernel-layer default via num_threads(); 1 or n <= 1
/// runs inline). The calling thread participates, so `threads = k` uses the
/// caller plus at most k - 1 pool workers. Indices are claimed from an atomic
/// cursor; fn must therefore be safe to invoke concurrently for distinct i.
/// Every index is invoked exactly once even when some invocations throw:
/// exceptions are captured per index and the first one is rethrown after the
/// whole index space has been processed.
void parallel_for(std::size_t n, int threads,
                  const std::function<void(std::size_t)>& fn);

/// parallel_for with the kernel-layer default thread count.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

/// Chunked parallel_for: workers claim `grain` consecutive indices per
/// atomic fetch instead of one, amortizing the cursor traffic and the
/// std::function indirection for fine-grained loops (micro-tile grids, panel
/// packing). Semantics otherwise identical to the per-index overload,
/// including the exactly-once-under-exceptions guarantee. grain = 0 behaves
/// as grain = 1.
void parallel_for(std::size_t n, std::size_t grain, int threads,
                  const std::function<void(std::size_t)>& fn);

/// Range flavor: fn(lo, hi) is invoked on disjoint half-open ranges that
/// exactly cover [0, n), each at most `grain` long. Use when per-range setup
/// (a per-worker engine set, a local accumulator) matters; if fn throws, the
/// remainder of that one range is skipped (the exception is rethrown after
/// the barrier), so prefer the per-index overload when the exactly-once
/// guarantee matters.
void parallel_for_ranges(
    std::size_t n, std::size_t grain, int threads,
    const std::function<void(std::size_t, std::size_t)>& fn);

}  // namespace hetacc::kernels
