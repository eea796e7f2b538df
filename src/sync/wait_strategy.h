#pragma once
// WaitStrategy: how a thread waits for a synchronization word to change.
//
// Every parking point of the ORWL core (handle grant waits, control-thread
// event pops, the epoch barrier) funnels through sync::wait_while_equal
// (waiter.h), and this strategy decides what the calling thread does while
// the word still holds the old value:
//
//   block            — park immediately on the futex behind
//                      std::atomic::wait; the classic condvar-like shape,
//                      cheapest when waits are long.
//   spin_then_park   — spin a bounded number of rounds, then park. The
//                      first kRelaxRounds are pure cpu-relax (a wait that
//                      resolves there costs no syscall at all); the
//                      remaining rounds sched-yield, trading the futex
//                      park/wake pair for cooperative rescheduling — the
//                      winning move on oversubscribed or single-PU hosts,
//                      where the thread that will flip the word needs this
//                      core to run.
//   spin             — never park; cpu-relax bursts with periodic yields.
//                      Lowest wake latency, burns a PU; benchmarking only.
//   spin_then_park(auto)
//                    — spin where it pays: spin-then-park with a
//                      self-tuned budget (adaptive_wait.h) when the run's
//                      compute threads fit its CPUs, block otherwise
//                      (resolve_wait below). The runtime default.
//
// Why auto spins only when the threads fit: with a CPU per compute
// thread a grant lands while the waiter still spins, so the futex
// park/wake pair — the wake-up latency fine-grained runs are bound by —
// disappears. On a 4-CPU KVM host, orwl_bench at 4 tasks, size 64, 2500
// iterations, the default ran alltoall about 2x and stencil2d about 1.3x
// faster than block (CHANGES.md has the interleaved A/B). Where threads
// outnumber CPUs the evidence is mixed: on the 48-task oversub workload
// spinning measured a few percent slower in quiet sets and faster in a
// busy one, and with 4 tasks on 1-2 CPUs it measured faster in some sets
// of runs and slower in others. There auto blocks, the pre-auto default,
// until a wider curve settles it.
//
// The strategy is plumbed from Program::wait_strategy() / RuntimeOptions
// down to every waiter (Runtime::run resolves auto once, before any thread
// starts), and swept by bench/micro_orwl_overhead and tools/orwl_bench
// --wait-strategy.

#include <cstdint>
#include <string>

namespace orwl::sync {

enum class WaitMode : std::uint8_t {
  Block,         ///< park immediately (futex wait)
  SpinThenPark,  ///< bounded spin (relax, then yield), then park
  Spin,          ///< spin forever (relax bursts + periodic yields)
  Auto,          ///< self-tuned spin-then-park if threads fit the CPUs,
                 ///< else block (resolve_wait)
};

struct WaitStrategy {
  WaitMode mode = WaitMode::Block;
  /// Spin rounds before parking (SpinThenPark, and the fallback for Auto
  /// waiters nobody tunes). The first kRelaxRounds of them are pure
  /// cpu-relax; the rest yield the CPU.
  int spins = 256;

  /// Spin rounds burned as pure cpu-relax before the loop starts
  /// yielding — yields are what make spinning safe (and fast) on
  /// oversubscribed or single-PU hosts, where the thread that will flip
  /// the word needs this core to run.
  static constexpr int kRelaxRounds = 16;

  [[nodiscard]] static constexpr WaitStrategy block() {
    return {WaitMode::Block, 0};
  }
  [[nodiscard]] static constexpr WaitStrategy spin_then_park(
      int spins = 256) {
    return {WaitMode::SpinThenPark, spins};
  }
  [[nodiscard]] static constexpr WaitStrategy spin() {
    return {WaitMode::Spin, 0};
  }
  /// Spin where it pays: resolve_wait turns it into block when the run is
  /// oversubscribed. Otherwise it is a self-tuning spin-then-park: waiters
  /// with an AdaptiveWaitBudget (sync/adaptive_wait.h) re-read their spin
  /// budget every wait; the runtime re-derives budgets from the per-handle
  /// wait-round histograms at epoch boundaries. Untuned parking points
  /// treat it as spin_then_park(spins).
  [[nodiscard]] static constexpr WaitStrategy spin_then_park_auto() {
    return {WaitMode::Auto, 256};
  }

  friend bool operator==(const WaitStrategy& a,
                         const WaitStrategy& b) = default;
};

/// What `ws` means for a run of `threads` compute threads on `cpus` CPUs
/// (the calling thread's affinity mask, so taskset and cpusets count):
/// Auto stays Auto when every thread has a CPU of its own and becomes
/// block otherwise; every other strategy passes through unchanged. An
/// unknown CPU count (cpus <= 0) counts as oversubscribed.
[[nodiscard]] constexpr WaitStrategy resolve_wait(WaitStrategy ws,
                                                  int threads, int cpus) {
  if (ws.mode != WaitMode::Auto || threads <= cpus) return ws;
  return WaitStrategy::block();
}

/// "block", "spin_then_park(256)", "spin", "spin_then_park(auto)".
std::string to_string(const WaitStrategy& ws);

/// Parse "block" | "spin" | "spin_then_park" | "spin_then_park(N)" |
/// "spin_then_park:N" | "spin_then_park(auto)" | "auto"
/// (case-insensitive). Throws ContractError naming the accepted forms on
/// anything else.
WaitStrategy parse_wait_strategy(const std::string& text);

}  // namespace orwl::sync
