#pragma once
// Backend: executes an orwl::Program.
//
//   RuntimeBackend — builds a real Runtime (locations, tasks, handles in
//                    the program's canonical priming order), applies the
//                    requested placement on its topology, spawns the
//                    threads and runs to completion.
//   SimBackend     — derives the analytic NUMA-model workload (threads,
//                    exchange edges, lock acquisitions) from the very same
//                    declaration and predicts the run on an arbitrary
//                    machine. With `emulate` set it additionally executes
//                    the bodies on an unbound in-process runtime, so data
//                    results can be fetched and compared against a real
//                    run (backend parity).
//
// Both consume the identical Program, which is what makes "run it here"
// vs "predict it on the paper's 24-socket SMP" a one-line difference.

#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "orwl/program.h"
#include "orwl/runtime.h"
#include "place/placement.h"
#include "sim/cost_model.h"
#include "sim/simulator.h"
#include "topo/topology.h"

namespace orwl {

/// What a backend reports about one execution.
struct RunReport {
  std::string backend;      ///< "runtime" or "sim"
  double seconds = 0.0;     ///< wall time (runtime) or predicted (sim)
  std::uint64_t grants = 0; ///< delivered (runtime) or modelled acquisitions
  /// The wait strategy the run used: what Runtime::run resolved (runtime)
  /// or what the grants were charged under (sim) — sync::resolve_wait of
  /// the program's strategy or the RuntimeOptions default.
  sync::WaitStrategy wait;
  bool placed = false;      ///< a placement policy was applied
  place::Plan plan;         ///< the INITIAL placement, when placed
  sim::Report sim;          ///< cost-model breakdown (SimBackend only)

  /// One entry per epoch boundary when online re-placement ran
  /// (Program::replacement): the drift decision and the mapping in force
  /// for the following window.
  struct EpochRecord {
    int epoch = 0;   ///< 1-based boundary index
    int round = 0;   ///< first iteration of the following window
    double drift = 0.0;        ///< normalized distance vs the basis matrix
    bool replaced = false;     ///< Algorithm 1 re-ran at this boundary
    int migrated = 0;          ///< tasks whose compute PU changed
    /// Compute threads the OS refused to rebind (exited thread, foreign
    /// cpuset). 0 on SimBackend; nonzero means `compute_pu` is intent,
    /// not fact, for those tasks.
    int rebind_failures = 0;
    /// Locations whose pages were retargeted to follow their migrated
    /// writer (memory policy numa_local; 0 under heap/interleave).
    int moved_locations = 0;
    double replace_seconds = 0.0;  ///< measured (runtime) / modelled (sim)
    comm::Mapping compute_pu;  ///< mapping after the boundary
  };
  std::vector<EpochRecord> epochs;
  int replacements = 0;  ///< boundaries at which Algorithm 1 re-ran

  /// Observability (filled only while obs::tracing_enabled()): the
  /// collected per-thread trace of the run — real recorded events from the
  /// RuntimeBackend, synthetic spans from the SimBackend's analytic
  /// timeline, so both open side by side in the same Perfetto view. Write
  /// out with obs::write_chrome_trace_file.
  obs::TraceData trace;
  /// Snapshot of the executing runtime's metric registry (Instrument
  /// counters, per-handle wait/latency histograms). Empty for a pure
  /// (non-emulated) sim run.
  obs::RegistrySnapshot metrics;
};

class Backend {
 public:
  virtual ~Backend() = default;

  /// Execute (or predict) the program. May be called with different
  /// programs; state from the latest run stays fetchable.
  virtual RunReport run(const Program& program) = 0;

  /// Raw bytes of a location after the latest run().
  virtual std::vector<std::byte> fetch_bytes(LocationId loc) = 0;

  /// The instrumented Runtime behind the latest run(), when this backend
  /// has one — its Instrument carries the measured flow matrix the
  /// feedback-placement harness feeds back to TreeMatch. nullptr when the
  /// backend executed nothing (e.g. SimBackend without emulation).
  [[nodiscard]] virtual Runtime* instrumented_runtime() { return nullptr; }

  /// Typed post-run location contents.
  template <class T>
  std::vector<T> fetch(Location<T> loc) {
    const std::vector<std::byte> bytes = fetch_bytes(loc.id());
    ORWL_CHECK_MSG(bytes.size() == loc.bytes(),
                   "location " << loc.id() << " holds " << bytes.size()
                               << " bytes, expected " << loc.bytes());
    std::vector<T> out(loc.count());
    std::memcpy(out.data(), bytes.data(), bytes.size());
    return out;
  }
};

/// Real execution on the event-based ORWL runtime of this machine (or any
/// topology you hand in — bindings outside the host cpuset fail, so pass
/// sub-topologies only).
class RuntimeBackend : public Backend {
 public:
  explicit RuntimeBackend(RuntimeOptions opts = {});
  RuntimeBackend(RuntimeOptions opts, topo::Topology topo);

  RunReport run(const Program& program) override;
  std::vector<std::byte> fetch_bytes(LocationId loc) override;
  [[nodiscard]] Runtime* instrumented_runtime() override {
    return rt_.get();
  }

  /// The runtime of the latest run() — stats, measured comm matrix.
  [[nodiscard]] Runtime& runtime();
  [[nodiscard]] const topo::Topology& topology() const { return topo_; }

 private:
  RuntimeOptions opts_;
  topo::Topology topo_;
  std::unique_ptr<Runtime> rt_;
};

struct SimBackendOptions {
  /// Additionally execute the program's bodies on an unbound in-process
  /// runtime so location contents can be fetched (parity checking).
  /// Leave off for large what-if programs that only exist as structure.
  bool emulate = false;
  /// Seed for the unbound-thread placement lottery and data homes.
  std::uint64_t seed = 7;
};

/// Prediction on the analytic NUMA cost model (src/sim) — the paper's
/// 24-socket machine, or any synthetic topology.
class SimBackend : public Backend {
 public:
  explicit SimBackend(topo::Topology topo);
  SimBackend(topo::Topology topo, sim::LinkCost cost,
             SimBackendOptions opts = {});

  RunReport run(const Program& program) override;

  /// Requires SimBackendOptions::emulate.
  std::vector<std::byte> fetch_bytes(LocationId loc) override;

  /// The emulation runtime, or nullptr without emulate.
  [[nodiscard]] Runtime* instrumented_runtime() override {
    return emu_rt_.get();
  }

  [[nodiscard]] const sim::Report& report() const { return last_; }
  [[nodiscard]] const topo::Topology& topology() const { return topo_; }

  /// The unbound in-process runtime of the latest emulated run() — its
  /// Instrument holds the measured flow matrix the feedback-placement
  /// harness re-feeds to TreeMatch. Requires SimBackendOptions::emulate.
  [[nodiscard]] Runtime& emulated_runtime();

  /// The derived analytic workload — exposed for tests and diagnostics.
  [[nodiscard]] sim::Workload workload(const Program& program) const;

 private:
  topo::Topology topo_;
  sim::LinkCost cost_;
  SimBackendOptions opts_;
  sim::Report last_{};
  std::unique_ptr<Runtime> emu_rt_;
};

}  // namespace orwl
