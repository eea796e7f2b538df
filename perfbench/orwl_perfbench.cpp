// orwl_perfbench: the repository benchmark.
//
// Runs one named workload through the public Program API in a closed loop
// with one client (one Program::run at a time, from this process) for a
// fixed wall-clock budget, and prints one JSON result line:
//
//   orwl_perfbench --workload halo_fine --seed 1 --seconds 50 --trace 0
//
// Every sample is a full user-visible cycle. The set-up (topology, backend,
// Workload::build, Program::place) and the Program::run call are timed
// separately from outside; the correctness check runs after the timed
// interval. --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics, obtained by timing calls into each module's public
// functions and from the runtime's own metric snapshot, plus a Perfetto
// trace of one traced run. perfbench/README.md documents the workloads, the
// layer -> end-to-end map and the recorded numbers.

#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "comm/metrics.h"
#include "harness/json.h"
#include "harness/stats.h"
#include "mem/numa.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "orwl/backend.h"
#include "orwl/program.h"
#include "orwl/queue.h"
#include "place/placement.h"
#include "sim/cost_model.h"
#include "sync/wait_strategy.h"
#include "topo/topology.h"
#include "workloads/workloads.h"

namespace {

using namespace orwl;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- workloads ---------------------------------------------------------------

struct WorkloadSpec {
  const char* name;        ///< benchmark workload name
  const char* registered;  ///< workloads:: registry entry it runs
  workloads::Params params;
  workloads::Params tiny;  ///< --tiny: the self-test scale
  /// Run on SimBackend(Topology::paper_machine()) instead of the runtime.
  bool sim;
};

// Why these three (perfbench/README.md has the measurements, and why only
// the runtime pair is gated in BENCHMARK.json):
//  * halo_fine: point-to-point grant path — one writer and one reader per
//    face location, no reader runs; bypasses treematch/sim.
//  * fanin_fine: the same grant path with a run of 3 readers per chunk —
//    batched reader-run grants and the combiner.
//  * whatif_paper: the paper's Fig. 1 setup on the cost model; TreeMatch
//    dominates, the runtime is bypassed entirely.
// Runtime workloads keep compute threads <= CPUs (4 tasks), so the numbers
// measure the runtime, not the OS scheduler.
const WorkloadSpec kWorkloads[] = {
    {"halo_fine", "stencil2d", {4, 64, 2500}, {4, 16, 40}, false},
    {"fanin_fine", "alltoall", {4, 64, 2500}, {4, 16, 40}, false},
    {"whatif_paper", "lk23", {192, 4096, 10}, {8, 256, 2}, true},
};

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

// --- statistics --------------------------------------------------------------

/// Linearly interpolated q-quantile (q in [0,1]); 0 when empty.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// The run's samples in time order are cut into consecutive chunks of
/// kTailChunk, so that ten samples lie beyond each chunk's p90; the tail
/// is the lowest of the chunks' q-quantiles. On a shared host, contention
/// stretches of seconds set a whole-run p90 by how much of the run they
/// covered; the quietest chunk's p90 moves only when the tail of every
/// chunk moves (perfbench/README.md has the measurements). With fewer
/// samples than one chunk, the whole run is the chunk.
constexpr std::size_t kTailChunk = 100;

double quietest_chunk_quantile(const std::vector<double>& in_order,
                               double q) {
  if (in_order.size() < kTailChunk) return quantile(in_order, q);
  double best = 0.0;
  for (std::size_t c = 0; c + kTailChunk <= in_order.size();
       c += kTailChunk) {
    const auto first = in_order.begin() + static_cast<std::ptrdiff_t>(c);
    const double v =
        quantile(std::vector<double>(first, first + kTailChunk), q);
    if (c == 0 || v < best) best = v;
  }
  return best;
}

/// Add every histogram of `snap` whose name starts with `prefix` (the
/// per-handle "/h<id>" families) into `into`.
void pool(obs::HistogramSnapshot& into, const obs::RegistrySnapshot& snap,
          std::string_view prefix) {
  for (const obs::HistogramSnapshot& h : snap.histograms) {
    if (!h.name.starts_with(prefix)) continue;
    into.count += h.count;
    into.sum += h.sum;
    for (std::size_t i = 0; i < h.buckets.size(); ++i)
      into.buckets[i] += h.buckets[i];
  }
}

/// q-quantile of a log2-bucketed histogram, interpolated linearly inside
/// the bucket that holds it (HistogramSnapshot::quantile returns the
/// bucket's upper bound, which moves only in powers of two).
double bucket_quantile(const obs::HistogramSnapshot& h, double q) {
  if (h.count == 0) return 0.0;
  const double rank = q * static_cast<double>(h.count);
  double seen = 0.0;
  for (int i = 0; i < obs::HistogramSnapshot::kBuckets; ++i) {
    const auto n = static_cast<double>(h.buckets[static_cast<std::size_t>(i)]);
    if (n > 0.0 && seen + n >= rank) {
      const double lo =
          i == 0 ? 0.0
                 : static_cast<double>(obs::HistogramSnapshot::bucket_upper(
                       i - 1)) + 1.0;
      const auto hi =
          static_cast<double>(obs::HistogramSnapshot::bucket_upper(i));
      return lo + (hi - lo) * (rank - seen) / n;
    }
    seen += n;
  }
  return static_cast<double>(obs::HistogramSnapshot::bucket_upper(
      obs::HistogramSnapshot::kBuckets - 1));
}

std::uint64_t counter(const obs::RegistrySnapshot& s, std::string_view name) {
  for (const auto& [n, v] : s.counters)
    if (n == name) return v;
  return 0;
}

// --- one sample --------------------------------------------------------------

struct Sample {
  double topo_s = 0.0;    ///< topology discovery / construction
  double build_s = 0.0;   ///< Workload::build
  double setup_s = 0.0;   ///< everything before Program::run
  double run_s = 0.0;     ///< the timed Program::run call
  double verify_s = 0.0;  ///< Built::verify (sequential reference + compare)
  double runtime_s = 0.0;  ///< RunReport::seconds
  std::uint64_t grants = 0;
  std::uint64_t read_grants = 0;
  std::uint64_t combiner_handoffs = 0;
};

/// Builds, places, runs and checks one workload sample. Counts attempts
/// and failures; a sample that threw or failed a check is not timed.
class Sampler {
 public:
  Sampler(const WorkloadSpec& spec, workloads::Params params,
          std::uint64_t seed)
      : spec_(spec),
        wl_(workloads::get(spec.registered)),
        params_(params),
        seed_(seed) {}

  /// One sample; `rep` receives the run's report (metrics, trace).
  std::optional<Sample> sample(RunReport& rep) {
    ++attempted_;
    Sample s;
    std::string why;
    try {
      if (run_once(s, rep, why)) return s;
    } catch (const std::exception& e) {
      why = std::string("threw: ") + e.what();
    }
    ++failed_;
    if (first_error_.empty()) first_error_ = why;
    std::cerr << "perfbench: " << spec_.name << " sample " << attempted_
              << " failed: " << why << '\n';
    return std::nullopt;
  }

  [[nodiscard]] int attempted() const { return attempted_; }
  [[nodiscard]] int failed() const { return failed_; }
  [[nodiscard]] const std::string& first_error() const { return first_error_; }

 private:
  bool run_once(Sample& s, RunReport& rep, std::string& why) {
    const Clock::time_point t0 = Clock::now();
    topo::Topology topo = spec_.sim ? topo::Topology::paper_machine()
                                    : topo::Topology::host();
    s.topo_s = since(t0);
    std::unique_ptr<Backend> backend;
    if (spec_.sim) {
      const sim::LinkCost cost = sim::LinkCost::defaults_for(topo);
      SimBackendOptions opts;
      opts.seed = seed_;
      backend = std::make_unique<SimBackend>(std::move(topo), cost, opts);
    } else {
      backend = std::make_unique<RuntimeBackend>(RuntimeOptions{},
                                                 std::move(topo));
    }
    Program p;
    const Clock::time_point tb = Clock::now();
    const workloads::Built built = wl_.build(p, params_);
    s.build_s = since(tb);
    p.place(place::Policy::TreeMatch, {}, seed_);
    s.setup_s = since(t0);

    const Clock::time_point tr = Clock::now();
    rep = p.run(*backend);
    s.run_s = since(tr);
    s.runtime_s = rep.seconds;
    s.grants = rep.grants;
    s.read_grants = counter(rep.metrics, "orwl.grants.read");
    s.combiner_handoffs = counter(rep.metrics, "orwl.combiner.handoffs");

    // Correctness, outside the timed interval.
    if (spec_.sim) {
      const auto& sb = static_cast<const SimBackend&>(*backend);
      if (!mapping_ok(sb.topology(), rep.plan.compute_pu, built.num_tasks,
                      why))
        return false;
      if (!first_predicted_) first_predicted_ = rep.seconds;
      if (rep.seconds != *first_predicted_) {
        why = "sim prediction differs between identical samples";
        return false;
      }
    } else {
      const Clock::time_point tv = Clock::now();
      const bool ok = built.verify(*backend, why);
      s.verify_s = since(tv);
      if (!ok) return false;
    }
    if (!first_grants_) first_grants_ = rep.grants;
    if (rep.grants != *first_grants_) {
      why = "orwl.grants " + std::to_string(rep.grants) + " != " +
            std::to_string(*first_grants_) + " of the first sample";
      return false;
    }
    return true;
  }

  /// Every task placed, on a valid PU, with no PU holding more tasks than
  /// an even spread needs.
  static bool mapping_ok(const topo::Topology& topo,
                         const comm::Mapping& mapping, int tasks,
                         std::string& why) {
    if (static_cast<int>(mapping.size()) != tasks ||
        std::count(mapping.begin(), mapping.end(), -1) != 0) {
      why = "placement does not map every task";
      return false;
    }
    const int per_pu = (tasks + topo.num_pus() - 1) / topo.num_pus();
    try {
      comm::validate_mapping(topo, mapping, per_pu);
    } catch (const std::exception& e) {
      why = std::string("invalid placement: ") + e.what();
      return false;
    }
    return true;
  }

  const WorkloadSpec& spec_;
  const workloads::Workload& wl_;
  workloads::Params params_;
  std::uint64_t seed_;
  int attempted_ = 0;
  int failed_ = 0;
  std::string first_error_;
  std::optional<std::uint64_t> first_grants_;
  std::optional<double> first_predicted_;
};

/// What a phase keeps: per-sample scalars, and the metric histograms pooled
/// as they arrive. Keeping whole RunReports would grow the benchmark's own
/// memory by megabytes with the sample count, and rss_peak_mb with it.
struct Phase {
  std::vector<Sample> samples;
  obs::HistogramSnapshot acquire_ns;   ///< pooled orwl.acquire_ns/h*
  obs::HistogramSnapshot wait_rounds;  ///< pooled orwl.wait_rounds/h*
  obs::TraceData trace;                ///< the last sample's (traced runs)
};

/// Samples until `seconds` have passed (at least one attempt).
Phase run_phase(Sampler& sampler, double seconds) {
  Phase ph;
  const Clock::time_point t0 = Clock::now();
  do {
    RunReport rep;
    const std::optional<Sample> s = sampler.sample(rep);
    if (!s) continue;
    pool(ph.acquire_ns, rep.metrics, "orwl.acquire_ns");
    pool(ph.wait_rounds, rep.metrics, "orwl.wait_rounds");
    ph.trace = std::move(rep.trace);
    ph.samples.push_back(*s);
  } while (since(t0) < seconds);
  return ph;
}

template <class F>
std::vector<double> collect(const std::vector<Sample>& samples, F field) {
  std::vector<double> v;
  v.reserve(samples.size());
  for (const Sample& s : samples) v.push_back(field(s));
  return v;
}

// --- per-layer probes --------------------------------------------------------

/// ns per single-threaded FifoQueue::release_and_renew cycle (two write
/// requests alternating on one queue), median of 5 repetitions.
double queue_renew_ns() {
  constexpr int kCycles = 200000;
  std::vector<double> reps;
  for (int r = 0; r < 5; ++r) {
    GrantFn sink([](Request&) {});
    FifoQueue q(&sink);
    Request slots[2];
    slots[0].mode = AccessMode::Write;
    slots[1].mode = AccessMode::Write;
    q.insert(slots[0]);
    int cur = 0;
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kCycles; ++i) {
      q.release_and_renew(slots[cur], slots[cur ^ 1]);
      cur ^= 1;
    }
    reps.push_back(since(t0) * 1e9 / kCycles);
  }
  return harness::median_of(reps);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Layers the traced run does not measure, with the reason.
std::vector<std::string> unmeasured_layers(int numa_nodes) {
  return {
      "mem: the default memory policy is the heap and this host has " +
          std::to_string(numa_nodes) +
          " NUMA node(s), so location memory placement has nothing to move",
      "ipc: cross-process transport is parked (ROADMAP); no workload "
      "crosses a process boundary",
      "oversubscription: excluded by the sizing rule (no workload has more "
      "compute threads than online CPUs)"};
}

struct LayerInputs {
  const WorkloadSpec& spec;
  workloads::Params params;
  std::uint64_t seed;
  const Phase& untraced;
  const Phase& traced;
};

std::vector<Metric> layer_metrics(const LayerInputs& in) {
  const workloads::Workload& wl = workloads::get(in.spec.registered);
  const std::vector<Sample>& u = in.untraced.samples;
  const bool rt = !in.spec.sim;
  const auto med = [&](auto field) { return quantile(collect(u, field), 0.5); };

  // The workload's own topology: the host for runtime workloads, the
  // paper machine for the what-if.
  const topo::Topology topo = in.spec.sim ? topo::Topology::paper_machine()
                                          : topo::Topology::host();
  Program probe;
  const workloads::Built built = wl.build(probe, in.params);

  // The sim's prediction for this workload's topology under a policy, and
  // the wall time of the Program::run call that made it.
  const auto predict = [&](place::Policy policy, double* wall) {
    Program p;
    (void)wl.build(p, in.params);
    p.place(policy, {}, in.seed);
    SimBackendOptions opts;
    opts.seed = in.seed;
    SimBackend be(topo.clone(), sim::LinkCost::defaults_for(topo), opts);
    const Clock::time_point t0 = Clock::now();
    const double predicted = p.run(be).seconds;
    if (wall != nullptr) *wall = since(t0);
    return predicted;
  };

  // TreeMatch alone, then a whole sim run (which plans with TreeMatch
  // again), back to back: the model's share is the paired difference, so
  // a slow phase of the host hits both halves of a pair alike.
  std::vector<double> map_s, model_s;
  place::Plan tm_plan;
  double sim_tm_s = 0.0;
  for (int i = 0; i < (in.spec.sim ? 3 : 15); ++i) {
    const Clock::time_point t0 = Clock::now();
    tm_plan = place::compute_plan(place::Policy::TreeMatch, topo,
                                  built.predicted, {}, in.seed);
    map_s.push_back(since(t0));
    double wall = 0.0;
    sim_tm_s = predict(place::Policy::TreeMatch, &wall);
    model_s.push_back(wall - map_s.back());
  }
  const double sim_compact_s = predict(place::Policy::Compact, nullptr);
  const place::Plan compact_plan = place::compute_plan(
      place::Policy::Compact, topo, built.predicted, {}, in.seed);
  const double hop_ratio =
      comm::hop_bytes(topo, built.predicted, tm_plan.compute_pu) /
      comm::hop_bytes(topo, built.predicted, compact_plan.compute_pu);

  const obs::HistogramSnapshot& acquire = in.traced.acquire_ns;
  const double runtime_run_s =
      rt ? med([](const Sample& s) { return s.runtime_s; }) : 0.0;
  const auto grants = static_cast<double>(u.front().grants);
  const auto reads = static_cast<double>(u.front().read_grants);
  const double handoffs = harness::summarize(collect(u, [](const Sample& s) {
                            return static_cast<double>(s.combiner_handoffs);
                          })).mean;
  const double traced_p50 = quantile(
      collect(in.traced.samples, [](const Sample& s) { return s.run_s; }), 0.5);
  const double untraced_p50 = med([](const Sample& s) { return s.run_s; });

  // 0 marks a layer this workload bypasses (see README.md).
  return {
      {"topo.discover_s", med([](const Sample& s) { return s.topo_s; }), "s"},
      {"workloads.build_s", med([](const Sample& s) { return s.build_s; }),
       "s"},
      {"workloads.serial_s", med([](const Sample& s) { return s.verify_s; }),
       "s"},
      {"orwl.speedup_vs_serial",
       rt ? med([](const Sample& s) { return s.verify_s; }) / untraced_p50
          : 0.0,
       "ratio"},
      {"orwl.runtime_run_s", runtime_run_s, "s"},
      {"orwl.launch_s",
       rt ? med([](const Sample& s) { return s.run_s - s.runtime_s; }) : 0.0,
       "s"},
      {"orwl.grants", grants, "count"},
      {"orwl.grants_per_s", rt ? grants / runtime_run_s : 0.0, "1/s"},
      {"orwl.read_share", grants > 0.0 ? reads / grants : 0.0, "ratio"},
      {"orwl.acquire_ns_p50", bucket_quantile(acquire, 0.50), "ns"},
      {"orwl.acquire_ns_p99", bucket_quantile(acquire, 0.99), "ns"},
      {"orwl.queue_renew_ns", queue_renew_ns(), "ns"},
      {"sync.combiner_handoffs", handoffs, "count"},
      {"sync.wait_rounds_mean", in.untraced.wait_rounds.mean(), "count"},
      {"treematch.map_s", quantile(map_s, 0.5), "s"},
      {"sim.model_s", quantile(model_s, 0.5), "s"},
      {"sim.predicted_s", sim_tm_s, "sim_s"},
      {"sim.host_ratio", rt ? sim_tm_s / runtime_run_s : 0.0, "ratio"},
      {"place.predicted_gain", sim_compact_s / sim_tm_s, "ratio"},
      {"place.hop_bytes_ratio", hop_ratio, "ratio"},
      {"obs.trace_overhead_frac", traced_p50 / untraced_p50 - 1.0, "ratio"},
      {"obs.trace_events",
       static_cast<double>(in.traced.trace.total_events()), "count"},
      {"obs.trace_dropped", static_cast<double>(in.traced.trace.dropped),
       "count"},
  };
}

/// Peak resident set of this process image (VmHWM). Not getrusage's
/// ru_maxrss: that survives execve, so it would report the launching
/// interpreter's footprint when that was larger.
double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.starts_with("VmHWM:")) return std::atof(line.c_str() + 6) / 1024.0;
  return 0.0;
}

// --- run context -------------------------------------------------------------

/// The value of the first "key : value" line of `path` that starts with
/// `key` ("unknown" when there is none).
std::string proc_field(const char* path, std::string_view key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line))
    if (line.starts_with(key)) {
      const std::size_t colon = line.find(':');
      if (colon == std::string::npos) return line;
      std::size_t b = colon + 1;
      while (b < line.size() && line[b] == ' ') ++b;
      return line.substr(b);
    }
  return "unknown";
}

const char* control_name(RuntimeOptions::ControlMode m) {
  switch (m) {
    case RuntimeOptions::ControlMode::Direct: return "direct";
    case RuntimeOptions::ControlMode::PerTask: return "per_task";
    case RuntimeOptions::ControlMode::SharedPool: return "shared_pool";
  }
  return "unknown";
}

void write_context(std::ostream& os, const WorkloadSpec& spec,
                   const workloads::Params& params, std::uint64_t seed,
                   bool traced, int samples, int numa_nodes) {
  char host[256] = {};
  const std::string hostname =
      gethostname(host, sizeof host - 1) == 0 ? host : "unknown";
  utsname uts{};
  uname(&uts);
  const RuntimeOptions opts;
  std::ostringstream buf;
  {
    harness::JsonWriter json(buf);
    json.begin_object();
    json.member("workload", spec.name);
    json.member("registered", spec.registered);
    json.member("backend", spec.sim ? "sim:paper_machine" : "runtime");
    json.member("tasks", params.tasks);
    json.member("size", params.size);
    json.member("iterations", params.iterations);
    json.member("seed", seed);
    json.member("trace", traced);
    json.member("timed_samples", samples);
    json.begin_object("host");
    json.member("hostname", hostname);
    json.member("cpu_model",
                proc_field("/proc/cpuinfo", "model name"));
    json.member("online_cpus", sysconf(_SC_NPROCESSORS_ONLN));
    json.member("numa_nodes", numa_nodes);
    json.member("kernel", std::string(uts.release));
    json.end_object();
    json.begin_object("runtime_options");
    json.member("control", control_name(opts.control));
    json.member("wait", sync::to_string(opts.wait));
    json.member("batch_grants", opts.batch_grants);
    json.member("inline_idle_delivery", opts.inline_idle_delivery);
    json.member("memory", mem::to_string(opts.memory));
    json.member("record_flows", opts.record_flows);
    json.member("placement", place::to_string(place::Policy::TreeMatch));
    json.end_object();
    if (traced) {
      json.begin_array("unmeasured_layers");
      for (const std::string& why : unmeasured_layers(numa_nodes))
        json.element(why);
      json.end_array();
    }
    json.end_object();
  }
  // One line, so the result line stays the last line of the output.
  std::string line = buf.str();
  std::erase(line, '\n');
  os << "# context " << line << '\n';
}

void write_result(std::ostream& os, const Sampler& sampler,
                  const std::vector<Metric>& metrics) {
  std::ostringstream m;
  m.precision(17);
  m << '{';
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    m << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": " << v
      << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  m << '}';
  os << "{\"correct\": " << (sampler.failed() == 0 ? "true" : "false")
     << ", \"attempted\": " << sampler.attempted()
     << ", \"failed\": " << sampler.failed() << ", \"metrics\": " << m.str()
     << "}\n";
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload NAME --seed N --seconds S --trace 0|1"
               " [--tiny] [--trace-out PATH]\nworkloads:";
  for (const WorkloadSpec& w : kWorkloads) std::cerr << ' ' << w.name;
  std::cerr << '\n';
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Sim numbers must not depend on a host calibration record: clear it
  // before any LinkCost is built (active_calibration caches on first use).
  unsetenv("ORWL_CALIBRATION");

  std::string workload, trace_out;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false, tiny = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      const std::string_view v = argv[++i];
      if (v != "0" && v != "1") return usage(argv[0]);
      traced = v == "1";
    } else if (a == "--trace-out" && has_value) {
      trace_out = argv[++i];
    } else if (a == "--tiny") {
      tiny = true;
    } else {
      return usage(argv[0]);
    }
  }
  const WorkloadSpec* spec = find_workload(workload);
  if (spec == nullptr || !(seconds > 0.0)) return usage(argv[0]);
  const workloads::Params params = tiny ? spec->tiny : spec->params;
  const int numa_nodes = std::max(1, mem::NumaInfo::host().num_nodes());

  Sampler sampler(*spec, params, seed);
  // Warm-up: first-touch pages, lazily created thread-local rings, the
  // allocator's arenas. Checked like every sample, never timed.
  {
    RunReport warmup;
    (void)sampler.sample(warmup);
  }

  std::vector<Metric> metrics;
  Phase timed;
  const Clock::time_point t0 = Clock::now();
  if (!traced) {
    timed = run_phase(sampler, seconds);
    const std::vector<double> run =
        collect(timed.samples, [](const Sample& s) { return s.run_s; });
    metrics = {
        {"run_s_p50", quantile(run, 0.50), "s"},
        {"run_s_p90", quietest_chunk_quantile(run, 0.90), "s"},
        {"setup_s",
         quantile(collect(timed.samples,
                          [](const Sample& s) { return s.setup_s; }),
                  0.5),
         "s"},
        {"rss_peak_mb", peak_rss_mib(), "MiB"},
    };
  } else {
    // Untraced first (the baseline the layer times explain), then the
    // same loop with tracing and the detailed metrics on.
    timed = run_phase(sampler, 0.45 * seconds);
    Phase traced_phase;
    if (!timed.samples.empty()) {
      const bool prev_trace = obs::enable_tracing(true);
      const bool prev_detail = obs::enable_detailed_metrics(true);
      traced_phase = run_phase(sampler, std::max(0.0, seconds - since(t0)));
      obs::enable_tracing(prev_trace);
      obs::enable_detailed_metrics(prev_detail);
    }
    if (!timed.samples.empty() && !traced_phase.samples.empty()) {
      metrics = layer_metrics({*spec, params, seed, timed, traced_phase});
      if (!trace_out.empty())
        obs::write_chrome_trace_file(trace_out, traced_phase.trace);
    }
  }

  write_context(std::cout, *spec, params, seed, traced,
                static_cast<int>(timed.samples.size()), numa_nodes);
  for (const Metric& m : metrics)
    std::cerr << "  " << spec->name << ' ' << m.name << " = " << m.value << ' '
              << m.unit << '\n';
  std::cerr << "  " << spec->name << " failed_frac = "
            << static_cast<double>(sampler.failed()) / sampler.attempted()
            << " ratio (" << sampler.failed() << '/' << sampler.attempted()
            << ")\n";
  if (metrics.empty()) {
    std::cerr << "perfbench: no successful sample: " << sampler.first_error()
              << '\n';
    return 1;
  }
  write_result(std::cout, sampler, metrics);
  return sampler.failed() == 0 ? 0 : 1;
}
