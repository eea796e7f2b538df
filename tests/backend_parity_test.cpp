// Backend parity: one Program definition, executed by RuntimeBackend and
// by SimBackend (emulation mode), must produce identical data — and the
// LK23 shared definition must reproduce both the blocked sequential
// reference (native path) and the legacy analytic Figure-1 model (sim
// path).

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "lk23/kernel.h"
#include "lk23/lk23_program.h"
#include "lk23/orwl_impl.h"
#include "orwl/backend.h"
#include "orwl/program.h"
#include "sim/lk23_model.h"
#include "topo/binding.h"

namespace orwl {
namespace {

// The quickstart ring, defined once and handed to any backend.
struct Ring {
  std::vector<Location<long>> stages;
};

Ring define_ring(Program& p, int stages, int rounds) {
  Ring ring;
  for (int i = 0; i < stages; ++i)
    ring.stages.push_back(p.location<long>(1, "stage" + std::to_string(i)));
  for (int i = 0; i < stages; ++i) {
    const Location<long> in = ring.stages[static_cast<std::size_t>(i)];
    const Location<long> out =
        ring.stages[static_cast<std::size_t>((i + 1) % stages)];
    p.task("stage" + std::to_string(i))
        .reads(in)
        .writes(out)
        .iterations(rounds)
        .cost(1.0, static_cast<double>(sizeof(long)))
        .body([in, out](Step& s) {
          const long v =
              s.read(in, [](std::span<const long> x) { return x[0]; });
          s.write(out, [v](std::span<long> x) { x[0] = v + 1; });
        });
  }
  return ring;
}

TEST(BackendParity, RingProducesIdenticalResultsOnBothBackends) {
  constexpr int kStages = 4;
  constexpr int kRounds = 10;

  Program p;
  const Ring ring = define_ring(p, kStages, kRounds);
  p.place(place::Policy::TreeMatch);

  RuntimeBackend real;
  const RunReport real_rep = p.run(real);

  SimBackendOptions so;
  so.emulate = true;
  SimBackend sim(topo::Topology::paper_machine(),
                 sim::LinkCost::defaults_for(topo::Topology::paper_machine()),
                 so);
  const RunReport sim_rep = p.run(sim);

  for (const Location<long>& loc : ring.stages)
    EXPECT_EQ(real.fetch(loc), sim.fetch(loc))
        << "location " << loc.id() << " diverged between backends";

  // Both backends account one grant per declared access per iteration.
  EXPECT_EQ(real_rep.grants, sim_rep.grants);

  // The prediction is a real, positive duration with the sync component of
  // the ORWL events model.
  EXPECT_GT(sim_rep.seconds, 0.0);
  EXPECT_EQ(sim_rep.backend, "sim");
  EXPECT_EQ(real_rep.backend, "runtime");
  EXPECT_TRUE(sim_rep.placed);
  EXPECT_TRUE(real_rep.placed);
}

TEST(BackendParity, DefaultWaitResolvesAlikeOnBothBackends) {
  // A default-wait program runs spin-then-park when its tasks fit the
  // CPUs and blocks when they do not; the sim must charge the same wait
  // for a topology of the same size. Pin this thread (and so the
  // runtime's threads) to one CPU and model a one-PU machine: a single
  // task fits, a two-stage ring does not.
  const std::optional<topo::Bitmap> mask = topo::current_thread_binding();
  if (!mask) GTEST_SKIP() << "no affinity mask on this platform";
  const topo::ScopedBinding one_cpu(topo::Bitmap::single(mask->first()));
  ASSERT_TRUE(one_cpu.bound());

  Program fits;
  const Location<long> counter = fits.location<long>(1, "counter");
  fits.task("solo").writes(counter).iterations(5).body([counter](Step& s) {
    s.write(counter, [](std::span<long> x) { x[0] += 1; });
  });
  Program oversubscribed;
  define_ring(oversubscribed, 2, 5);

  SimBackend sim(topo::Topology::flat(1));
  const struct {
    const Program& program;
    sync::WaitStrategy expect;
  } cases[] = {{fits, sync::WaitStrategy::spin_then_park_auto()},
               {oversubscribed, sync::WaitStrategy::block()}};
  for (const auto& c : cases) {
    RuntimeBackend real;
    EXPECT_EQ(c.program.run(real).wait, c.expect);
    EXPECT_EQ(c.program.run(sim).wait, c.expect);
    EXPECT_EQ(sim.workload(c.program).spin_waits,
              c.expect.mode != sync::WaitMode::Block);
  }
}

TEST(BackendParity, SimWithoutEmulationRefusesFetch) {
  Program p;
  const Ring ring = define_ring(p, 2, 2);
  SimBackend sim(topo::Topology::flat(4));
  p.run(sim);
  EXPECT_THROW(sim.fetch(ring.stages[0]), ContractError);
}

TEST(BackendParity, Lk23ProgramMatchesBlockedReference) {
  lk23::Spec spec;
  spec.n = 64;
  spec.iterations = 4;
  spec.bx = 2;
  spec.by = 2;

  RuntimeBackend be;
  lk23::ProgramDef def;
  lk23::run_lk23_program(spec, place::Policy::TreeMatch, be, &def);
  const std::vector<double> za = lk23::fetch_field(be, def);
  const std::vector<double> ref = lk23::blocked_reference(spec);
  EXPECT_EQ(lk23::max_abs_diff(za, ref), 0.0)
      << "Program-defined LK23 must be bit-identical to the reference";
  EXPECT_EQ(def.num_tasks, 4 + 4 * 8);
}

TEST(BackendParity, Lk23ProgramMatchesLegacyOrwlRuntime) {
  lk23::Spec spec;
  spec.n = 48;
  spec.iterations = 3;
  spec.bx = 3;
  spec.by = 1;

  const auto topo = topo::Topology::host();
  const lk23::OrwlRunResult legacy =
      lk23::run_orwl(spec, place::Policy::None, topo);

  RuntimeBackend be;
  lk23::ProgramDef def;
  const RunReport rep =
      lk23::run_lk23_program(spec, place::Policy::None, be, &def);
  const std::vector<double> za = lk23::fetch_field(be, def);

  EXPECT_EQ(lk23::max_abs_diff(za, legacy.za), 0.0);
  EXPECT_EQ(def.num_tasks, legacy.num_tasks);

  // Exactly one grant per acquisition — unlike the legacy bodies, which
  // renew even on their final iteration and leave dangling granted
  // requests behind (legacy.grants counts those too). Mains acquire their
  // block every round (T+1) plus each halo read T times; each of the 8
  // frontier ops per block acquires twice per round for T rounds.
  const int B = spec.bx * spec.by;
  std::uint64_t expected = 0;
  for (int b = 0; b < B; ++b) {
    int neighbours = 0;
    for (int d = 0; d < lk23::kDirs; ++d) {
      const auto [dx, dy] = lk23::dir_delta(d);
      const int nx = b % spec.bx + dx;
      const int ny = b / spec.bx + dy;
      if (nx >= 0 && ny >= 0 && nx < spec.bx && ny < spec.by) ++neighbours;
    }
    expected += static_cast<std::uint64_t>(spec.iterations + 1) +
                static_cast<std::uint64_t>(spec.iterations) *
                    static_cast<std::uint64_t>(neighbours);
  }
  expected += static_cast<std::uint64_t>(B) * 8u * 2u *
              static_cast<std::uint64_t>(spec.iterations);
  EXPECT_EQ(rep.grants, expected);
  EXPECT_LE(rep.grants, legacy.grants);

  // Identical static communication matrices: the declaration carries the
  // same sharing structure the runtime derives from its handles.
  Program p;
  lk23::define_lk23_program(p, spec);
  const comm::CommMatrix ours = p.static_comm_matrix();
  ASSERT_EQ(ours.order(), legacy.static_matrix.order());
  for (int i = 0; i < ours.order(); ++i)
    for (int j = 0; j < ours.order(); ++j)
      EXPECT_EQ(ours.at(i, j), legacy.static_matrix.at(i, j));
}

TEST(BackendParity, Lk23SimTracksLegacyFigureOneModel) {
  // The generic Program→workload derivation must land within a few percent
  // of the hand-built Figure-1 model (the only systematic difference is
  // the +1 initialization round the real program performs).
  const auto topo = topo::Topology::paper_machine();
  const sim::LinkCost cost = sim::LinkCost::defaults_for(topo);

  sim::Lk23SimSpec sim_spec;
  sim_spec.matrix_n = 1536;
  sim_spec.iterations = 50;
  sim_spec.tasks = 16;

  lk23::Spec spec;
  spec.n = sim_spec.matrix_n;
  spec.iterations = sim_spec.iterations;
  const auto [bx, by] = sim::block_grid(sim_spec.tasks);
  spec.bx = bx;
  spec.by = by;

  for (const place::Policy policy :
       {place::Policy::None, place::Policy::TreeMatch}) {
    const auto legacy_impl = policy == place::Policy::None
                                 ? sim::Lk23Impl::OrwlNoBind
                                 : sim::Lk23Impl::OrwlBind;
    const double legacy =
        sim::simulate_lk23(legacy_impl, topo, cost, sim_spec).total_seconds;

    SimBackend be(topo.clone(), cost);
    const RunReport rep = lk23::run_lk23_program(spec, policy, be);
    ASSERT_GT(legacy, 0.0);
    const double expected_scale =
        static_cast<double>(sim_spec.iterations + 1) / sim_spec.iterations;
    EXPECT_NEAR(rep.seconds / legacy, expected_scale, 0.05)
        << "policy " << place::to_string(policy);
  }
}

}  // namespace
}  // namespace orwl
