// Two-process ORWL: parent and child alternate Write sections on one
// shared counter living in an anonymous memfd segment (the shm transport,
// src/ipc/). This is both the demo for docs/ipc.md and the executable
// tools/check_ipc.py drives under ctest.
//
// Usage: ipc_alternation [ok|crash-peer|crash-owner] [rounds]
//
//   ok           clean run: owner (parent) and peer (child) each bump the
//                counter `rounds` times in strict alternation; exit 0 when
//                the final value and the observed parities check out.
//   crash-peer   the child (peer) SIGKILLs itself INSIDE a section; the
//                parent (owner) must detect the dead peer within the
//                liveness tick and fail-stop with exit code 75.
//   crash-owner  roles swapped — the child plays owner and dies holding
//                the arbitration state; the surviving parent (peer) must
//                detect it and fail-stop with exit code 75.
//
// The fork happens while each process is still single-threaded (before
// any Runtime exists), which is the documented fork-safety rule for the
// shm transport (docs/ipc.md).

#include <cstdint>
#include <cstdio>
#include <cstdlib>

#ifdef __linux__
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <span>
#include <string>
#include <thread>

#include "ipc/channel.h"
#include "ipc/transport.h"
#include "orwl/runtime.h"

namespace {

using orwl::AccessMode;
using orwl::HandleId;
using orwl::LocationId;
using orwl::Runtime;
using orwl::RuntimeOptions;
using orwl::TaskId;

constexpr int kDefaultRounds = 64;

std::uint64_t& counter_of(std::span<std::byte> bytes) {
  return *reinterpret_cast<std::uint64_t*>(bytes.data());
}

RuntimeOptions shm_options() {
  RuntimeOptions opts;
  opts.control = RuntimeOptions::ControlMode::Direct;
  return opts;
}

/// The owner hosts the FIFO: prime first, publish OwnerReady, run, then
/// wait for the peer's Bye and verify the buffer. `crash_at` >= 0 kills
/// this process inside that iteration's section (crash-owner mode).
int run_owner(orwl::ipc::Channel& ch, int rounds, int crash_at) {
  Runtime rt(shm_options());
  const LocationId loc =
      rt.add_shared_location(ch.location_bytes(0), "counter");
  orwl::ipc::OwnerEndpoint ep(ch, rt);
  ep.bind_location(0, loc);

  bool parity_ok = true;
  const TaskId t = rt.add_task("owner", [&](orwl::TaskContext& ctx) {
    orwl::Handle& h = ctx.handle(0);
    for (int i = 0; i < rounds; ++i) {
      std::uint64_t& v = counter_of(h.acquire());
      if (i == crash_at) ::raise(SIGKILL);  // die mid-section
      // Owner goes first: it must see an even value, 2*i exactly.
      if (v != 2 * static_cast<std::uint64_t>(i)) parity_ok = false;
      ++v;
      if (i + 1 < rounds)
        h.release_and_renew();
      else
        h.release();
    }
  });
  const HandleId h = rt.add_handle(t, loc, AccessMode::Write,
                                   /*prime=*/false);
  // Manual prime BEFORE OwnerReady: the canonical cross-process order is
  // all owner handles, then the peer's (see docs/ipc.md).
  rt.handle(h).request();
  ep.start();
  // Barrier: the peer's primes must be in the FIFOs before any section
  // runs, or the first release would re-grant the owner immediately.
  if (!ep.wait_peer_attached()) {
    std::fprintf(stderr, "owner: peer never attached\n");
    return 2;
  }
  rt.run();

  if (!ep.wait_peer_done()) {
    std::fprintf(stderr, "owner: peer never detached cleanly\n");
    return 2;
  }
  ep.stop();
  const std::uint64_t final_value = counter_of(rt.location_data(loc));
  const auto want = static_cast<std::uint64_t>(2 * rounds);
  if (!parity_ok || final_value != want) {
    std::fprintf(stderr, "owner: bad alternation (final %llu, want %llu)\n",
                 static_cast<unsigned long long>(final_value),
                 static_cast<unsigned long long>(want));
    return 2;
  }
  return 0;
}

/// The peer forwards its lock traffic through the ring; its handles and
/// task body are indistinguishable from the in-process version.
int run_peer(int fd, int rounds, int crash_at) {
  orwl::ipc::Channel ch = orwl::ipc::Channel::attach_fd(fd);
  Runtime rt(shm_options());
  orwl::ipc::PeerEndpoint ep(ch, rt);
  const LocationId loc = ep.add_location(0);

  bool parity_ok = true;
  const TaskId t = rt.add_task("peer", [&](orwl::TaskContext& ctx) {
    orwl::Handle& h = ctx.handle(0);
    for (int i = 0; i < rounds; ++i) {
      std::uint64_t& v = counter_of(h.acquire());
      if (i == crash_at) ::raise(SIGKILL);  // die mid-section
      // Peer goes second each round: odd value, 2*i + 1 exactly.
      if (v != 2 * static_cast<std::uint64_t>(i) + 1) parity_ok = false;
      ++v;
      if (i + 1 < rounds)
        h.release_and_renew();
      else
        h.release();
    }
  });
  const HandleId h = rt.add_handle(t, loc, AccessMode::Write,
                                   /*prime=*/false);
  ep.start();
  // Manual prime after the OwnerReady handshake, then announce it — the
  // owner's wait_peer_attached() barrier releases once it is queued.
  rt.handle(h).request();
  ep.announce_primed();
  rt.run();
  ep.stop();
  return parity_ok ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "ok";
  const int rounds = argc > 2 ? std::atoi(argv[2]) : kDefaultRounds;
  if (mode != "ok" && mode != "crash-peer" && mode != "crash-owner") {
    std::fprintf(stderr,
                 "usage: %s [ok|crash-peer|crash-owner] [rounds]\n", argv[0]);
    return 64;
  }
  // Nothing here may hang: a wedged run is itself a transport bug.
  ::alarm(120);

  // Segment + channel exist before the fork so the memfd is inherited;
  // both processes are single-threaded at this point (fork safety).
  orwl::ipc::Channel ch = orwl::ipc::Channel::create(
      {.shm_name = {},  // anonymous memfd
       .ring_capacity = 64,
       .locations = {{.name = "counter", .bytes = sizeof(std::uint64_t)}}});

  const int crash_at = rounds / 2;
  const bool child_is_owner = mode == "crash-owner";
  const pid_t child = ::fork();
  if (child < 0) {
    std::perror("fork");
    return 71;
  }

  if (child == 0) {
    ::alarm(120);  // alarms do not survive fork; re-arm the watchdog
    // Child never returns into the parent's stdio/atexit state.
    if (child_is_owner)
      ::_exit(run_owner(ch, rounds, crash_at));
    ::_exit(run_peer(ch.shm_fd(), rounds, mode == "crash-peer" ? crash_at : -1));
  }

  // Reap the child the moment it dies: a zombie still passes the
  // kill(pid, 0) liveness probe, which would blind the survivor's
  // dead-peer detection in the crash modes (see docs/ipc.md).
  int status = 0;
  bool reaped = false;
  std::thread reaper([&] { reaped = ::waitpid(child, &status, 0) == child; });

  int rc;
  if (child_is_owner) {
    // Parent is the peer and must SURVIVE the owner's crash long enough
    // to detect it — the default failure handler _Exit(75)s for us.
    rc = run_peer(ch.shm_fd(), rounds, -1);
  } else {
    rc = run_owner(ch, rounds, -1);
  }

  reaper.join();
  if (!reaped) {
    std::perror("waitpid");
    return 71;
  }
  if (mode == "ok" && (!WIFEXITED(status) || WEXITSTATUS(status) != 0)) {
    std::fprintf(stderr, "child failed (status 0x%x)\n", status);
    return 2;
  }
  std::printf("ipc_alternation %s: %d rounds ok\n", mode.c_str(), rounds);
  return rc;
}

#else  // !__linux__

int main() {
  std::fprintf(stderr, "ipc_alternation: shm transport is Linux-only\n");
  return 0;
}

#endif
