#pragma once
// The shm grant transport: how a two-process ORWL program runs.
//
// Exactly one process — the OWNER — hosts every shared location's
// FifoQueue and therefore all arbitration; FIFO order, grant tickets and
// the read-run/exclusive-write rules never cross a process boundary. The
// PEER's handles are rerouted (RequestPort) so request / release /
// release_and_renew become WireMsgs on the channel's ops ring; the owner
// pump materializes them as PROXY requests (Request::owner ==
// kRemoteOwner) in the real queues. Grants for proxies flow back through
// the RemoteGrantSink onto the grant ring; the peer pump matches them to
// the waiting Request by slot and wakes the parked handle through the
// runtime's normal delivery path — Handles and Sections are unchanged.
//
// Canonical priming across processes: the owner primes its handles first
// (manually or via run()), then start() publishes OwnerReady; the peer's
// start() waits for that before sending its primes — so the global FIFO
// order is owner's handles in their order, then the peer's in its order,
// exactly the single-process discipline.
//
// Failure semantics are FAIL-STOP (step 1): every pump wait is bounded;
// on timeout the pump probes the other pid, and a vanished counterpart
// poisons the channel and invokes EndpointOptions::on_peer_failure — by
// default a log line and _Exit(kPeerFailureExitCode), because a parked
// handle whose grant died with the peer can never be woken safely.
// Recovery/fencing is the cluster transport's problem (ROADMAP step 2).

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "ipc/channel.h"
#include "obs/metrics.h"
#include "orwl/queue.h"
#include "orwl/runtime.h"
#include "support/thread_annotations.h"
#include "sync/mutex.h"
#include "sync/wait_strategy.h"

namespace orwl::ipc {

/// Exit code of the default on_peer_failure handler — asserted end-to-end
/// by tools/check_ipc.py (EX_TEMPFAIL: the run may be retried).
inline constexpr int kPeerFailureExitCode = 75;

struct EndpointOptions {
  /// Spin/park behaviour of every transport wait.
  sync::WaitStrategy wait{};
  /// Pump re-check interval: an idle pump wakes this often to probe peer
  /// liveness and the stop flag.
  std::int64_t tick_ns = 20'000'000;  // 20 ms
  /// Bound on handshake and ring-full waits; exceeding it with a live
  /// peer still fails the channel (wedged counterpart).
  std::int64_t handshake_timeout_ns = 10'000'000'000;  // 10 s
  /// Called (once) when the counterpart is detected dead or wedged, with
  /// a diagnostic. Default: log + std::_Exit(kPeerFailureExitCode) —
  /// fail-stop, see the header comment. Tests override this to observe
  /// the detection without dying.
  std::function<void(const std::string&)> on_peer_failure;
};

/// GrantSink the owner Runtime routes kRemoteOwner grants to: publishes
/// {slot, ticket} onto the grant ring. Announcements from different
/// location queues (each serialized only by its own combining step) are
/// serialized by mu_ so the ring keeps a single logical producer.
class RemoteGrantSink final : public GrantSink {
 public:
  RemoteGrantSink(SpscRing& ring, obs::Counter& published);

  /// Bounded-block on a full ring before giving up (set from
  /// EndpointOptions by the endpoint that owns this sink).
  void set_push_timeout(std::int64_t ns) { push_timeout_ns_ = ns; }
  void set_failure_handler(std::function<void(const std::string&)> fn) {
    on_failure_ = std::move(fn);
  }

  // sink-contract: no-queue-reentry — serializes on its own leaf mutex
  // and pushes one WireMsg per request into the shm ring; never touches a
  // FifoQueue.
  void on_grants(std::span<Request* const> reqs) override;

 private:
  SpscRing& ring_;
  obs::Counter& published_;
  sync::Mutex mu_;
  std::int64_t push_timeout_ns_ = 1'000'000'000;
  std::function<void(const std::string&)> on_failure_;
};

/// Owner-process side: binds channel locations to the runtime that hosts
/// their queues, pumps the ops ring into proxy requests, and wires the
/// RemoteGrantSink into the runtime. Lifecycle:
///
///   OwnerEndpoint ep(ch, rt);          // rt: any RuntimeOptions
///   ep.bind_location(0, loc);          // loc = rt.add_shared_location(...)
///   ... prime owner handles ...
///   ep.start();                        // pump up, state -> OwnerReady
///   ep.wait_peer_attached();           // peer's primes are in the FIFOs
///   rt.run();
///   ep.wait_peer_done();               // bounded wait for the peer's Bye
///   ep.stop();
class OwnerEndpoint {
 public:
  OwnerEndpoint(Channel& ch, Runtime& rt, EndpointOptions opts = {});
  ~OwnerEndpoint();

  OwnerEndpoint(const OwnerEndpoint&) = delete;
  OwnerEndpoint& operator=(const OwnerEndpoint&) = delete;

  /// Map channel location `chan_index` to the runtime location whose
  /// storage is that channel block. Before start().
  void bind_location(std::uint32_t chan_index, LocationId loc);

  void start();
  /// Stop the pump (idempotent; the destructor calls it).
  void stop();

  /// True once the peer's Bye was drained (clean shutdown).
  [[nodiscard]] bool peer_done() const {
    // order: acquire — pairs with the pump's release store; observing the
    // flag publishes the drained ring.
    return peer_done_.load(std::memory_order_acquire);
  }
  /// True once on_peer_failure fired (only observable when the handler
  /// was overridden to not exit).
  [[nodiscard]] bool failed() const {
    // order: acquire — same contract as peer_done().
    return failed_.load(std::memory_order_acquire);
  }
  /// Bounded wait (handshake_timeout_ns) until the peer announced itself
  /// primed (PeerAttached) AND the pump drained every one of its initial
  /// requests into the FIFOs. Without this barrier the owner's first
  /// release could find an empty queue and re-grant itself — canonical
  /// priming requires ALL first requests queued before anyone runs.
  [[nodiscard]] bool wait_peer_attached();
  /// Bounded wait for the peer's clean detach; false on timeout/failure.
  [[nodiscard]] bool wait_peer_done();

 private:
  /// Proxy pair for one peer handle slot: mirrors Handle's two-slot
  /// renewal so release_and_renew works for remote handles too. Requests
  /// are REFERENCED by the queue, so the vector holding these is sized
  /// once (at Hello, before anything is queued) and never reallocated.
  struct ProxySlot {
    Request reqs[2];
    int active = 0;
    bool queued = false;  ///< a request of this slot is in some FIFO
  };

  void pump();
  void handle_msg(const WireMsg& msg);
  void fail(const std::string& why);

  Channel& ch_;
  Runtime& rt_;
  EndpointOptions opts_;
  RemoteGrantSink sink_;
  obs::Counter& drained_;
  std::vector<LocationId> loc_map_;
  std::vector<ProxySlot> proxies_;  // pump-thread only after Hello
  int outstanding_ = 0;             // queued proxies; pump-thread only
  /// Peer's handle-slot count from Hello / count of Request messages the
  /// pump has queued — together they implement wait_peer_attached().
  std::atomic<std::uint32_t> hello_slots_{0};
  std::atomic<std::uint32_t> requests_seen_{0};
  std::thread pump_thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> peer_done_{false};
  std::atomic<bool> failed_{false};
  bool started_ = false;
};

/// Peer-process side: reroutes handle operations onto the ops ring and
/// pumps grant announcements back into parked handles. Lifecycle:
///
///   PeerEndpoint ep(ch, rt);                    // rt: any RuntimeOptions
///   LocationId loc = ep.add_location(0);        // port installed
///   ... add tasks/handles on loc (prime = false) ...
///   ep.start();             // waits OwnerReady, says Hello, pump up
///   ... rt.handle(h).request() for every handle, canonical order ...
///   ep.announce_primed();   // state -> PeerAttached, owner may run
///   rt.run();
///   ep.stop();              // Bye, state -> PeerDone
class PeerEndpoint {
 public:
  PeerEndpoint(Channel& ch, Runtime& rt, EndpointOptions opts = {});
  ~PeerEndpoint();

  PeerEndpoint(const PeerEndpoint&) = delete;
  PeerEndpoint& operator=(const PeerEndpoint&) = delete;

  /// Register channel location `chan_index` with the runtime and install
  /// the forwarding port. Handles added on the returned id behave like
  /// local ones; their operations cross the ring.
  LocationId add_location(std::uint32_t chan_index, std::string name = {});

  void start();
  /// Publish PeerAttached after every handle's first request() was sent —
  /// the owner's wait_peer_attached() barrier releases only once those
  /// primes are all queued (step 1 primes ALL peer handles up front,
  /// matching the canonical in-process discipline).
  void announce_primed();
  /// Clean detach: send Bye, publish PeerDone, stop the pump.
  /// Idempotent; the destructor calls it.
  void stop();

  [[nodiscard]] bool failed() const {
    // order: acquire — pairs with fail()'s release store.
    return failed_.load(std::memory_order_acquire);
  }

 private:
  class RemotePort final : public RequestPort {
   public:
    RemotePort(PeerEndpoint& ep, std::uint32_t chan_index)
        : ep_(ep), chan_index_(chan_index) {}
    void insert(Request& req) override;
    void release(Request& req) override;
    void release_and_renew(Request& current, Request& next) override;

   private:
    PeerEndpoint& ep_;
    std::uint32_t chan_index_;
  };

  void pump();
  void send(const WireMsg& msg);
  void fail(const std::string& why);

  Channel& ch_;
  Runtime& rt_;
  EndpointOptions opts_;
  obs::Counter& sent_;
  obs::Counter& drained_;
  std::vector<std::unique_ptr<RemotePort>> ports_;
  /// In-flight request per handle slot, written by the issuing compute
  /// thread (release) and read by the pump (acquire) when its grant
  /// arrives — atomics so the in-process ordering is explicit even
  /// though the real synchronization runs through the shm ring.
  std::vector<std::atomic<Request*>> pending_;
  sync::Mutex send_mu_;  ///< serializes ops-ring producers (leaf lock)
  std::thread pump_thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> failed_{false};
  bool started_ = false;
};

}  // namespace orwl::ipc
