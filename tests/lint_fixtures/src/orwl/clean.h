#pragma once
// Fixture: a file every rule must pass — guards the self-test against the
// lint going trigger-happy (false positives would gate CI on noise).

#include <atomic>

#include "orwl/queue.h"

namespace orwl::lintfix {

// sink-contract: no-queue-reentry — records and returns.
class QuietSink final : public GrantSink {
 public:
  void on_grants(std::span<Request* const> reqs) override {
    last = reqs.back()->ticket;
  }
  Ticket last = 0;
};

inline int justified_load(const std::atomic<int>& a) {
  // order: acquire — pairs with the writer's release store.
  return a.load(std::memory_order_acquire);
}

// lint: allow-naked-acquire(fixture demonstrates the suppression form)
inline void suppressed(Handle& h) { h.acquire(); }

}  // namespace orwl::lintfix
