#pragma once
// Fixture: an on_grants override with no sink-contract comment anywhere in
// the preceding window. Must trip [sink-contract].

#include "orwl/queue.h"

namespace orwl::lintfix {

class SilentSink final : public GrantSink {
 public:
  void on_grants(std::span<Request* const> reqs) override { (void)reqs; }
};

}  // namespace orwl::lintfix
