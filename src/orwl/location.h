#pragma once
// LocationBuffer: the runtime-internal ORWL abstraction of a shared
// resource — a byte buffer guarded by an ordered read-write lock (a
// FifoQueue). The typed, user-facing view is orwl::Location<T> in
// orwl/program.h.
//
// Storage is a mem::Segment, not a raw heap vector: the Runtime's Arena
// decides the backing per RuntimeOptions::memory, so location pages can be
// bound to (and migrated between) NUMA nodes — and later backed by shared
// mappings for the multi-process transport — without this class changing.

#include <atomic>
#include <cstddef>
#include <span>
#include <string>

#include "mem/segment.h"
#include "orwl/queue.h"

namespace orwl {

class LocationBuffer {
 public:
  /// `storage` may be empty (pure synchronization location). `sink` is
  /// non-owning (the Runtime) and must outlive the buffer.
  LocationBuffer(LocationId id, mem::Segment storage, std::string name,
           GrantSink* sink);

  LocationBuffer(const LocationBuffer&) = delete;
  LocationBuffer& operator=(const LocationBuffer&) = delete;

  [[nodiscard]] LocationId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t size() const { return storage_.size(); }

  /// The guarded buffer. Callers must hold a granted request to touch it;
  /// handles enforce this, direct Runtime access is for pre-run init.
  [[nodiscard]] std::span<std::byte> data() { return storage_.bytes(); }
  [[nodiscard]] std::span<const std::byte> data() const {
    return storage_.bytes();
  }

  /// The backing segment, for page placement/migration (Runtime only —
  /// never move pages while a task holds a grant mid-write on another
  /// thread; the epoch barrier provides that exclusion).
  [[nodiscard]] mem::Segment& storage() { return storage_; }
  [[nodiscard]] const mem::Segment& storage() const { return storage_; }

  [[nodiscard]] FifoQueue& queue() { return queue_; }
  [[nodiscard]] const FifoQueue& queue() const { return queue_; }

  /// Where this location's handles send their lock operations. Defaults
  /// to the local FifoQueue; a cross-address-space peer points it at an
  /// ipc::RemotePort that forwards the operations to the hosting process.
  [[nodiscard]] RequestPort& port() { return *port_; }
  /// Swap the port (single-threaded setup, before any handle operates).
  /// `port` is non-owning and must outlive the buffer's use.
  void set_port(RequestPort* port) { port_ = port; }

  /// Task that last held a Write grant; -1 initially. Used by the
  /// instrumentation to attribute read bytes to a producer.
  [[nodiscard]] TaskId last_writer() const {
    // order: relaxed — only read/written from the grant announcement path,
    // which the queue's combiner role serializes (sync/combiner.h).
    return last_writer_.load(std::memory_order_relaxed);
  }
  void set_last_writer(TaskId t) {
    // order: relaxed — see last_writer(): the combiner role serializes
    // all access.
    last_writer_.store(t, std::memory_order_relaxed);
  }

 private:
  LocationId id_;
  std::string name_;
  mem::Segment storage_;
  // Read by every handle operation, so it sits before the queue, away
  // from the cache lines the queue's combiner writes on every grant.
  RequestPort* port_ = &queue_;
  FifoQueue queue_;
  std::atomic<TaskId> last_writer_{-1};
};

}  // namespace orwl
