// ReadinessSet: bulk read-readiness waiting for the server's event loops.
//
// An event loop owns a set of connections; when none of them made progress
// it must sleep until bytes arrive on *any* of them. epoll keeps the
// interest list in the kernel across calls, so a wakeup costs O(ready),
// not O(watched) — what lets one loop carry thousands of mostly-idle
// sessions:
//
//   set.rebuild(fds);   // only when the conn set changed (cheap to diff)
//   set.wait(timeout);  // sleep until any fd is readable, or timeout
//
// Wakeups are advisory, exactly like Listener::wait — callers re-scan their
// connections, they never trust the wakeup. Duplicate and negative handles
// are tolerated: duplicates are deduped (UDP conns share one socket) and
// negatives (a closed conn, a listener wrapper hiding its fd) are skipped.
#pragma once

#include <chrono>
#include <vector>

namespace aesip::net {

class ReadinessSet {
 public:
  ReadinessSet();  ///< throws std::runtime_error when epoll is unavailable
  ~ReadinessSet();
  ReadinessSet(const ReadinessSet&) = delete;
  ReadinessSet& operator=(const ReadinessSet&) = delete;

  /// Replace the watched set. Order is irrelevant; duplicates and -1 are
  /// tolerated and ignored.
  void rebuild(std::vector<int> fds);

  /// Sleep until any watched fd is readable (or has an error/EOF pending)
  /// or `timeout` elapses. With an empty watch set this is a plain sleep.
  void wait(std::chrono::milliseconds timeout);

 private:
  int epfd_;
  std::vector<int> watched_;  ///< sorted, deduped, no negatives
};

}  // namespace aesip::net
