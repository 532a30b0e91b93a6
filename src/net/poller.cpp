#include "net/poller.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include <sys/epoll.h>
#include <unistd.h>

#include "net/socket.hpp"

namespace aesip::net {

ReadinessSet::ReadinessSet() : epfd_(::epoll_create1(EPOLL_CLOEXEC)) {
  if (epfd_ < 0) detail::throw_errno("epoll", "epoll_create1");
}

ReadinessSet::~ReadinessSet() { ::close(epfd_); }

void ReadinessSet::rebuild(std::vector<int> want) {
  want.erase(std::remove_if(want.begin(), want.end(), [](int fd) { return fd < 0; }),
             want.end());
  std::sort(want.begin(), want.end());
  want.erase(std::unique(want.begin(), want.end()), want.end());
  if (want == watched_) return;
  // Diff against the previous set: the kernel keeps the interest list,
  // so only the churn costs syscalls.
  std::size_t i = 0, j = 0;
  while (i < watched_.size() || j < want.size()) {
    if (j == want.size() || (i < watched_.size() && watched_[i] < want[j])) {
      ::epoll_ctl(epfd_, EPOLL_CTL_DEL, watched_[i], nullptr);
      ++i;
    } else if (i == watched_.size() || want[j] < watched_[i]) {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = want[j];
      ::epoll_ctl(epfd_, EPOLL_CTL_ADD, want[j], &ev);
      ++j;
    } else {
      ++i;
      ++j;
    }
  }
  watched_ = std::move(want);
}

void ReadinessSet::wait(std::chrono::milliseconds timeout) {
  if (watched_.empty()) {
    std::this_thread::sleep_for(timeout);
    return;
  }
  epoll_event events[16];
  ::epoll_wait(epfd_, events, 16, static_cast<int>(timeout.count()));
}

}  // namespace aesip::net
