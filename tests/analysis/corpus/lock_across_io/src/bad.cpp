#include "util/thread_annotations.hpp"

namespace corpus {

void Conn::send_frame(const char* buf, int n) {
  util::MutexLock lock(send_mu_);
  ::send(fd_, buf, n, 0);
}

void Conn::stop() {
  util::MutexLock lock(send_mu_);
  reader_.join();
}

}  // namespace corpus
