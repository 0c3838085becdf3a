#include <mutex>

namespace corpus {

std::mutex g_mu;

void touch() {
  std::lock_guard<std::mutex> lock(g_mu);
}

std::condition_variable g_cv;

}  // namespace corpus
