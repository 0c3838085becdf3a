#include <thread>

namespace corpus {

void fire_and_forget() {
  std::thread worker([] {});
  worker.detach();
}

void Pool::drop() {
  thread_->detach( );
}

}  // namespace corpus
