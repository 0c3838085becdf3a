#include "util/thread_annotations.hpp"

namespace corpus {

void Pipeline::step() {
  util::MutexLock inner(mu_);
  util::MutexLock outer(call_mu_);
}

void Registry::flush() {
  util::MutexLock lock(mu_);
  util::MutexLock rogue(scratch_mu_);
}

void Sink::flush_all() {
  util::MutexLock l(mu_);
  util::MutexLock m(aux_mu_);
}

void Sink::flush_waived() {
  util::MutexLock l(mu_);
  util::MutexLock m(aux_mu_);  // incprof-lint: allow(lock-order)
}

}  // namespace corpus
