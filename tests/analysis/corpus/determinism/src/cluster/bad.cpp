#include <random>

namespace corpus {

unsigned fresh_seed() {
  std::random_device rd;
  return rd();
}

void reseed() {
  std::srand(time(nullptr));
}

const char* home() {
  return getenv("HOME");
}

}  // namespace corpus
