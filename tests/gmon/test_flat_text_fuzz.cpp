// The ctest driver for tests/fuzz/fuzz_flat_text.cpp: replays a seed
// corpus made by format_flat_profile, then runs a bounded, seeded
// mutation loop. Every input goes through the fuzz target and is also
// parsed differentially: the parser and the reference parser must both
// throw std::runtime_error or return the same snapshot.
#include "flat_text_oracle.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size);

namespace incprof::gmon {
namespace {

std::optional<ProfileSnapshot> parse_or_nullopt(
    ProfileSnapshot (*parse)(std::string_view), std::string_view text) {
  try {
    return parse(text);
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
}

// Returns whether the parser accepted `text`.
bool check_input(std::string_view text) {
  EXPECT_EQ(LLVMFuzzerTestOneInput(
                reinterpret_cast<const std::uint8_t*>(text.data()),
                text.size()),
            0);
  const auto got = parse_or_nullopt(&parse_flat_profile, text);
  const auto want = parse_or_nullopt(&oracle::parse_flat_profile, text);
  EXPECT_TRUE(got == want) << "parser and reference disagree on:\n"
                           << text;
  return got.has_value();
}

std::vector<std::string> seed_corpus() {
  std::vector<std::string> corpus;
  util::Rng rng(0xc0'4905);
  for (int i = 0; i < 48; ++i) {
    FlatTextOptions opts;
    opts.include_idle = i % 3 == 0;
    corpus.push_back(
        format_flat_profile(oracle::random_snapshot(rng, 12), opts));
  }
  corpus.push_back(format_flat_profile(ProfileSnapshot{}));
  // gprof's own spelling: short banner period, CRLF line ends.
  corpus.push_back(
      "Flat profile:\r\n\r\nEach sample counts as 0.01 seconds.\r\n"
      "  %   cumulative   self              self     total\r\n"
      " time   seconds   seconds    calls  us/call  us/call  name\r\n"
      " 62.21       1.17      1.17       12    97.50    97.50  validate\r\n"
      " 13.20       1.42      0.25                             run bfs\r\n");
  return corpus;
}

std::string mutate(std::string s, const std::vector<std::string>& corpus,
                   util::Rng& rng) {
  static const char kAlphabet[] = " \t\r\n0123456789.-+eE%xnaif";
  static const char* const kTokens[] = {
      "nan", "-inf", "1e309", "18446744073709551616", "-0", "0x1p3",
      "Flat profile:", "time", "%", "\n", "  ", "99999999999999999999.5"};
  const auto pos = [&](std::size_t extra) {
    return static_cast<std::size_t>(rng.next_below(s.size() + extra));
  };
  const int edits = static_cast<int>(rng.next_in(1, 4));
  for (int e = 0; e < edits; ++e) {
    switch (rng.next_below(7)) {
      case 0:
        if (!s.empty()) s[pos(0)] ^= static_cast<char>(1u << rng.next_below(8));
        break;
      case 1:
        if (!s.empty()) {
          s[pos(0)] = kAlphabet[rng.next_below(sizeof(kAlphabet) - 1)];
        }
        break;
      case 2:
        s.insert(pos(1), kTokens[rng.next_below(std::size(kTokens))]);
        break;
      case 3:
        if (!s.empty()) s.erase(pos(0), rng.next_in(1, 16));
        break;
      case 4: {  // duplicate the line around a random position
        if (s.empty()) break;
        const std::size_t at = pos(0);
        const std::size_t b = s.rfind('\n', at);
        const std::size_t start = b == std::string::npos ? 0 : b + 1;
        const std::size_t end = s.find('\n', at);
        const std::string line =
            s.substr(start, end == std::string::npos ? end : end - start + 1);
        s.insert(start, line);
        break;
      }
      case 5:
        s.resize(pos(1));
        break;
      default: {  // splice in the tail of another seed
        const std::string& other = corpus[rng.next_below(corpus.size())];
        s.insert(pos(1), other.substr(rng.next_below(other.size() + 1)));
        break;
      }
    }
  }
  return s;
}

TEST(FlatTextFuzz, SeedCorpus) {
  // Every seed is well formed: the parser must accept it.
  for (const std::string& text : seed_corpus()) EXPECT_TRUE(check_input(text));
}

TEST(FlatTextFuzz, SeededMutations) {
  const std::vector<std::string> corpus = seed_corpus();
  util::Rng rng(0xf422'7e47);
  int accepted = 0;
  constexpr int kInputs = 20'000;
  for (int i = 0; i < kInputs; ++i) {
    accepted +=
        check_input(mutate(corpus[rng.next_below(corpus.size())], corpus, rng));
    if (HasFailure()) return;
  }
  // The loop must exercise both outcomes to compare anything.
  std::printf("accepted %d of %d mutated inputs\n", accepted, kInputs);
  EXPECT_GT(accepted, kInputs / 10);
  EXPECT_LT(accepted, kInputs - kInputs / 10);
}

}  // namespace
}  // namespace incprof::gmon
