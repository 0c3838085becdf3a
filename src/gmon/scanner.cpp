#include "gmon/scanner.hpp"

#include "gmon/binary_io.hpp"
#include "gmon/flat_text.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <stdexcept>

namespace incprof::gmon {

namespace {
constexpr std::string_view kBinaryPrefix = "gmon-";
constexpr std::string_view kBinarySuffix = ".out";
constexpr std::string_view kTextPrefix = "flat-";
constexpr std::string_view kTextSuffix = ".txt";
/// Files one load_binary_dumps unit decodes, in path order.
constexpr std::size_t kFilesPerUnit = 32;

std::vector<std::filesystem::path> matching_files(
    const std::filesystem::path& dir, std::string_view prefix,
    std::string_view suffix) {
  std::vector<std::filesystem::path> files;
  if (!std::filesystem::exists(dir)) return files;
  // Sorted as names: every file shares `dir`, so this is path order, and
  // a string compare is cheaper than a path compare.
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::string name = entry.path().filename().string();
    if (util::starts_with(name, prefix) && util::ends_with(name, suffix)) {
      names.push_back(std::move(name));
    }
  }
  std::sort(names.begin(), names.end());
  files.reserve(names.size());
  for (const std::string& name : names) files.push_back(dir / name);
  return files;
}
}  // namespace

std::string binary_dump_name(std::uint32_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "gmon-%06u.out", seq);
  return buf;
}

std::string text_dump_name(std::uint32_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "flat-%06u.txt", seq);
  return buf;
}

bool parse_dump_seq(const std::string& filename, std::uint32_t& seq) {
  std::string_view name = filename;
  std::string_view prefix, suffix;
  if (util::starts_with(name, kBinaryPrefix) &&
      util::ends_with(name, kBinarySuffix)) {
    prefix = kBinaryPrefix;
    suffix = kBinarySuffix;
  } else if (util::starts_with(name, kTextPrefix) &&
             util::ends_with(name, kTextSuffix)) {
    prefix = kTextPrefix;
    suffix = kTextSuffix;
  } else {
    return false;
  }
  const std::string_view digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  std::uint64_t v = 0;
  if (digits.empty() || !util::parse_u64(digits, v) || v > 0xffffffffULL) {
    return false;
  }
  seq = static_cast<std::uint32_t>(v);
  return true;
}

std::vector<ProfileSnapshot> load_binary_dumps(
    const std::filesystem::path& dir, util::ThreadPool* pool) {
  const std::vector<std::filesystem::path> paths =
      matching_files(dir, kBinaryPrefix, kBinarySuffix);
  std::vector<ProfileSnapshot> snaps(paths.size());
  // Unit c decodes files [c * kFilesPerUnit, ...) into their own slots
  // through one reused buffer and keeps its first error; the lowest
  // failing unit's error, which is the first failing file's in path
  // order, is the one thrown. Neither depends on the thread count
  // (DESIGN §6 rules 1 and 4).
  const std::size_t units = (paths.size() + kFilesPerUnit - 1) / kFilesPerUnit;
  std::vector<std::exception_ptr> errors(units);
  auto load_unit = [&](std::size_t c) {
    std::string buffer;
    const std::size_t end = std::min(paths.size(), (c + 1) * kFilesPerUnit);
    try {
      for (std::size_t i = c * kFilesPerUnit; i < end; ++i) {
        snaps[i] = read_binary_file(paths[i], buffer);
      }
    } catch (...) {
      errors[c] = std::current_exception();
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(units, load_unit);
  } else {
    for (std::size_t c = 0; c < units; ++c) load_unit(c);
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  std::sort(snaps.begin(), snaps.end(),
            [](const ProfileSnapshot& a, const ProfileSnapshot& b) {
              return a.seq() < b.seq();
            });
  return snaps;
}

LenientLoadResult load_binary_dumps_lenient(
    const std::filesystem::path& dir) {
  LenientLoadResult result;
  std::map<std::uint32_t, ProfileSnapshot> by_seq;
  for (const auto& path : matching_files(dir, kBinaryPrefix, kBinarySuffix)) {
    try {
      ProfileSnapshot snap = read_binary_file(path);
      // try_emplace leaves `snap` untouched when the seq is taken.
      auto [it, inserted] = by_seq.try_emplace(snap.seq(), std::move(snap));
      if (!inserted) {
        ++result.duplicates_dropped;
        // A restarted collector rewrote this seq; the dump with the
        // later profiled timestamp is the survivor.
        if (snap.timestamp_ns() > it->second.timestamp_ns()) {
          it->second = std::move(snap);
        }
      }
    } catch (const std::exception&) {
      result.skipped.push_back(path);
    }
  }
  result.snapshots.reserve(by_seq.size());
  for (auto& [seq, snap] : by_seq) {
    result.snapshots.push_back(std::move(snap));
  }
  return result;
}

std::vector<ProfileSnapshot> load_text_dumps(
    const std::filesystem::path& dir) {
  std::vector<ProfileSnapshot> snaps;
  for (const auto& path : matching_files(dir, kTextPrefix, kTextSuffix)) {
    std::uint32_t seq = 0;
    if (!parse_dump_seq(path.filename().string(), seq)) continue;
    std::ifstream is(path);
    if (!is) {
      throw std::runtime_error("scanner: cannot read " + path.string());
    }
    std::string text((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    ProfileSnapshot snap = parse_flat_profile(text);
    snap.set_seq(seq);
    snaps.push_back(std::move(snap));
  }
  std::sort(snaps.begin(), snaps.end(),
            [](const ProfileSnapshot& a, const ProfileSnapshot& b) {
              return a.seq() < b.seq();
            });
  return snaps;
}

std::size_t convert_dumps_to_text(const std::filesystem::path& dir,
                                  std::int64_t sample_period_ns) {
  std::size_t converted = 0;
  FlatTextOptions opts;
  opts.sample_period_ns = sample_period_ns;
  for (const auto& path : matching_files(dir, kBinaryPrefix, kBinarySuffix)) {
    const ProfileSnapshot snap = read_binary_file(path);
    const std::filesystem::path out = dir / text_dump_name(snap.seq());
    std::ofstream os(out, std::ios::trunc);
    if (!os) {
      throw std::runtime_error("scanner: cannot write " + out.string());
    }
    os << format_flat_profile(snap, opts);
    ++converted;
  }
  return converted;
}

}  // namespace incprof::gmon
