// The profile-snapshot data model. A ProfileSnapshot is what the gprof
// runtime dumps: *cumulative-since-program-start* per-function counters.
// IncProf's collector produces one snapshot per interval; the analysis
// stage (src/core) differences consecutive snapshots into per-interval
// profiles (paper, Section V-A).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace incprof::gmon {

/// Cumulative counters for one function at one dump instant.
struct FunctionProfile {
  /// Function symbol name (demangled form, as gprof reports it).
  std::string name;
  /// Cumulative self time attributed by PC sampling, in nanoseconds.
  std::int64_t self_ns = 0;
  /// Cumulative call count from entry instrumentation.
  std::int64_t calls = 0;
  /// Cumulative inclusive time (function anywhere on the stack), ns.
  /// Not representable in the gprof flat-profile text form; preserved by
  /// the binary format only. Used by the feature-ablation bench
  /// (children time = inclusive - self).
  std::int64_t inclusive_ns = 0;

  bool operator==(const FunctionProfile&) const = default;
};

/// One cumulative profile dump.
class ProfileSnapshot {
 public:
  ProfileSnapshot() = default;

  /// `seq` is the interval index assigned by the collector when it renames
  /// the dump (paper, Section IV); `timestamp_ns` is the dump instant on
  /// the profiled clock.
  ProfileSnapshot(std::uint32_t seq, std::int64_t timestamp_ns)
      : seq_(seq), timestamp_ns_(timestamp_ns) {}

  std::uint32_t seq() const noexcept { return seq_; }
  void set_seq(std::uint32_t s) noexcept { seq_ = s; }

  std::int64_t timestamp_ns() const noexcept { return timestamp_ns_; }
  void set_timestamp_ns(std::int64_t t) noexcept { timestamp_ns_ = t; }

  /// Functions sorted by name (maintained as an invariant so snapshots
  /// compare and difference deterministically).
  const std::vector<FunctionProfile>& functions() const noexcept {
    return functions_;
  }

  /// Inserts or overwrites the entry for `fp.name`.
  void upsert(FunctionProfile fp);

  /// As upsert(), but a name above every held one is appended without a
  /// search — the decoder's path, since the encoder writes names in
  /// order. Any other name falls back to upsert(), so the last row of a
  /// repeated name still wins.
  void append(FunctionProfile fp);

  /// Reserves room for `n` functions.
  void reserve(std::size_t n) { functions_.reserve(n); }

  /// Looks up a function by name.
  const FunctionProfile* find(std::string_view name) const noexcept;

  /// Sum of self_ns across all functions, saturated to the int64 range
  /// (an untrusted dump can hold any counter).
  std::int64_t total_self_ns() const noexcept;

  /// Number of functions with any recorded activity.
  std::size_t size() const noexcept { return functions_.size(); }
  bool empty() const noexcept { return functions_.empty(); }

  bool operator==(const ProfileSnapshot&) const = default;

 private:
  friend void difference_into(const ProfileSnapshot& cur,
                              const ProfileSnapshot& prev,
                              ProfileSnapshot& out);

  std::uint32_t seq_ = 0;
  std::int64_t timestamp_ns_ = 0;
  std::vector<FunctionProfile> functions_;  // sorted by name
};

/// Subtracts `prev` from `cur` field-wise per function, producing the
/// activity within one interval. Functions absent from `prev` are treated
/// as all-zero there. Negative deltas (clock skew, counter reset) are
/// clamped to zero — the real gprof data the paper processes is monotone,
/// and clamping keeps downstream feature vectors well-formed.
/// The result's seq/timestamp are taken from `cur`.
ProfileSnapshot difference(const ProfileSnapshot& cur,
                           const ProfileSnapshot& prev);

/// As difference(), but writes the result into `out`, reusing its
/// function and string storage — the allocation-free steady path for
/// per-interval consumers (the online tracker differences every dump
/// it sees). Single merge-walk over both sorted function lists, so it
/// is also O(|cur| + |prev|) instead of difference()'s per-name binary
/// search. `out` must not alias `cur` or `prev`.
void difference_into(const ProfileSnapshot& cur, const ProfileSnapshot& prev,
                     ProfileSnapshot& out);

}  // namespace incprof::gmon
