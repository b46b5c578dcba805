// Crash-safe sweep journal (--journal FILE / --resume).
//
// An append-only record of completed sweep cells: one fsync'd line per
// emitted row holding the cell's canonical index, an FNV-1a digest of the
// emitted text, and the text itself. A killed catalog run restarts with
// --resume: the journal's valid prefix is replayed verbatim (digest-
// verified) and only the remaining cells run, so the concatenated output
// is byte-identical to the uninterrupted run (given --no-seconds; the
// wall-time column is nondeterministic with or without a journal).
//
// Format, line-oriented:
//   # gdf-journal v1 spec=<16-hex fingerprint>
//   R <index> <16-hex digest> <row text>
//
// The spec fingerprint hashes the flow version and everything that
// determines the canonical job list and the row layout; --resume against
// a journal written by a different sweep configuration or by an older
// flow is an Input error. A torn tail — the process died mid-write — is
// tolerated: reading stops at the first malformed or digest-mismatched
// line and the file is truncated back to the end of the valid prefix
// before appends resume.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "run/sweep.hpp"

namespace gdf::run {

/// FNV-1a over the bytes of `text` (the row digest and the fingerprint
/// accumulator).
std::uint64_t fnv1a64(std::string_view text);

/// Fingerprint of everything that fixes the journal's replay contract:
/// the flow version (journal.cpp's kFlowVersion, bumped by every change
/// that moves verdicts on purpose), the expanded job list (circuit, mode,
/// order, seed, limits, dropping, sites), the scalar generation knobs,
/// and the row layout (`csv_layout` = CSV rows vs the text table).
std::uint64_t sweep_fingerprint(const SweepSpec& spec, bool csv_layout);

class SweepJournal {
 public:
  SweepJournal() = default;
  ~SweepJournal();
  SweepJournal(const SweepJournal&) = delete;
  SweepJournal& operator=(const SweepJournal&) = delete;

  /// Opens `path` for journaling. With `resume` set, an existing file is
  /// loaded first: the header's fingerprint must equal `fingerprint`
  /// (Input error otherwise), completed() is populated from the valid
  /// prefix, and the file is truncated to that prefix. Without `resume`
  /// (or when the file does not exist) the journal starts fresh. Open and
  /// write failures are Resource errors.
  void open(const std::string& path, std::uint64_t fingerprint, bool resume);

  bool active() const { return fd_ >= 0; }

  /// Rows recovered by open(..., resume=true): (canonical index, emitted
  /// text), in file order.
  const std::vector<std::pair<std::size_t, std::string>>& completed() const {
    return completed_;
  }

  /// Appends one completed row and fsyncs. `row` must be newline-free
  /// (one emitted line). No-op when the journal is not active.
  void record(std::size_t index, std::string_view row);

  /// Closes the descriptor early (idempotent; the destructor also closes).
  void close();

 private:
  int fd_ = -1;
  std::string path_;
  std::vector<std::pair<std::size_t, std::string>> completed_;
};

}  // namespace gdf::run
