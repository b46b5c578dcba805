#include "run/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <charconv>
#include <fstream>
#include <sstream>

#include "base/error.hpp"
#include "base/fault_injection.hpp"
#include "run/fault_order.hpp"

namespace gdf::run {

namespace {

constexpr std::string_view kHeaderPrefix = "# gdf-journal v1 spec=";

/// Version of the flow's verdicts, hashed into every sweep fingerprint.
/// Bump it in any change that moves verdicts on purpose: --resume then
/// refuses a journal whose rows the old flow wrote instead of mixing them
/// with rows of the new one. 2: Untestable means TDgen proved that no
/// local test exists. 3: synchronization tries the circuit's
/// forward-simulated prefix library before the reverse-time search.
/// 4: the TDgen search stores no learned clauses.
constexpr int kFlowVersion = 4;

std::string hex16(std::uint64_t value) {
  char buffer[17];
  for (int i = 15; i >= 0; --i) {
    buffer[i] = "0123456789abcdef"[value & 0xf];
    value >>= 4;
  }
  buffer[16] = '\0';
  return buffer;
}

bool parse_hex16(std::string_view text, std::uint64_t* value) {
  if (text.size() != 16) {
    return false;
  }
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), *value, 16);
  return ec == std::errc() && ptr == text.data() + text.size();
}

}  // namespace

std::uint64_t fnv1a64(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::uint64_t sweep_fingerprint(const SweepSpec& spec, bool csv_layout) {
  // The flow version, then everything that fixes the canonical job list
  // and the emitted row layout, one line per job; the wall-time column is
  // part of the layout.
  std::ostringstream os;
  os << "flow=" << kFlowVersion << '\n'
     << "layout=" << (csv_layout ? "csv" : "table")
     << " seconds=" << (spec.include_seconds ? 1 : 0)
     << " bench_dir=" << spec.bench_dir << '\n';
  for (const SweepJob& job : expand(spec)) {
    const core::AtpgOptions& o = job.options;
    os << job.circuit.label << '|' << job.circuit.bench_path << '|'
       << (o.mode == alg::Mode::Robust ? "robust" : "nonrobust") << '|'
       << fault_order_name(job.order) << '|' << o.fill_seed << '|'
       << o.local.backtrack_limit << '/' << o.sequential.backtrack_limit
       << '|' << o.sequential.max_propagation_frames << '/'
       << o.sequential.max_sync_frames << '|'
       << (o.fault_dropping ? "drop" : "nodrop") << '|'
       << (o.fault_sites.include_branches ? "full" : "stems") << '|'
       << static_cast<int>(o.learn) << '|' << o.fault_budget << '\n';
  }
  return fnv1a64(os.str());
}

SweepJournal::~SweepJournal() { close(); }

void SweepJournal::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void SweepJournal::open(const std::string& path, std::uint64_t fingerprint,
                        bool resume) {
  check(fd_ < 0, "journal already open");
  completed_.clear();
  path_ = path;

  // Load the valid prefix of an existing journal (resume only): header
  // first, then records until the file ends or a line stops parsing —
  // the latter is a torn tail from a mid-write kill, everything after it
  // is discarded by the truncate below.
  std::size_t valid_bytes = 0;
  bool have_header = false;
  if (resume) {
    std::ifstream in(path, std::ios::binary);
    if (in.good()) {
      std::string line;
      while (std::getline(in, line)) {
        if (in.eof() && !in.bad()) {
          // getline without a trailing newline: a torn last line.
          break;
        }
        if (!have_header) {
          if (line.size() <= kHeaderPrefix.size() ||
              std::string_view(line).substr(0, kHeaderPrefix.size()) !=
                  kHeaderPrefix) {
            throw Error("journal '" + path + "' has no valid header");
          }
          std::uint64_t spec = 0;
          check(parse_hex16(std::string_view(line).substr(
                                kHeaderPrefix.size()),
                            &spec),
                "journal '" + path + "' has a malformed spec fingerprint");
          check(spec == fingerprint,
                "journal '" + path +
                    "' was written by a different sweep configuration; "
                    "refusing to resume");
          have_header = true;
          valid_bytes += line.size() + 1;
          continue;
        }
        // R <index> <digest> <row>
        std::string_view rest(line);
        if (rest.size() < 2 || rest[0] != 'R' || rest[1] != ' ') {
          break;
        }
        rest.remove_prefix(2);
        const std::size_t sp1 = rest.find(' ');
        if (sp1 == std::string_view::npos) {
          break;
        }
        std::size_t index = 0;
        {
          const auto [ptr, ec] =
              std::from_chars(rest.data(), rest.data() + sp1, index);
          if (ec != std::errc() || ptr != rest.data() + sp1) {
            break;
          }
        }
        rest.remove_prefix(sp1 + 1);
        const std::size_t sp2 = rest.find(' ');
        if (sp2 == std::string_view::npos) {
          break;
        }
        std::uint64_t digest = 0;
        if (!parse_hex16(rest.substr(0, sp2), &digest)) {
          break;
        }
        const std::string_view row = rest.substr(sp2 + 1);
        if (fnv1a64(row) != digest) {
          break;  // torn or corrupted record — stop at the valid prefix
        }
        completed_.emplace_back(index, std::string(row));
        valid_bytes += line.size() + 1;
      }
    }
  }

  if (have_header) {
    // Drop the torn tail (if any) so appends continue a well-formed file.
    check_resource(::truncate(path.c_str(), static_cast<off_t>(valid_bytes)) ==
                       0,
                   "cannot truncate journal '" + path + "'");
    fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
    check_resource(fd_ >= 0, "cannot open journal '" + path + "'");
    return;
  }

  // Fresh journal (no resume, or nothing readable to resume from).
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  check_resource(fd_ >= 0, "cannot create journal '" + path + "'");
  const std::string header =
      std::string(kHeaderPrefix) + hex16(fingerprint) + "\n";
  check_resource(
      ::write(fd_, header.data(), header.size()) ==
          static_cast<ssize_t>(header.size()),
      "cannot write journal header to '" + path + "'");
  check_resource(::fsync(fd_) == 0, "cannot fsync journal '" + path + "'");
}

void SweepJournal::record(std::size_t index, std::string_view row) {
  if (fd_ < 0) {
    return;
  }
  GDF_ASSERT(row.find('\n') == std::string_view::npos,
             "journal rows must be single lines");
  std::string line = "R " + std::to_string(index) + " " +
                     hex16(fnv1a64(row)) + " " + std::string(row) + "\n";
  if (fi::fire_journal_truncate()) {
    // Injected torn tail: half the record, no newline — what a kill
    // mid-write leaves behind. The next open(resume) must discard it.
    line = line.substr(0, line.size() / 2);
  }
  check_resource(::write(fd_, line.data(), line.size()) ==
                     static_cast<ssize_t>(line.size()),
                 "cannot append to journal '" + path_ + "'");
  check_resource(::fsync(fd_) == 0,
                 "cannot fsync journal '" + path_ + "'");
}

}  // namespace gdf::run
