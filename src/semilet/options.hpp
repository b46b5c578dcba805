// Shared search limits of the sequential engines. The paper aborts a fault
// after "100 backtracks for the sequential test pattern generator"; the
// budget object is shared by the propagation, justification and
// synchronization phases of one fault so the limit covers them together.
#pragma once

namespace gdf::semilet {

struct SemiletOptions {
  int backtrack_limit = 100;        ///< paper §6
  int max_propagation_frames = 40;  ///< forward time processing depth
  int max_sync_frames = 40;         ///< reverse time processing depth
};

class Budget {
 public:
  explicit Budget(const SemiletOptions& options) : options_(options) {}

  /// Records a backtrack; returns false once the limit is exceeded.
  bool note_backtrack() {
    ++backtracks_;
    return backtracks_ <= options_.backtrack_limit;
  }

  bool exhausted() const { return backtracks_ > options_.backtrack_limit; }

  int backtracks() const { return backtracks_; }
  const SemiletOptions& options() const { return options_; }

 private:
  SemiletOptions options_;
  int backtracks_ = 0;
};

}  // namespace gdf::semilet
