#include "core/report.hpp"

#include <iomanip>
#include <sstream>

#include "base/string_util.hpp"

namespace gdf::core {

Table3Row make_table3_row(const std::string& circuit,
                          const FogbusterResult& result) {
  Table3Row row;
  row.circuit = circuit;
  row.tested = result.tested();
  row.untestable = result.untestable();
  row.aborted = result.aborted();
  row.patterns = result.pattern_count;
  row.seconds = result.seconds;
  return row;
}

std::string table3_header() {
  std::ostringstream os;
  os << pad_right("circuit", 10) << pad_left("tested", 8)
     << pad_left("untstbl", 9) << pad_left("aborted", 9)
     << pad_left("#pat", 7) << pad_left("time[s]", 10);
  return os.str();
}

std::string format_table3_row(const Table3Row& row) {
  std::ostringstream os;
  os << pad_right(row.circuit, 10) << pad_left(std::to_string(row.tested), 8)
     << pad_left(std::to_string(row.untestable), 9)
     << pad_left(std::to_string(row.aborted), 9)
     << pad_left(std::to_string(row.patterns), 7);
  std::ostringstream secs;
  if (row.seconds < 1.0) {
    secs << "<1";
  } else {
    secs << std::fixed << std::setprecision(0) << row.seconds;
  }
  os << pad_left(secs.str(), 10);
  return os.str();
}

std::string format_stage_stats(const StageStats& s) {
  std::ostringstream os;
  os << "  targeted faults        " << s.targeted << "\n"
     << "  local solutions        " << s.local_solutions << " (PO-observed "
     << s.po_observed << ", PPO-observed " << s.ppo_observed << ")\n"
     << "  propagation attempts   " << s.prop_attempts << " (exhausted "
     << s.prop_failures << ")\n"
     << "  TDgen re-entries       " << s.reentries << " (failed "
     << s.reentry_failures << ")\n"
     << "  synchronizations       " << s.sync_attempts << " (failed "
     << s.sync_failures << ")\n"
     << "  verify rejections      " << s.verify_rejections << "\n"
     << "  dropped by fault sim   " << s.dropped << "\n"
     << "  aborts                 local " << s.aborted_local
     << ", sequential " << s.aborted_sequential << ", budget "
     << s.aborted_budget << "\n"
     << "  sequential aborts      propagation " << s.aborted_propagation
     << ", synchronization " << s.aborted_synchronization << ", exhausted "
     << s.aborted_exhausted << "\n"
     << "  search core            implications "
     << s.search.implication_assigns << ", trail pushes "
     << s.search.trail_pushes << ", pops " << s.search.trail_pops << "\n"
     << "  conflict learning      conflicts " << s.search.conflicts
     << ", learned " << s.search.learned << ", clause hits "
     << s.search.clause_hits << ", backjump levels skipped "
     << s.search.backjump_levels_skipped << "\n"
     << "  verification probes    " << s.search.probe_runs
     << " (cone-scoped " << s.search.probe_cone << ", full "
     << s.search.probe_full << ")\n"
     << "  probe memo             hits " << s.search.probe_memo_hits << "\n"
     << "  sim kernel evals       scalar " << s.sim.scalar_evals
     << ", lanes " << s.sim.lane_evals_64;
  return os.str();
}

}  // namespace gdf::core
