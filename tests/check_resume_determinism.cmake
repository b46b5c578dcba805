# Kill-and-resume determinism on the gdf_atpg binary: a journaled sweep
# interrupted mid-run (SIGINT while a fault-injected stall pins one cell)
# must exit 3 with a valid partial prefix, and the --resume rerun must
# emit CSV byte-identical to an uninterrupted reference run. That
# reference must itself equal the golden's rows for the circuits swept —
# the one check on the binary's own stdout bytes. Registered by
# tests/CMakeLists.txt as the `cli_resume_determinism` ctest.
#
# Usage: cmake -DGDF_ATPG=<path> -DGOLDEN=<golden_catalog.csv>
#        -P check_resume_determinism.cmake

set(circuit_names s27 c17 s298 s344)
set(circuits "")
foreach(name IN LISTS circuit_names)
  list(APPEND circuits --circuit ${name})
endforeach()
set(sweep_args ${circuits} --csv --no-seconds --jobs 2)
set(journal ${CMAKE_CURRENT_BINARY_DIR}/resume_determinism.journal)
file(REMOVE ${journal})

# Reference: the uninterrupted run (no journal, no injection).
execute_process(
  COMMAND ${GDF_ATPG} ${sweep_args}
  OUTPUT_VARIABLE reference_out
  RESULT_VARIABLE reference_rc)
if(NOT reference_rc EQUAL 0)
  message(FATAL_ERROR "reference run failed (rc=${reference_rc})")
endif()

# The golden's header plus its row for each circuit, in sweep order.
file(STRINGS ${GOLDEN} golden_lines)
list(GET golden_lines 0 expected)
string(APPEND expected "\n")
foreach(name IN LISTS circuit_names)
  set(row ${golden_lines})
  list(FILTER row INCLUDE REGEX "^${name},")
  string(APPEND expected "${row}\n")
endforeach()
if(NOT reference_out STREQUAL expected)
  message(FATAL_ERROR "the uninterrupted run does not match the golden:\n"
                      "=== gdf_atpg ===\n${reference_out}\n"
                      "=== expected (${GOLDEN}) ===\n${expected}")
endif()

# Interrupted run: the stall directive pins s298's cell for far longer
# than the timeout, so SIGINT always lands mid-sweep; --preserve-status
# surfaces gdf_atpg's own exit code (3 = partial) instead of timeout's.
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env GDF_FI=stall:s298:60000
          timeout --preserve-status -s INT 3
          ${GDF_ATPG} ${sweep_args} --journal ${journal}
  OUTPUT_VARIABLE partial_out
  ERROR_VARIABLE partial_err
  RESULT_VARIABLE partial_rc)
if(NOT partial_rc EQUAL 3)
  message(FATAL_ERROR "interrupted run should exit 3 (partial), got "
                      "rc=${partial_rc}\nstderr:\n${partial_err}")
endif()
if(NOT partial_err MATCHES "interrupted")
  message(FATAL_ERROR "interrupted run did not report the interruption:\n"
                      "${partial_err}")
endif()
if(NOT EXISTS ${journal})
  message(FATAL_ERROR "interrupted run left no journal at ${journal}")
endif()

# The partial stdout must be a strict prefix of the reference (header plus
# the completed canonical frontier) — never reordered or truncated rows.
string(LENGTH "${partial_out}" partial_len)
string(LENGTH "${reference_out}" reference_len)
if(partial_len GREATER_EQUAL reference_len)
  message(FATAL_ERROR "interrupted run was not actually partial "
                      "(${partial_len} vs ${reference_len} bytes)")
endif()
string(SUBSTRING "${reference_out}" 0 ${partial_len} reference_prefix)
if(NOT partial_out STREQUAL reference_prefix)
  message(FATAL_ERROR "partial output is not a prefix of the reference:\n"
                      "=== partial ===\n${partial_out}\n"
                      "=== reference ===\n${reference_out}")
endif()

# Resume: replay the journal, run only the remaining cells, and match the
# uninterrupted bytes exactly.
execute_process(
  COMMAND ${GDF_ATPG} ${sweep_args} --journal ${journal} --resume
  OUTPUT_VARIABLE resumed_out
  RESULT_VARIABLE resumed_rc)
if(NOT resumed_rc EQUAL 0)
  message(FATAL_ERROR "resume run failed (rc=${resumed_rc})")
endif()
if(NOT resumed_out STREQUAL reference_out)
  message(FATAL_ERROR "resumed output differs from the uninterrupted run:\n"
                      "=== resumed ===\n${resumed_out}\n"
                      "=== reference ===\n${reference_out}")
endif()

# A second resume replays everything (journal complete) and still matches.
execute_process(
  COMMAND ${GDF_ATPG} ${sweep_args} --journal ${journal} --resume
  OUTPUT_VARIABLE replayed_out
  RESULT_VARIABLE replayed_rc)
if(NOT replayed_rc EQUAL 0)
  message(FATAL_ERROR "full-replay run failed (rc=${replayed_rc})")
endif()
if(NOT replayed_out STREQUAL reference_out)
  message(FATAL_ERROR "full-replay output differs from the reference")
endif()

file(REMOVE ${journal})
message(STATUS "kill-and-resume output byte-identical "
               "(${reference_len} bytes; partial=${partial_len})")
