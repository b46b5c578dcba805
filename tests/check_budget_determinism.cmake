# --fault-budget determinism on the gdf_atpg binary: a budgeted sweep's
# bytes must be identical across --jobs 1/4 and --shard-faults off/4 (the
# budget counts per-fault implication-engine assignments, a pure function
# of the fault, so budgeted runs keep sharding). Registered by
# tests/CMakeLists.txt as `cli_budget_determinism`.
#
# Usage: cmake -DGDF_ATPG=<path> -P check_budget_determinism.cmake

set(sweep_args --circuit s298 --circuit s344 --csv --no-seconds
    --fault-budget 300)

set(reference "")
foreach(jobs 1 4)
  foreach(shard off 4)
    execute_process(
      COMMAND ${GDF_ATPG} ${sweep_args} --jobs ${jobs}
              --shard-faults ${shard}
      OUTPUT_VARIABLE out
      RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR
              "--jobs ${jobs} --shard-faults ${shard} failed (rc=${rc})")
    endif()
    if(reference STREQUAL "")
      set(reference "${out}")
    elseif(NOT out STREQUAL reference)
      message(FATAL_ERROR
              "budgeted rows differ at --jobs ${jobs} --shard-faults "
              "${shard}:\n=== reference ===\n${reference}\n"
              "=== variant ===\n${out}")
    endif()
  endforeach()
endforeach()

# The cap must actually bite (else the invariance above proves nothing):
# an unbudgeted run classifies faults a 300-assignment budget aborts.
execute_process(
  COMMAND ${GDF_ATPG} --circuit s298 --circuit s344 --csv --no-seconds
  OUTPUT_VARIABLE unbudgeted_out
  RESULT_VARIABLE unbudgeted_rc)
if(NOT unbudgeted_rc EQUAL 0)
  message(FATAL_ERROR "unbudgeted run failed (rc=${unbudgeted_rc})")
endif()
if(unbudgeted_out STREQUAL reference)
  message(FATAL_ERROR "--fault-budget 300 changed nothing — the budget "
                      "never triggered, so the determinism check is vacuous")
endif()

string(LENGTH "${reference}" out_len)
message(STATUS "budgeted rows byte-identical across jobs x sharding "
               "(${out_len} bytes)")
